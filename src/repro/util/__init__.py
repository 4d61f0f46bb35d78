"""Small shared utilities (timing, RNG, validation helpers)."""
