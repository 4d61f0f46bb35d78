"""Small shared utilities (timing, RNG, the worker pool)."""
