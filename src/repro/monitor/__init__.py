"""Monitoring: per-CPU activity, tiling windows, heat maps, cache model."""
