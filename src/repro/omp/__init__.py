"""OpenMP-like runtime: worksharing loops, tasks, ICVs."""
