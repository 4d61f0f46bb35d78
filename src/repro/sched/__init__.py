"""Scheduling substrate: policies, simulator, task graphs, timelines."""
