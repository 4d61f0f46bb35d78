"""Experiment tools: expTools sweeps, the results CSV, easyplot."""
