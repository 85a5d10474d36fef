"""Benchmark of the reproduction: see NOTES.md and run.py."""
