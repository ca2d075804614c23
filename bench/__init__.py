"""Benchmark of the teleportlab CLI; run it with ``python3 bench/run.py``."""
