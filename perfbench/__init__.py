"""End-to-end and per-module benchmark for fedsim; run it with `python3 perfbench/run.py`."""
