"""End-to-end and per-layer benchmark of mgincept; entry point `perfbench/run.py`."""
