"""dtnum benchmark: workloads, spans and the run command (``perfbench/run.py``)."""
