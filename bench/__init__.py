"""The repo's one benchmark: named workloads, end-to-end metrics, layers
measured from outside.  See ``bench/README.md``; entry point ``bench/run.py``.
"""
