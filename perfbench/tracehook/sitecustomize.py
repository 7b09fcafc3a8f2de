"""Loaded by every Python process started with this directory on
``PYTHONPATH`` (the server, the fleet supervisor and its workers, the
proxy); installs the benchmark's span wrappers when the traced run asked
for them.  See ``perfbench_spans.py``."""

import perfbench_spans

perfbench_spans.install_from_env()
