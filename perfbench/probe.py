"""Set-up probe: a fresh interpreter imports the CLI and runs one warm-up job.

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/probe.py <workload>
`run.py` times this whole process, interpreter start and exit included.
"""

import sys

import hurwitzcf.cli  # noqa: F401  (the import every CLI process pays for)

import jobs

jobs.warm_up(sys.argv[1])
