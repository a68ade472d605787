"""Perf ledger: the repo's benchmark (see README.md in this directory).

Two entry points share one mechanism:

- ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` runs one pass of one workload and prints one JSON
  object as its last line (the contract ``BENCHMARK.json`` declares);
- ``PYTHONPATH=src python -m benchmarks.ledger`` runs every workload,
  untraced then traced, each in a fresh child ``run.py`` process, and
  writes one results file; ``--compare OLD NEW`` diffs two of them.

Everything here measures the program from outside, through public
functions only; nothing under ``src/`` knows the ledger exists.
"""
