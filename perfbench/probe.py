"""Set-up probe: one cold start of a workload in a fresh interpreter.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED SIZE SCRATCH``.

Imports ``repro.cli`` (the cost every CLI call pays), builds the
workload's specs, fills the per-process caches its ops reuse, then
prints ``ready``.  ``run.py`` times the span from starting this process
to reading that line; that time is ``setup_s``.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

import repro.cli  # noqa: E402,F401  (the import is what is measured)

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, size, scratch = argv
    workloads.build(name, int(seed), size, Path(scratch)).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
