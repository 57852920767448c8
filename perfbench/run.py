"""The repository benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload mul-256 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout that holds this
file; without it the run exits non-zero and prints no result. Load comes
from one process, one thread and one caller in a closed loop: the next
operation starts when the previous one returns. Every result is kept and
checked against an oracle after the loop.

``--trace 0`` prints the end-to-end metrics and installs no wrappers.
``--trace 1`` prints the per-layer metrics: it alternates untraced
segments with segments that have the timing wrappers of ``spans.py``
installed, half of ``--seconds`` each way on the same inputs, compares the
two kinds' outputs bit for bit, and times the baseline controls. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (seed, interpreter, machine, context shape).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "rnsbarrett" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rnsbarrett package under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import rnsbarrett

    if not Path(rnsbarrett.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: rnsbarrett imported from outside {SRC}")
    from perfbench.harness import main

    sys.exit(main())
