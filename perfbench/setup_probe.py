"""Time one set-up in this fresh process and print it in seconds.

Set-up is importing cliffcalc and building a workload's inputs: the configs
are generated, their expressions parsed once and the files written.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent

if __name__ == "__main__":
    t0 = perf_counter()
    sys.path.insert(0, str(BENCH.parent / "src"))
    import cliffcalc  # noqa: F401  (the import is what is timed)

    workloads.prepare(sys.argv[1], int(sys.argv[2]), BENCH / ".work")
    print(perf_counter() - t0)
