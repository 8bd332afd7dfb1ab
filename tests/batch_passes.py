"""Count the elementwise Batch passes of each benchmark grid case, to compare two versions of the code.

    PYTHONPATH=src python tests/batch_passes.py

A chunk's coefficients are Batches (batch.py), one number per grid point,
and each elementwise operation on one is a Python pass over all of the
chunk's points. For each grid case of perfbench/workloads.py at FULL size
(every workload but pointwise-suite, which sweeps no grid) this prints the
number of such passes that one invocation makes, and its exit code. Run it
with PYTHONPATH set to each checkout's src and compare the lines: the counts
are deterministic. This is a script, not a test; tests/test_cli.py pins
ceilings with the same counter.
"""

import contextlib
import sys
from pathlib import Path

from cliffcalc.batch import Batch
from test_golden_reports import run_case

# the Batch operations that each make one pass over the points of a chunk
BATCH_PASSES = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__pow__", "__neg__")


@contextlib.contextmanager
def counting_passes():
    """A list that gets the length of every Batch pass made inside the block."""
    passes = []
    originals = {name: getattr(Batch, name) for name in BATCH_PASSES}

    def counted(op):
        def method(self, *other):
            result = op(self, *other)
            if result is not NotImplemented:
                passes.append(len(self))
            return result

        return method

    for name, op in originals.items():
        setattr(Batch, name, counted(op))
    try:
        yield passes
    finally:
        for name, op in originals.items():
            setattr(Batch, name, op)


def grid_cases():
    """(label, command, config) of every benchmark grid case at FULL size."""
    # perfbench is not a package: its case builder is imported from its directory, and imports nothing of
    # cliffcalc; only here, so that tests/test_cli.py imports the counter without it
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        if workload != "pointwise-suite":
            for case in workloads.build(workload, 1):
                yield f"{workload}/{case.label}", case.command, case.config


def passes_of(command, config):
    """(exit code, the lengths of the Batch passes) of one invocation."""
    with counting_passes() as passes:
        code = run_case({"command": command, "config": config})["exit_code"]
    return code, passes


def main(argv):
    if argv:
        sys.exit("usage: PYTHONPATH=src python tests/batch_passes.py")
    for label, command, config in grid_cases():
        code, passes = passes_of(command, config)
        print(f"{label}: {len(passes)} passes (exit {code})")


if __name__ == "__main__":
    main(sys.argv[1:])
