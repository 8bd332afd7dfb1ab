"""Record the CLI's outcome on the gate configs, to compare two versions of the code.

    PYTHONPATH=src python tests/gate_outputs.py OUT.json

For each gate config this writes the exit code, the JSON report without
`wall_time_s` and the stderr text, keyed by a label. The gate configs are:

- every golden case in tests/golden/;
- every benchmark case of perfbench/workloads.py at FULL and TINY size, at
  seeds 1, 2 and 77;
- the grid-riccati cases at 11 samples per axis (1,331 points) and the
  grid-darboux case at 7 (2,401 points), grids of more than one chunk;
- the family-gap and euler-combine golden configs at 11 samples per axis
  (1,331 points), with a K whose mask excludes points in every chunk;
- verify-identities at n = 2..7 with 10 rounds, at seeds 1, 2, 7 and 77.

Run it in two checkouts and diff the two files: a change that keeps the
reports leaves them equal. This is a script, not a test.
"""

import json
import sys
from pathlib import Path

from test_golden_reports import CASES, GOLDEN, run_case

# perfbench is not a package: its case builder is imported from its directory, and imports nothing of cliffcalc
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# grids of many chunks (1,331 and 2,401 points)
LARGE = {"grid-riccati": 11, "grid-darboux": 7}
# golden configs on grids of many chunks (1,331 points), with K = exp(0.2): the masked locus
# alpha = K exp(x1 - x2) = 1, x2 = x1 + 0.2, holds grid points in every chunk
LARGE_K = 1.2214027581601699
LARGE_GOLDEN = {"family-gap": ("K_samples", [2.0, [-3.0, 1.0], LARGE_K]), "euler-combine": ("K", LARGE_K)}


def gate_cases():
    """(label, command, config) for every gate config."""
    for path in CASES:
        case = json.loads(path.read_text())
        yield f"golden/{path.stem}", case["command"], case["config"]
    for size_name, sizes in (("FULL", workloads.FULL), ("TINY", workloads.TINY)):
        for seed in (1, 2, 77):
            for workload in workloads.WORKLOADS:
                for case in workloads.build(workload, seed, sizes):
                    yield f"bench/{workload}/{size_name}/seed{seed}/{case.label}", case.command, case.config
    for workload, samples in LARGE.items():
        for case in workloads.build(workload, 1, {workload: samples}):
            yield f"bench/{workload}/LARGE/{case.label}", case.command, case.config
    for name, (key, K) in LARGE_GOLDEN.items():
        case = json.loads((GOLDEN / f"{name}.json").read_text())
        yield f"golden/{name}/LARGE", case["command"], {**case["config"], key: K, "grid": {"samples_per_axis": 11}}
    for n in range(2, 8):
        for seed in (1, 2, 7, 77):
            yield f"identities/n{n}/seed{seed}", "verify-identities", {"n": n, "rounds": 10, "seed": seed}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: PYTHONPATH=src python tests/gate_outputs.py OUT.json")
    outcomes = {label: run_case({"command": command, "config": config})
                for label, command, config in gate_cases()}
    Path(argv[0]).write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    print(f"{len(outcomes)} gate configs written to {argv[0]}")


if __name__ == "__main__":
    main(sys.argv[1:])
