"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --trace 0 --out FILE` appends, one
run per line; run each side several times (ten is the rule) with the same
--seconds. For every workload and every end-to-end metric in
BENCHMARK.json the table gives each side's median and quartiles over its
runs, the change of the median, and the first verdict that applies:

- better: every new run reads better than every base run;
- unresolved: the run-to-run spread (quartile distance over median) of
  either side is wider than the metric's bound, so a change within the
  bound cannot be told from noise;
- regression: the new median is worse than the base median by more than
  the bound;
- ok: none of the above.

A failed_frac row per workload counts failed against attempted invocations;
any rise is a regression. Exits 1 if any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """workload -> list of untraced run records."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["metadata"]["trace"] == 0:
                    runs[record["metadata"]["workload"]].append(record)
    return runs


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = summary(base)[0], summary(new)[0]
    worse_by = sign * (n_med - b_med) / b_med if b_med else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if all_better:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "regression"
    return "ok"


def compare(base_runs, new_runs, end_to_end):
    """Rows of (workload, metric, base summary, new summary, change, verdict)."""
    rows = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if not base or not new:
            rows.append((workload, "*", None, None, None, "missing on one side"))
            continue
        for metric in end_to_end:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            change = (summary(n)[0] - summary(b)[0]) / summary(b)[0] if summary(b)[0] else None
            rows.append((workload, name, summary(b), summary(n), change,
                         verdict(b, n, metric["bound"], metric["better"])))
        fb = sum(r["failed"] for r in base) / sum(r["attempted"] for r in base)
        fn = sum(r["failed"] for r in new) / sum(r["attempted"] for r in new)
        rows.append((workload, "failed_frac", (fb, fb, fb), (fn, fn, fn), None,
                     "regression" if fn > fb else "ok"))
    return rows


def _fmt(s):
    return "-" if s is None else f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    end_to_end = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), end_to_end)
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'change':>8}  verdict")
    for workload, name, b, n, change, word in rows:
        pct = "-" if change is None else f"{change:+.1%}"
        print(f"{workload:<16} {name:<14} {_fmt(b):<30} {_fmt(n):<30} {pct:>8}  {word}")
    return 1 if any(row[-1] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
