"""cliffcalc benchmark: verdict latency and samples/s per workload, or a traced layer run.

    python3 perfbench/run.py --workload grid-riccati --seed 1 --seconds 20 --trace 0 [--out runs.jsonl]

One client in one process, closed loop: each invocation is an in-process
`cliffcalc.cli.main([...])` call on a JSON config and starts only when the
previous one has returned. Every report is checked against the workload's
expected outcome (workloads.py). With --trace 0 the end-to-end metrics are
measured; with --trace 1 the same cases run alternately untraced and traced
(layertrace.py) for the per-layer metrics, and the traced reports must equal
the untraced ones. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --out appends a fuller record with
run metadata as one JSON line, which compare.py reads.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layertrace
import workloads
from speed import REFERENCE_S, reference_loop, speed_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / ".work"
SETUP_PROBES = 9

END_TO_END = {
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "expr.parse.calls": "count",
    "expr.parse.s": "s",
    "expr.taylor.calls": "count",
    "expr.taylor.self_s": "s",
    "taylor.mul.calls": "count",
    "taylor.mul.coef_pairs": "count",
    "taylor.mul.self_s": "s",
    "taylor.add.calls": "count",
    "taylor.add.self_s": "s",
    "taylor.compose.calls": "count",
    "taylor.compose.self_s": "s",
    "algebra.gp.calls": "count",
    "algebra.gp.term_pairs": "count",
    "algebra.gp.self_s": "s",
    "fields.expr_at.calls": "count",
    "fields.expr_at_per_sample": "ratio",
    "fields.derived_at.calls": "count",
    "fields.dirac.calls": "count",
    "fields.dirac.self_s": "s",
    "fields.laplacian.self_s": "s",
    "fields.grid_residual.s": "s",
    "fields.samples": "count",
    "fields.samples_masked": "count",
    "riccati.check.s": "s",
    "darboux.pipeline.s": "s",
    "kernel.split.s": "s",
    "kernel.mode_check.s": "s",
    "suites.suite.s": "s",
    "cli.main.s": "s",
    "cli.serialize.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class Invocation:
    seconds: float  # wall time
    exit_code: object
    stdout: str
    problems: list = field(default_factory=list)
    loops: tuple = (REFERENCE_S, REFERENCE_S)  # reference loop times before and after

    @property
    def speed(self):
        return speed_factor(*self.loops)

    @property
    def ref_seconds(self):
        return self.seconds / self.speed

    @property
    def samples(self):
        return 0 if self.problems else workloads.samples_used(self.stdout)


def load_cli(root=ROOT):
    """Import cliffcalc.cli from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    if not (src / "cliffcalc" / "__init__.py").is_file():
        raise SetupError(f"no cliffcalc sources under {src}")
    sys.path.insert(0, str(src))
    from cliffcalc import cli

    if Path(cli.__file__).resolve().parent != (src / "cliffcalc").resolve():
        raise SetupError(f"imported cliffcalc from {cli.__file__}, not from {src}")
    return cli


def invoke(cli, case, path):
    """One timed CLI invocation, checked against the case's expected outcome."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([case.command, "--config", str(path)])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an uncaught error is a failed invocation, not the end of the run
        code, crash = None, traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    inv = Invocation(seconds, code, out.getvalue())
    if crash:
        inv.problems.append(f"uncaught exception:\n{crash}")
    inv.problems += workloads.deviations(case, code, inv.stdout)
    if inv.problems and err.getvalue().strip():
        inv.problems.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    return inv


def timed_run(cli, cases, seconds):
    """One warm-up invocation, then invocations cycling through the cases for
    `seconds`, and at least once through all of them.

    The reference loop runs before the first invocation and after each one;
    an invocation's speed factor comes from the two loops around it.
    Returns (warm-up invocations, timed invocations).
    """
    warm = [invoke(cli, *cases[0])]
    timed = []
    loops = [reference_loop()]
    deadline = perf_counter() + seconds
    while len(timed) < len(cases) or perf_counter() < deadline:
        case, path = cases[len(timed) % len(cases)]
        timed.append(invoke(cli, case, path))
        loops.append(reference_loop())
    for inv, before, after in zip(timed, loops, loops[1:]):
        inv.loops = (before, after)
    return warm, timed


def _report_body(stdout):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    payload.pop("wall_time_s", None)
    return payload


def traced_run(cli, cases, seconds):
    """One warm-up invocation, then untraced and traced passes over the cases
    in turn for `seconds`.

    Returns (tracer, warm-up, untraced and traced invocations). A traced
    invocation whose report differs from its untraced twin is a failure.
    """
    warm = [invoke(cli, *cases[0])]
    tracer = layertrace.Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        base = [invoke(cli, case, path) for case, path in cases]
        with tracer.installed():
            again = [invoke(cli, case, path) for case, path in cases]
        for b, t in zip(base, again):
            if _report_body(b.stdout) != _report_body(t.stdout):
                t.problems.append("traced report differs from the untraced report")
        plain += base
        traced += again
    return tracer, warm, plain, traced


def measure_setup(workload, seed, probes=SETUP_PROBES):
    """Median wall time of set-up over fresh processes, after one unrecorded probe.

    It stays in wall seconds: in trials, scaling it by a reference loop run
    in the parent or in the probe itself made it less steady, not more.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(probes + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        if i:
            times.append(float(done.stdout.split()[-1]))
    return statistics.median(times), len(times)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end_metrics(timed, setup_s):
    verdict = [inv.ref_seconds for inv in timed]
    rates = [inv.samples / inv.ref_seconds for inv in timed if inv.samples]
    values = {
        "verdict_s.p50": statistics.median(verdict),
        "verdict_s.p90": quantile(verdict, 0.9),
        "samples_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(tracer, plain, traced):
    spans = tracer.metrics(len(traced))
    points = spans.get("fields.points", 0.0)
    spans["fields.expr_at_per_sample"] = spans.get("fields.expr_at.calls", 0.0) / points if points else 0.0
    spans["trace.overhead"] = (statistics.median(inv.seconds for inv in traced)
                               / statistics.median(inv.seconds for inv in plain))
    return {name: {"value": spans.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}, spans


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root=ROOT):
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, counts):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workloads.FULL[args.workload],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "samples": counts,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    return parser.parse_args(argv)


def traced_result(cli, cases, seconds):
    """(per-layer metrics, invocations, sample counts, extra record fields)."""
    tracer, warm, plain, traced = traced_run(cli, cases, seconds)
    metrics, spans = layer_metrics(tracer, plain, traced)
    counts = {"untraced_invocations": len(plain), "traced_invocations": len(traced)}
    return metrics, warm + plain + traced, counts, {"layers": spans}


def timed_result(cli, cases, workload, seed, seconds):
    """(end-to-end metrics, invocations, sample counts, extra record fields)."""
    setup_s, probes = measure_setup(workload, seed)
    warm, timed = timed_run(cli, cases, seconds)
    metrics = end_to_end_metrics(timed, setup_s)
    wall = [inv.seconds for inv in timed]
    counts = {
        "verdict_s": len(timed),
        "verdict_s.beyond_p90": sum(inv.ref_seconds > metrics["verdict_s.p90"]["value"] for inv in timed),
        "setup_s": probes,
        "wall_verdict_s.p50": statistics.median(wall),
        "wall_verdict_s.p90": quantile(wall, 0.9),
        "speed.p50": statistics.median(inv.speed for inv in timed),
    }
    per_invocation = [[inv.seconds, *inv.loops] for inv in timed]
    return metrics, warm + timed, counts, {"per_invocation_wall_loop_before_after_s": per_invocation}


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_cli()
        cases = workloads.prepare(args.workload, args.seed, WORKDIR)
        if args.trace:
            metrics, invocations, counts, extra = traced_result(cli, cases, args.seconds)
        else:
            metrics, invocations, counts, extra = timed_result(cli, cases, args.workload, args.seed,
                                                               args.seconds)
    except (SetupError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    failed = [inv for inv in invocations if inv.problems]
    for inv in failed[:3]:
        print("deviation: " + "; ".join(inv.problems), file=sys.stderr)
    failed_frac = len(failed) / len(invocations)
    result = {"correct": not failed, "attempted": len(invocations), "failed": len(failed),
              "metrics": metrics}
    info = metadata(args, counts)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<28} {failed_frac:.6g} ratio ({len(failed)} of {len(invocations)} invocations)")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**result, "failed_frac": failed_frac, "metadata": info, **extra}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
