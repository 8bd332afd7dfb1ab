"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()


def _failures(invocations):
    return [inv.problems for inv in invocations if inv.problems]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_tiny_size_has_no_failures(workload, tmp_path):
    cases = workloads.prepare(workload, 7, tmp_path, workloads.TINY)
    warm, timed = run.timed_run(CLI, cases, 0)
    assert _failures(warm + timed) == []
    assert all(inv.speed > 0 and inv.samples > 0 for inv in timed)


def test_riccati_twin_expected_to_pass_is_counted_as_failed(tmp_path):
    exact, (twin, path) = workloads.prepare("grid-riccati", 7, tmp_path, workloads.TINY)
    wrong = replace(twin, exit_code=0, passes=dict.fromkeys(twin.passes, True))
    warm, timed = run.timed_run(CLI, [exact, (wrong, path)], 0)
    invocations = warm + timed
    assert sum(bool(inv.problems) for inv in invocations) / len(invocations) > 0
    assert any("riccati: pass=False, expected True" in p for inv in invocations for p in inv.problems)


def test_deviations_catch_non_finite_norms():
    case = workloads.Case("c", "riccati-check", {}, 0, {"riccati": True})
    good = json.dumps({"reports": [{"name": "riccati", "pass": True, "sup_norm": 0.0, "rms": 0.0}]})
    bad = json.dumps({"reports": [{"name": "riccati", "pass": True, "sup_norm": 0.0, "rms": float("nan")}]})
    assert workloads.deviations(case, 0, good) == []
    assert workloads.deviations(case, 0, bad) == ["riccati: rms=nan is not finite"]
    assert workloads.deviations(case, 1, "") == ["exit code 1, expected 0", "no JSON report on stdout"]


def test_traced_run_matches_untraced_and_restores_every_binding(tmp_path):
    import cliffcalc
    import cliffcalc.fields
    import cliffcalc.riccati
    import cliffcalc.taylor

    def bindings():
        return (cliffcalc.riccati.grid_residual, cliffcalc.fields.grid_residual, cliffcalc.grid_residual,
                cliffcalc.taylor.Taylor.__dict__["__mul__"], cliffcalc.taylor.Taylor.__dict__["constant"],
                CLI.main, CLI.json)

    before = bindings()
    cases = workloads.prepare("grid-riccati", 7, tmp_path, workloads.TINY)
    tracer, warm, plain, traced = run.traced_run(CLI, cases, 0)
    assert _failures(warm + plain + traced) == []
    assert all(a is b for a, b in zip(before, bindings()))

    spans = tracer.metrics(len(traced))
    # riccati-check reaches grid_residual only through riccati's own binding of it
    assert spans["fields.grid_residual.calls"] == 3
    assert spans["fields.samples"] == 3 * 2 ** 3
    assert spans["riccati.check.calls"] == 2
    assert spans["cli.report_bytes"] > 0
    # self times telescope to the time of the outermost span
    self_total = sum(v for k, v in spans.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(spans["cli.main.s"], rel=1e-9)

    metrics, _ = run.layer_metrics(tracer, plain, traced)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["fields.expr_at_per_sample"]["value"] > 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    assert workloads.build("pointwise-suite", 3) == workloads.build("pointwise-suite", 3)
    assert workloads.build("pointwise-suite", 3) != workloads.build("pointwise-suite", 4)
    assert workloads.build("grid-darboux", 3) == workloads.build("grid-darboux", 4)


def _runs(values, failed=0):
    return {"w": [{"metrics": {"verdict_s.p50": {"value": v}}, "failed": failed, "attempted": 10}
                  for v in values]}


def test_compare_verdicts():
    metric = [{"name": "verdict_s.p50", "unit": "s", "better": "lower", "bound": 0.1}]
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]

    def verdicts(new, failed=0):
        return [row[-1] for row in compare.compare(_runs(steady), _runs(new, failed), metric)]

    assert verdicts([x * 1.2 for x in steady]) == ["regression", "ok"]
    assert verdicts([0.7, 1.3, 1.0, 0.8, 1.2, 1.0]) == ["unresolved", "ok"]
    assert verdicts([x * 0.8 for x in steady]) == ["better", "ok"]
    assert verdicts([x * 1.05 for x in steady]) == ["ok", "ok"]
    assert verdicts(steady, failed=1) == ["ok", "regression"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-riccati", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
