"""Golden reports: every CLI command on a small fixed config.

Each file in tests/golden/ holds a command and its config, together with the
exit code, the JSON report (without `wall_time_s`) and the stderr text that
the command produced when the file was written. Refactors must reproduce
them: floats to 1e-12 relative, everything else exactly.

After an intended change of the reports, rewrite the expected outputs of the
named golden files (each holding at least its command and config) with

    PYTHONPATH=src python tests/test_golden_reports.py tests/golden/<name>.json ...

Only the named files are written, so adding a golden case leaves the others as
they are.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from cliffcalc.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def run_case(case):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(case["config"]))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([case["command"], "--config", str(cfg)])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("wall_time_s")
    return {"exit_code": code, "report": report, "stderr": err.getvalue()}


def assert_matches(actual, expected, where="$"):
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isnan(expected):
            assert math.isnan(actual), where
        else:
            assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), (where, actual, expected)
        return
    assert type(actual) is type(expected), (where, actual, expected)
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, (where, actual, expected)


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_report_matches_golden(path):
    case = json.loads(path.read_text())
    assert_matches(run_case(case), {k: case[k] for k in ("exit_code", "report", "stderr")})


def test_every_command_has_a_golden_case():
    assert {json.loads(p.read_text())["command"] for p in CASES} == set(COMMANDS)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py GOLDEN.json [GOLDEN.json ...]")
    for path in map(Path, sys.argv[1:]):
        case = json.loads(path.read_text())
        result = run_case(case)
        path.write_text(json.dumps({"command": case["command"], "config": case["config"], **result},
                                   indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: exit {result['exit_code']}")
