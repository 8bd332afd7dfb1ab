import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import cliffcalc.fields
import cliffcalc.riccati
from cliffcalc import darboux, suites
from cliffcalc.algebra import Multivector
from cliffcalc.batch import Batch
from cliffcalc.cli import COMMANDS, _decomposition_output, main
from cliffcalc.expr import Tape
from cliffcalc.fields import ConstantField, ExprField, GridSpec, Identity, MultivectorField, ResidualReport
from cliffcalc.kernel import DecompositionResult
from cliffcalc.riccati import RiccatiCandidate, riccati_residual
from test_golden_reports import CASES as GOLDEN_CASES, run_case

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def bare_token(token):
    raise ValueError(f"strict JSON (RFC 8259) has no {token} token")


def load(out):
    return json.loads(out, parse_constant=bare_token)


def points_in(p):
    """The number of grid points that the point p stands for: a chunk's, or one."""
    return len(p[0]) if type(p[0]) is Batch else 1


def points_of(p):
    """The points that the point p stands for: those of a chunk, or p itself."""
    return list(zip(*p)) if type(p[0]) is Batch else [p]


RICCATI_CFG = {
    "n": 3,
    "fields": {"f": {"e1": "1"}, "v": "0 - 1"},
    "grid": {"samples_per_axis": 4},
}


def test_riccati_check_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", RICCATI_CFG)
    code, out, _ = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 0
    payload = load(out)
    assert payload["overall_pass"] is True
    assert payload["schema_version"] == 2
    names = [r["name"] for r in payload["reports"]]
    assert names == ["riccati", "scalar_part", "bivector_part"]


def test_riccati_check_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": "1"}, "v": "1"},
        "grid": {"samples_per_axis": 3}})
    code, out, _ = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 1
    assert load(out)["overall_pass"] is False


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n": 2})
    code, _, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 2 and "missing" in err
    code, _, _ = run_cli(capsys, "riccati-check", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "riccati-check", "--config", str(bad))
    assert code == 2


@pytest.mark.parametrize("command, config", [
    ("riccati-check", {**RICCATI_CFG, "n": True}),
    ("darboux-kvector", {"n": 2, "k": True, "lambda": 1.0,
                         "fields": {"f": {"e1": "1"}, "g": {"e1": "1"}}}),
])
def test_bool_is_not_an_integer(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, "c.json", config)
    code, _, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2 and "wrong type" in err


def test_nan_residual_fails_without_traceback(tmp_path, capsys):
    big = "exp(700)*exp(700)*x1"
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": f"{big} - {big}"}, "v": "0"},
        "grid": {"samples_per_axis": 3}})
    code, out, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 1 and err == ""
    report = load(out)["reports"][0]
    assert report["name"] == "riccati" and report["pass"] is False
    assert report["sup_norm"] == "NaN" and report["worst_point"] is not None


def test_bad_expression_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": "x9"}, "v": "0-1"}})
    code, _, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 2


def test_missing_arguments(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "riccati-check")[0] == 2


def test_list_claims(capsys):
    code, out, _ = run_cli(capsys, "--list-claims")
    assert code == 0
    rows = [line.split(maxsplit=1) for line in out.splitlines()]
    assert [row[0] for row in rows] == sorted(COMMANDS)
    assert all(len(row) == 2 for row in rows)


def test_verify_identities_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n": 2, "rounds": 5})
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify-identities", "--config", cfg, "--seed", "3")
        assert code == 0
        payload = load(out)
        payload.pop("wall_time_s")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_nan_identity_residual_fails_its_entry(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN residual must be taken as the entry's worst value explicitly
    seen = []  # the points of the scalar Leibniz residual, in the order drawn

    class Poisoned(MultivectorField):
        """The residual, NaN at the second point drawn, whether it is read alone or with the other points."""

        def __init__(self, residual):
            self.n, self.inputs = residual.n, ((residual, 0),)

        def evaluate(self, p):
            points = points_of(p)
            seen.extend(q for q in points if q not in seen)
            r = self.inputs[0][0].at(p, 0)
            return Multivector.scalar(r.n, complex("nan")) if len(seen) > 1 and seen[1] in points else r

    original = suites._sweep

    def poisoned(tallies, checks, *args):
        checks = [(name, Identity(Poisoned(check.lhs)) if name == "leibniz/scalar" else check)
                  for name, check in checks]
        return original(tallies, checks, *args)

    monkeypatch.setattr(suites, "_sweep", poisoned)
    code, out, _ = run_cli(capsys, "verify-identities", "--config",
                           write_config(tmp_path, "c.json", {"n": 2, "rounds": 5}))
    entries = {r["name"]: r for r in load(out)["reports"]}
    assert code == 1
    assert entries["leibniz/scalar"]["sup_norm"] == "NaN" and entries["leibniz/scalar"]["pass"] is False
    assert all(r["pass"] for name, r in entries.items() if name != "leibniz/scalar")


def test_config_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", RICCATI_CFG)
    _, out, _ = run_cli(capsys, "riccati-check", "--config", cfg)
    first = load(out)
    # re-run from the echoed config; reports must be identical
    cfg2 = write_config(tmp_path, "echo.json", first["config"])
    _, out2, _ = run_cli(capsys, "riccati-check", "--config", cfg2)
    second = load(out2)
    assert first["reports"] == second["reports"]
    assert first["overall_pass"] == second["overall_pass"]


def test_out_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", RICCATI_CFG)
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "riccati-check", "--config", cfg, "--out", str(dest))
    assert code == 0 and out == ""
    assert load(dest.read_text())["overall_pass"] is True


def test_out_into_a_missing_directory_is_an_error_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", RICCATI_CFG)
    code, out, err = run_cli(capsys, "riccati-check", "--config", cfg, "--out", str(tmp_path / "no" / "r.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_decompose_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": "1"}, "v": "0 - 1", "phi": "1"},
        "lambda": 1.0, "grid": {"samples_per_axis": 4}})
    code, out, _ = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 0
    payload = load(out)
    assert payload["extras"]["g_plus_at_center"] == "(0.5+0j)*1 + 0.5j*e2"
    assert payload["extras"]["variant"] == "A"


def test_decompose_dual_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": "1"}, "phi": "1"},
        "lambda": 1.0, "grid": {"samples_per_axis": 4}})
    code, out, _ = run_cli(capsys, "decompose-dual", "--config", cfg)
    assert code == 0
    assert load(out)["extras"]["variant"] == "B"


def test_precondition_failure_is_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "fields": {"f": {"e1": "1"}, "v": "1", "phi": "1"},
        "lambda": 1.0, "grid": {"samples_per_axis": 3}})
    code, _, err = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 1 and "check failed" in err


def test_mode_rejection_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 3, "mode": "full", "fields": {"f": {"e1": "1"}, "v": "0 - 1", "phi": "1"},
        "lambda": 1.0, "grid": {"samples_per_axis": 3}})
    code, _, _ = run_cli(capsys, "decompose", "--config", cfg)
    assert code == 2


def test_separable_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "v_list": ["0 - 1", "0 - 1"],
        "grid": {"box": [[-0.8, 0.8], [-0.8, 0.8]], "samples_per_axis": 4}})
    code, out, _ = run_cli(capsys, "riccati-separable", "--config", cfg)
    assert code == 0 and load(out)["overall_pass"] is True


def test_separable_blowup_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 1, "v_list": ["1"],
        "grid": {"box": [[-1.0, 2.0]], "samples_per_axis": 4}})
    code, out, _ = run_cli(capsys, "riccati-separable", "--config", cfg)
    assert code == 1
    payload = load(out)
    assert payload["overall_pass"] is False
    assert 1.4 < payload["extras"]["blow_up"]["x"] < 1.7


@pytest.mark.parametrize("x0, f0", [(1.0, -10.0), (-1.0, 10.0)])
def test_separable_start_outside_the_box_marches_only_toward_it(tmp_path, capsys, x0, f0):
    # v = 0: f = 1/(x1 - x0 - 1/f0) has its pole at x0 + 0.1, beyond x0 as seen from the box, and is
    # finite on the box; the half of the axis whose end lies behind x0 takes no step toward the pole
    cfg = write_config(tmp_path, "c.json", {"n": 1, "v_list": ["0"], "x0": [x0], "f0": [f0],
                                            "grid": {"box": [[-0.5, 0.5]], "samples_per_axis": 5}})
    code, out, _ = run_cli(capsys, "riccati-separable", "--config", cfg)
    payload = load(out)
    assert code == 0 and payload["overall_pass"] is True and "blow_up" not in payload["extras"]
    assert payload["reports"][0]["sup_norm"] < 1e-8


def test_separable_blowup_report_names_no_point(tmp_path, capsys):
    # no sample was taken, so the report has no point of R^2; extras.blow_up names the axis and x
    cfg = write_config(tmp_path, "c.json", {
        "n": 2, "v_list": ["0 - 1", "1"],
        "grid": {"box": [[-1.0, 1.0], [-1.0, 2.0]], "samples_per_axis": 4}})
    code, out, _ = run_cli(capsys, "riccati-separable", "--config", cfg)
    payload = load(out)
    assert code == 1 and payload["extras"]["blow_up"]["axis"] == 2
    report, = payload["reports"]
    assert report["samples_used"] == 0 and "worst_point" not in report


def test_separable_domain_error_names_the_variable_of_its_axis(tmp_path, capsys):
    # each axis is solved in one variable; the failing subexpression is still named in x2
    cfg = write_config(tmp_path, "c.json", {"n": 2, "v_list": ["0 - 1", "log(x2 - 2)"],
                                            "grid": {"samples_per_axis": 3}})
    code, out, err = run_cli(capsys, "riccati-separable", "--config", cfg)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == "check failed: log of non-positive real value -2.0, in subexpression 'log((x2 - 2.0))'\n"


def test_separable_sweeps_in_chunks_as_point_by_point(monkeypatch):
    # 144 points, two chunks whose points lie in different Taylor pieces of each axis solution
    case = {"command": "riccati-separable",
            "config": {"n": 2, "v_list": ["0 - 1 - sin(3*x1)", "x2"], "f0": [0.3, -0.2],
                       "grid": {"box": [[-1.0, 1.0], [-1.5, 1.0]], "samples_per_axis": 12}}}
    calls = []
    dirac = cliffcalc.fields.mv_dirac
    monkeypatch.setattr(cliffcalc.fields, "mv_dirac", lambda mv: calls.append(mv) or dirac(mv))
    chunked = run_case(case)
    assert chunked["exit_code"] == 0 and len(calls) == 2
    monkeypatch.setattr(cliffcalc.fields, "CHUNK", 1)
    assert run_case(case) == chunked and len(calls) == 2 + 144


def test_family_gap_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 3, "K_samples": [2.0, -3.0, 0.5],
        "grid": {"samples_per_axis": 5}})
    code, out, _ = run_cli(capsys, "family-gap", "--config", cfg)
    assert code == 0
    assert load(out)["extras"]["min_distance"] >= 0.1


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cliffcalc.cli", "--list-claims"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-identities" in proc.stdout


EULER_CFG = {"n": 3, "fields": {"phi1": "x1", "phi2": "x2", "v": "0 - 1"}, "grid": {"samples_per_axis": 3}}
DARBOUX_CFG = {"n": 2, "fields": {"f": {"e1": "1"}, "g": "exp(2*x2)"}, "grid": {"samples_per_axis": 3}}


@pytest.mark.parametrize("command, base, key, forms", [
    ("euler-combine", EULER_CFG, "K", [[2.0, 0.5], {"re": 2.0, "im": 0.5}]),
    ("euler-combine", EULER_CFG, "K", [2.0, [2.0, 0], {"re": 2.0}]),
    ("darboux", DARBOUX_CFG, "lambda", [[0, 3 ** 0.5], {"im": 3 ** 0.5}]),
])
def test_complex_value_forms_agree(tmp_path, capsys, command, base, key, forms):
    reports = []
    for value in forms:
        code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", {**base, key: value}))
        assert code == 0
        reports.append(load(out)["reports"])
    assert all(r == reports[0] for r in reports)


@pytest.mark.parametrize("command, base, key, value", [
    ("euler-combine", EULER_CFG, "K", [1, 2, 3]),
    ("euler-combine", EULER_CFG, "K", [2.0]),
    ("euler-combine", EULER_CFG, "K", "2"),
    ("euler-combine", EULER_CFG, "K", True),
    ("euler-combine", EULER_CFG, "K", {"re": "2"}),
    ("family-gap", {"n": 3, "grid": {"samples_per_axis": 3}}, "K_samples", [2.0, [1, 2, 3]]),
    ("family-gap", {"n": 3, "grid": {"samples_per_axis": 3}}, "K_samples", ["2"]),
    ("darboux", DARBOUX_CFG, "lambda", True),
    ("darboux", DARBOUX_CFG, "lambda", "1"),
    ("darboux", DARBOUX_CFG, "lambda", [1.0, False]),
    ("family-gap", {"n": 3, "grid": {"samples_per_axis": 3}}, "K_samples", []),
    # an object with a key besides re and im
    ("family-gap", {"n": 3, "grid": {"samples_per_axis": 3}}, "K_samples", [{"a": 1}]),
    ("euler-combine", EULER_CFG, "K", {"re": 2.0, "img": 0.5}),
])
def test_malformed_complex_value_is_config_error(tmp_path, capsys, command, base, key, value):
    cfg = write_config(tmp_path, "c.json", {**base, key: value})
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    stray = [k for item in (value if isinstance(value, list) else [value]) if isinstance(item, dict)
             for k in item if k not in ("re", "im")]
    assert all(repr(k) in err for k in stray), err


@pytest.mark.parametrize("command, config", [
    ("verify-identities", {"n": 2, "rounds": "5"}),
    ("verify-identities", {"n": 2, "rounds": True}),
    ("verify-identities", {"n": 2, "rounds": 2.0}),
    ("verify-identities", {"n": 2, "seed": "1"}),
    ("verify-identities", {"n": 2, "seed": False}),
    ("verify-identities", {"n": 1, "rounds": 2}),
    ("verify-identities", {"n": 0}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": "x", "grid": {"samples_per_axis": 3}}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": True, "grid": {"samples_per_axis": 3}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"samples_per_axis": 3.0}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"samples_per_axis": True}}),
    ("riccati-check", {**RICCATI_CFG, "grid": [3]}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": 1.0}}),
    ("riccati-check", {**RICCATI_CFG, "tolerance": "1e-9"}),
    ("riccati-check", {**RICCATI_CFG, "tolerance": True}),
    ("riccati-separable", {"n": 1, "v_list": ["0 - 1"], "f0": "0.5"}),
    ("riccati-separable", {"n": 1, "v_list": ["0 - 1"], "tolerance": [1e-4]}),
    ("verify-identities", {"n": 2, "rounds": 0}),
    ("verify-identities", {"n": 2, "rounds": -5}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": [[-1, 1e400], [-1, 1], [-1, 1]]}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": [[-1e400, 1], [-1, 1], [-1, 1]]}}),
    ("riccati-check", {"n": 1, "fields": {"f": {"e4": "1"}, "v": "0"}}),
    ("darboux-kvector", {"n": 2, "k": -1, "lambda": 1.0, "fields": {"f": {"e1": "1"}, "g": "1"}}),
    ("darboux-kvector", {"n": 2, "k": 3, "lambda": 1.0, "fields": {"f": {"e1": "1"}, "g": "1"}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": []}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": [["-1", "1"], [-1, 1], [-1, 1]]}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": [[True, 2], [-1, 1], [-1, 1]]}}),
    ("riccati-check", {**RICCATI_CFG, "grid": {"box": [[-1, 10 ** 400], [-1, 1], [-1, 1]]}}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": -5, "grid": {"samples_per_axis": 3}}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": 0, "grid": {"samples_per_axis": 3}}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": math.nan, "grid": {"samples_per_axis": 3}}),
    ("family-gap", {"n": 3, "K_samples": [2.0], "margin": math.inf, "grid": {"samples_per_axis": 3}}),
    # JSON's NaN and Infinity are numbers to Python, but no complex value has a non-finite part
    ("darboux", {**DARBOUX_CFG, "lambda": math.nan}),
    ("darboux", {**DARBOUX_CFG, "lambda": math.inf}),
    ("darboux", {**DARBOUX_CFG, "lambda": [1.0, -math.inf]}),
    ("euler-combine", {**EULER_CFG, "K": math.nan}),
    ("euler-combine", {**EULER_CFG, "K": {"re": 2.0, "im": math.inf}}),
    ("family-gap", {"n": 3, "K_samples": [2.0, math.inf], "grid": {"samples_per_axis": 3}}),
    ("family-gap", {"n": 3, "K_samples": [[math.nan, 0.0]], "grid": {"samples_per_axis": 3}}),
])
def test_wrong_optional_key_type_is_config_error(tmp_path, capsys, command, config):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflow_is_numerical_failure_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "n": 1, "fields": {"f": {"e1": "exp(1000*x1)"}, "v": "0"},
        "grid": {"samples_per_axis": 3}})
    code, out, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 1 and out == ""
    assert err == "check failed: exp of (1000+0j) overflows, in subexpression 'exp((1000.0 * x1))'\n"


LOG_OF_NEGATIVE = "check failed: log of non-positive real value"


@pytest.mark.parametrize("command, config, message", [
    # leaving log's domain at a sample is a failure of the arithmetic, not a malformed config
    ("riccati-check", {"n": 3, "fields": {"f": "log(x1 - 2)", "v": "0"}, "grid": {"samples_per_axis": 3}},
     LOG_OF_NEGATIVE),
    ("riccati-separable", {"n": 1, "v_list": ["log(x1 - 2)"], "grid": {"samples_per_axis": 3}}, LOG_OF_NEGATIVE),
    ("euler-combine", {**EULER_CFG, "K": 2.0, "fields": {"phi1": {"e1": "x1"}, "phi2": {}, "v": "0 - 1"}},
     "check failed: phi1 and phi2 must be scalar fields"),
    # x1^-2 overflows to infinity at x1 = 1e-200, where sin has no value
    ("riccati-check", {"n": 1, "fields": {"f": {"e1": "sin(x1^-2)"}, "v": "0"},
                       "grid": {"box": [[1e-200, 1]], "samples_per_axis": 3}},
     "check failed: sin of (inf+0j) is undefined, in subexpression 'sin((x1^-2))'"),
], ids=["riccati-check-log", "riccati-separable-log", "euler-combine-vector-phi", "riccati-check-sin-inf"])
def test_evaluation_failure_is_numerical_failure(tmp_path, capsys, command, config, message):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config))
    assert code == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("f", [
    {"e1": "1", " e1": "x2"},
    {"e1^e2": "1", "e1 ^ e2": "x2"},
])
def test_repeated_blade_is_config_error(tmp_path, capsys, f):
    cfg = write_config(tmp_path, "c.json", {"n": 2, "fields": {"f": f, "v": "0 - 1"}})
    code, out, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: field 'f': blade ") and err.endswith(" is named twice\n")


SEPARABLE_CFG = {"n": 2, "v_list": ["0 - 1", "0 - 1"], "grid": {"samples_per_axis": 3}}


@pytest.mark.parametrize("extra", [
    {"x0": "ab"},
    {"x0": [0.0]},
    {"x0": [0.0, 0.0, 0.0]},
    {"x0": [True, 0.0]},
    {"x0": 0.0},
    {"f0": [None, 0]},
    {"f0": [0, "1"]},
    {"f0": [0.5, [1, 2]]},
    {"f0": [0.0, False]},
    {"v_list": ["0 - 1"]},
    {"v_list": ["x2", "0"]},
])
def test_malformed_separable_start_or_step_is_config_error(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, "c.json", {**SEPARABLE_CFG, **extra})
    code, out, err = run_cli(capsys, "riccati-separable", "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_separable_axis_over_the_step_bound_is_config_error(tmp_path, capsys, monkeypatch):
    # tanh on [-1, 1] takes more than 3 Taylor steps
    monkeypatch.setattr(cliffcalc.riccati, "ODE_MAX_STEPS", 3)
    code, out, err = run_cli(capsys, "riccati-separable", "--config", write_config(tmp_path, "c.json", SEPARABLE_CFG))
    assert code == 2 and out == ""
    assert err == "error: the 1-D Riccati solution on axis 1 needs over 3 steps\n"


# a JSON integer beyond the double range: float() of it overflows
HUGE = 10 ** 400


@pytest.mark.parametrize("golden, key, value", [
    ("darboux", "lambda", HUGE),
    ("darboux", "lambda", [0.0, -HUGE]),
    ("darboux-kvector", "lambda", {"re": HUGE}),
    ("riccati-check", "tolerance", HUGE),
    ("family-gap", "margin", HUGE),
    ("family-gap", "K_samples", [2.0, [HUGE, 1.0]]),
    ("euler-combine", "K", HUGE),
    ("riccati-separable", "x0", [HUGE, 0.0]),
    ("riccati-separable", "f0", [0.0, -HUGE]),
], ids=lambda v: "huge" if v == HUGE else None)
def test_integer_beyond_the_double_range_is_config_error(tmp_path, capsys, golden, key, value):
    case = json.loads((GOLDEN_CASES[0].parent / f"{golden}.json").read_text())
    cfg = write_config(tmp_path, "c.json", {**case["config"], key: value})
    code, out, err = run_cli(capsys, case["command"], "--config", cfg)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_separable_accepts_start_value_lists(tmp_path, capsys):
    # v = -1 with f(0) = 0.5 on each axis: f = tanh(x + atanh 0.5)
    cfg = write_config(tmp_path, "c.json", {**SEPARABLE_CFG, "x0": [0, 0.0], "f0": [0.5, 0.5]})
    code, out, _ = run_cli(capsys, "riccati-separable", "--config", cfg)
    assert code == 0 and load(out)["overall_pass"] is True


def test_decompose_verdict_is_the_library_verdict():
    ok = ResidualReport(0.0, 0.0, (0.0, 0.0), 9, 1e-9, True)
    half = ConstantField(Multivector.scalar(2, 0.5))
    grid = GridSpec.cube(2, samples_per_axis=3)
    for reassembly in (0.0, 1e-6):
        result = DecompositionResult(half, half, 1.0, reassembly, ok, ok, ok)
        assert _decomposition_output(result, grid)[2] is result.passed is (reassembly == 0.0)


# f = x1 e1 is not a solution for v = 1e-6: D(f) + f^2 - v = -1 - x1^2 - 1e-6
NOT_A_SOLUTION = '{"n": 1, "fields": {"f": {"e1": "x1"}, "v": "1e-6"}, "grid": {"samples_per_axis": 3}%s}'


@pytest.mark.parametrize("tolerance", ["Infinity", "NaN", "-1", "0"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, tolerance):
    path = tmp_path / "c.json"
    path.write_text(NOT_A_SOLUTION % f', "tolerance": {tolerance}')
    code, out, err = run_cli(capsys, "riccati-check", "--config", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance must be a finite positive number") and err.count("\n") == 1


def test_infinite_tol_flag_is_config_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(NOT_A_SOLUTION % "")
    code, out, err = run_cli(capsys, "riccati-check", "--config", str(path), "--tol", "inf")
    assert code == 2 and out == ""
    assert err.startswith("error: tolerance must be a finite positive number") and err.count("\n") == 1
    assert run_cli(capsys, "riccati-check", "--config", str(path), "--tol", "1e-6")[0] == 1


@pytest.mark.parametrize("command, config", [
    ("riccati-check", {"n": 2, "fields": {"f": {"e1": 1}, "v": "0 - 1"}}),
    ("riccati-check", {"n": 2, "fields": {"f": {"e1": "1"}, "v": {"1": None}}}),
    ("riccati-separable", {"n": 1, "v_list": [1]}),
    ("riccati-separable", {"n": 2, "v_list": ["0 - 1", ["x2"]]}),
])
def test_non_string_expression_is_config_error(tmp_path, capsys, command, config):
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config))
    assert code == 2 and out == ""
    assert "expression must be a string" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_vector_split_follows_declared_blades(tmp_path, capsys):
    # f = x1 vanishes at the box center but declares a scalar, so there is no split
    cfg = write_config(tmp_path, "c.json", {"n": 2, "fields": {"f": "x1", "v": "1"},
                                            "grid": {"samples_per_axis": 3}})
    code, out, _ = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 1
    assert [r["name"] for r in load(out)["reports"]] == ["riccati"]
    cfg = write_config(tmp_path, "c.json", {"n": 2, "fields": {"f": {"e1": "x1", "e2": "x2"}, "v": "1"},
                                            "grid": {"samples_per_axis": 3}})
    code, out, _ = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 1
    assert [r["name"] for r in load(out)["reports"]] == ["riccati", "scalar_part", "bivector_part"]


def test_vector_split_reports_share_one_scale(tmp_path, capsys):
    # f = x1 e1 gives D f + f^2 = -1 - x1^2 = v: every residual is an exact zero, so each report's
    # deciding sample is its last, (1, 1), where the scale |D f + f^2| is 2
    config = {"n": 2, "fields": {"f": {"e1": "x1"}, "v": "0 - 1 - x1^2"}, "grid": {"samples_per_axis": 5}}
    code, out, _ = run_cli(capsys, "riccati-check", "--config", write_config(tmp_path, "c.json", config))
    assert code == 0
    reports = load(out)["reports"]
    assert [r["tolerance"] for r in reports] == [reports[0]["tolerance"]] * 3
    assert reports[0]["tolerance"] == pytest.approx(3e-9) and reports[0]["worst_point"] == [1.0, 1.0]
    # a scalar residual of 10 no longer widens its own tolerance: under --tol 1 it fails its part,
    # decided where the scale 1 + x1^2 is least, at x1 = 0, with tolerance 1 * (1 + 1)
    config["fields"]["v"] = "9 - x1^2"
    code, out, _ = run_cli(capsys, "riccati-check", "--config", write_config(tmp_path, "c.json", config),
                           "--tol", "1")
    assert code == 1
    reports = {r["name"]: r for r in load(out)["reports"]}
    assert reports["scalar_part"]["sup_norm"] == 10.0 and reports["scalar_part"]["pass"] is False
    assert reports["scalar_part"]["tolerance"] == reports["riccati"]["tolerance"] == 2.0
    assert reports["scalar_part"]["worst_point"][0] == 0.0
    assert reports["bivector_part"]["pass"] is True


def test_one_large_scale_sample_no_longer_loosens_every_other_sample(tmp_path, capsys):
    # |D f + f^2| = |3 e^(3 x1) + e^(6 x1)| is about 463 at x1 = 1 and 0.15 at x1 = -1. A tolerance
    # from the largest scale, 4.6e-7, let the violation of 1e-8 through at every sample; each
    # sample's own tolerance eps (1 + |D f + f^2|) rejects it where the scale is least
    config = {"n": 2, "fields": {"f": {"e1": "exp(3*x1)"}, "v": "0 - (3*exp(3*x1) + exp(6*x1)) + 1e-8"},
              "grid": {"samples_per_axis": 5}}
    code, out, _ = run_cli(capsys, "riccati-check", "--config", write_config(tmp_path, "c.json", config))
    assert code == 1
    report = load(out)["reports"][0]
    assert report["name"] == "riccati" and report["pass"] is False
    assert report["worst_point"][0] == -1.0
    assert report["tolerance"] == pytest.approx(1.1518e-9, rel=1e-4)
    assert report["sup_norm"] == pytest.approx(1.0e-8, rel=1e-5)
    # an explicit tol is the same at every sample: the report names the largest residual, as before
    candidate = RiccatiCandidate(ExprField(2, config["fields"]["f"]), ExprField.scalar(2, config["fields"]["v"]))
    report = riccati_residual(candidate, GridSpec.cube(2, samples_per_axis=5), tol=1e-7)
    assert report.passed and report.worst_point == (1.0, 1.0)
    assert report.tolerance == 1e-7 and report.samples_used == 25
    assert report.sup_norm == pytest.approx(1.0000007932831068e-08, rel=1e-9)
    assert report.rms == pytest.approx(1.0000000327804366e-08, rel=1e-9)


def test_suite_entries_count_the_samples_they_take(tmp_path, capsys):
    # the golden config: n = 3 and 5 rounds, so 2 rounds of each field family. A round of the closed
    # forms takes 2 points of each of 4 k-vector fields for each form, and 2 of phi; the algebra
    # takes the 6 anticommutators of each round, and the operators both compositions at 1 point
    config = {"n": 3, "rounds": 5, "seed": 11}
    code, out, _ = run_cli(capsys, "verify-identities", "--config", write_config(tmp_path, "c.json", config))
    assert code == 0
    counts = {r["name"]: r["samples_used"] for r in load(out)["reports"]}
    assert counts["closed_form/plus_minus"] == counts["closed_form/minus_plus"] == 16
    assert counts["closed_form/minus_plus_scalar"] == 4
    assert counts["algebra/anticommutation"] == 30
    assert counts["operator/square_matches_composition"] == 4
    assert counts["leibniz/scalar"] == 6 and counts["algebra/associativity"] == 5
    # a suite entry has the same four keys as before: its samples' fields are drawn at random, so it
    # names no point, nor an rms
    assert {key for r in load(out)["reports"] for key in r} == {"name", "sup_norm", "samples_used", "tolerance", "pass"}


def test_family_gap_below_dimension_three_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n": 2, "K_samples": [2.0], "grid": {"samples_per_axis": 3}})
    code, out, err = run_cli(capsys, "family-gap", "--config", cfg)
    assert code == 2 and out == ""
    assert err == "error: family-gap needs n >= 3\n"


@pytest.mark.parametrize("n", [0, 13, 10 ** 6])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_dimension_outside_the_algebra_is_config_error_before_any_work(tmp_path, capsys, command, n):
    # an unbounded n built lists of n entries and a 2**n blade mask first: at n = 10**7,
    # riccati-check took 34 s and 800 MB, then exited 2 with "grid too large"
    cfg = write_config(tmp_path, "c.json", {"n": n, "fields": {"f": "x1", "v": "0"}, "grid": {"samples_per_axis": 2}})
    code, out, err = run_cli(capsys, command, "--config", cfg)
    assert code == 2 and out == ""
    assert err == f"error: config key 'n' must be in 1..12, got {n}\n"


def test_blade_outside_the_dimension_names_the_field_and_the_blade(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n": 1, "fields": {"f": {"e4": "1"}, "v": "0"}})
    code, out, err = run_cli(capsys, "riccati-check", "--config", cfg)
    assert code == 2 and out == ""
    assert err == "error: field 'f': blade e4 does not fit in dimension 1\n"


LOG_IN_PHI = "check failed: log of non-positive real value -0.5, in subexpression 'log((x1 + 0.5))'\n"
# g's jets reach about 1e151 on the box, and the transported field's residual about 1e157
OVERFLOWING_CONCLUSION = {"n": 2, "k": 1, "lambda": 1.0,
                          "fields": {"f": {"e1": "0.6", "e2": "0.8"}, "g": {"e1": "exp(1000000*x1)"}},
                          "grid": {"box": [[0, 0.00032], [0, 1]], "samples_per_axis": 2}}


# A command checks everything in one pass over its grid, but the outcome is
# that of one sweep per check in order: the first check that raises or fails
# decides, whatever a later check meets at an earlier point.
@pytest.mark.parametrize("command, config, code, err", [
    # the Riccati precondition fails; the Schroedinger check and the split raise at the first point
    ("decompose", {"n": 2, "lambda": 1.0, "fields": {"f": {"e1": "1"}, "v": "0", "phi": "log(x1 + 0.5)"},
                   "grid": {"samples_per_axis": 3}},
     1, "check failed: f does not solve its Riccati equation (sup 1)\n"),
    # A reads f under the mode at every sample; its check comes after a raising precondition
    ("decompose", {"n": 3, "mode": "last_axis", "lambda": 1.0,
                   "fields": {"f": {"e3": "1"}, "v": "0 - 1", "phi": "log(x1 + 0.5)"},
                   "grid": {"samples_per_axis": 3}},
     1, LOG_IN_PHI),
    ("decompose", {"n": 3, "mode": "last_axis", "lambda": [0, 1.7320508075688772],
                   "fields": {"f": {"e3": "1"}, "v": "0 - 1", "phi": "exp(2*x1)"}, "grid": {"samples_per_axis": 3}},
     2, "error: last-axis mode needs a vanishing e3 component; got |1|\n"),
    # ... and after a failed one
    ("decompose", {"n": 3, "mode": "last_axis", "lambda": 1.0,
                   "fields": {"f": {"e3": "1"}, "v": "0", "phi": "exp(x1)"}, "grid": {"samples_per_axis": 3}},
     1, "check failed: f does not solve its Riccati equation (sup 1)\n"),
    # f = e1 - tan(x3) e3 solves D f + f^2 = 0, and its e3 part vanishes at the corners and the
    # centre but not at x3 = +/-pi/3: the mode fails there, before the squared-operator check does
    ("decompose", {"n": 3, "mode": "last_axis", "lambda": 1.0,
                   "fields": {"f": {"e1": "1", "e3": "0 - sin(x3)/cos(x3)"}, "v": "0", "phi": "cos(x1)"},
                   "grid": {"box": [[-math.pi, math.pi]] * 3, "samples_per_axis": 4}},
     2, "error: last-axis mode needs a vanishing e3 component; got |1.73|\n"),
    # v is not scalar, so the split raises at the first point; the full residual meets log's domain later
    ("riccati-check", {"n": 2, "fields": {"f": {"e1": "1"}, "v": {"1": "log(0.5 - x1)", "e1": "1"}},
                       "grid": {"samples_per_axis": 3}},
     1, "check failed: log of non-positive real value -0.5, in subexpression 'log((0.5 - x1))'\n"),
    # the eigen-equation fails before the conclusion, whose residual overflows
    ("darboux-kvector", OVERFLOWING_CONCLUSION,
     1, "check failed: input field fails its eigen-equation (sup 9.42e+150)\n"),
    # the masked grid's predicate meets log's domain at x1 = 1, after h's first check raised at x2 = -1
    ("euler-shift", {"n": 2, "fields": {"h": {"e1": "log(x2 + 0.5)"}, "v": "0", "phi": "log(0.5 - x1)"},
                     "grid": {"samples_per_axis": 3}},
     1, "check failed: log of non-positive real value -0.5, in subexpression 'log((x2 + 0.5))'\n"),
], ids=["decompose-riccati-fails", "decompose-precondition-raises-before-mode", "decompose-mode",
        "decompose-precondition-fails-before-mode", "decompose-mode-between-corners",
        "riccati-check-split", "darboux-kvector-eigen-fails", "euler-shift-mask"])
def test_first_check_in_order_decides(tmp_path, capsys, command, config, code, err):
    assert run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config)) == (code, "", err)


def test_a_residual_whose_square_overflows_fails_with_its_report(tmp_path, capsys):
    # with the tolerance raised, the preconditions pass; the conclusion's residual norm
    # is past the largest float, so it reads inf and fails
    config = {**OVERFLOWING_CONCLUSION, "tolerance": 1e100}
    code, out, err = run_cli(capsys, "darboux-kvector", "--config", write_config(tmp_path, "c.json", config))
    reports = load(out)["reports"]
    assert (code, err) == (1, "")
    assert [(r["name"], r["pass"]) for r in reports] == [
        ("precondition:scalar_potential", True), ("precondition:eigen_equation", True), ("conclusion", False)]
    assert reports[2]["sup_norm"] == "Infinity"


@pytest.mark.parametrize("command, config, fields, extra", [
    # f = D(phi)/phi for the harmonic phi = x1 + 2
    ("riccati-check", {"n": 2, "fields": {"f": {"e1": "1/(x1 + 2)"}, "v": "0"}, "grid": {"samples_per_axis": 3}},
     2, 0),
    # the report's center values of phi and f
    ("decompose", {"n": 2, "lambda": 0.8, "fields": {"f": {"e1": "1"}, "v": "0 - 1", "phi": "exp(0.6*x1)"},
                   "grid": {"samples_per_axis": 3}}, 3, 2),
    ("darboux-kvector", {"n": 4, "k": 2, "lambda": 0.8,
                         "fields": {"f": {"e1": "0.6", "e2": "0.8"},
                                    "g": {"e2^e3": "exp(0.3*x1 + 0.3*x2 + 0.3*x3 + 0.3*x4)",
                                          "e1^e4": "exp(0.78102496759066544*x3)*cos(0.5*x4)"}},
                         "grid": {"samples_per_axis": 2}}, 2, 0),
    # h, v and phi
    ("euler-shift", {"n": 3, "fields": {"h": {"e1": "1"}, "phi": "exp(0 - 2*x1) + 3", "v": "0 - 1"},
                     "grid": {"samples_per_axis": 3}}, 3, 0),
    # phi1, phi2 and v
    ("euler-combine", {"n": 3, "K": [2.0, 0.5], "fields": {"phi1": "x1", "phi2": "x2", "v": "0 - 1"},
                       "grid": {"samples_per_axis": 3}}, 3, 0),
    # phi1, phi2 and v = -1 on the full grid, then phi1 and phi2 once on each K's masked grid
    ("family-gap", {"n": 3, "K_samples": [2.0, [-3.0, 1.0], 0.5], "grid": {"samples_per_axis": 3}}, 9, 0),
])
def test_each_field_runs_once_per_sample(tmp_path, capsys, monkeypatch, command, config, fields, extra):
    runs = []
    original = Tape.run

    def counting(self, slots, p, order):
        runs.append(points_in(p))
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config))
    assert code == 0
    samples = load(out)["reports"][0]["samples_used"]
    assert sum(runs) <= fields * samples + extra


# Dirac derivatives per sample, when each shared term is one field read through its point cache
@pytest.mark.parametrize("command, config, per_sample, extra", [
    # H = (D - M^f) G, and w = +/-D(f) - f^2 shared by the three checks
    ("darboux-kvector", {"n": 4, "k": 2, "lambda": 0.8,
                         "fields": {"f": {"e1": "0.6", "e2": "0.8"},
                                    "g": {"e2^e3": "exp(0.3*x1 + 0.3*x2 + 0.3*x3 + 0.3*x4)",
                                          "e1^e4": "exp(0.78102496759066544*x3)*cos(0.5*x4)"}},
                         "grid": {"samples_per_axis": 2}}, 2, 0),
    # D f + f^2; A g, shared by g_plus, g_minus and the squared-operator check; A(A g); the two
    # membership residuals; and A g once more at the report's center
    ("decompose", {"n": 2, "lambda": 1.0, "fields": {"f": {"e1": "1"}, "phi": "1", "v": "0 - 1"},
                   "grid": {"samples_per_axis": 3}}, 5, 1),
    # w, shared by both preconditions, in place of D f + f^2
    ("decompose-dual", {"n": 2, "lambda": 1.0, "fields": {"f": {"e1": "1"}, "phi": "1"},
                        "grid": {"samples_per_axis": 3}}, 5, 1),
    # D(phi), shared by D(phi)/phi and the shift equation; D h + h^2; D f + f^2 of the shifted f
    ("euler-shift", {"n": 3, "fields": {"h": {"e1": "1"}, "phi": "exp(0 - 2*x1) + 3", "v": "0 - 1"},
                     "grid": {"samples_per_axis": 3}}, 3, 0),
    # h = (D - M^f) g; (D + M^f) h, shared by both checks; (D - M^f)(D + M^f) h
    ("darboux", {"n": 3, "lambda": [0.0, 1.7320508075688772], "fields": {"f": {"e1": "1"}, "g": "exp(2*x2)"},
                 "grid": {"samples_per_axis": 3}}, 3, 0),
    # D(phi1) and D(phi2), shared by the blend and the two gradient checks; D(D(phi1)) and D(D(phi2));
    # D f + f^2 of the blend
    ("euler-combine", {"n": 3, "K": [2.0, 0.5], "fields": {"phi1": "x1", "phi2": "x2", "v": "0 - 1"},
                       "grid": {"samples_per_axis": 3}}, 5, 0),
])
def test_each_shared_term_is_computed_once_per_sample(tmp_path, capsys, monkeypatch, command, config,
                                                      per_sample, extra):
    calls = []
    original = cliffcalc.fields.mv_dirac
    at = MultivectorField.at
    last = [1]  # the grid points of the point last read: mv_dirac works on jets read there

    def reading(self, p, order=0):
        p = tuple(p)
        last[0] = points_in(p)
        return at(self, p, order)

    def counting(mv):
        calls.append(last[0])
        return original(mv)

    monkeypatch.setattr(MultivectorField, "at", reading)
    # every module that binds mv_dirac, so a call is counted wherever it is made
    for module in [m for name, m in sys.modules.items() if name.startswith("cliffcalc") and hasattr(m, "mv_dirac")]:
        monkeypatch.setattr(module, "mv_dirac", counting)
    code, out, _ = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config))
    assert code == 0
    samples = load(out)["reports"][0]["samples_used"]
    assert sum(calls) <= per_sample * samples + extra


# (Tape.run, mv_dirac, _factor_jet) calls of one invocation on each golden config: ceilings that a
# change may lower but not raise. _factor_jet is the last step of every factor D +/- M^f applied,
# D g +/- g f. A call on a chunk of grid points counts once; every golden grid (at most 64
# points) is one chunk. euler-combine, euler-shift and family-gap evaluate each field once
# per chunk, their mask predicates and family-gap's distance for each K included.
# verify-identities evaluates the points of each random field of its Leibniz rules and closed
# forms together, so a call there also covers several points.
GOLDEN_CALLS = {
    "darboux": (2, 3, 3),
    "darboux-bivector": (2, 2, 1),
    "darboux-bivector-nonconstant-f": (2, 2, 1),
    "darboux-bivector-precondition": (2, 2, 1),
    "darboux-kvector": (2, 2, 1),
    "darboux-vector": (3, 2, 1),
    "darboux-vector-nonconstant-f": (3, 2, 1),
    "decompose": (5, 6, 5),
    "decompose-dual": (4, 6, 5),
    "decompose-nonconstant-f": (5, 6, 5),
    "decompose-precondition": (3, 5, 4),
    "euler-combine": (3, 5, 0),
    "euler-shift": (3, 3, 0),
    "family-gap": (3, 5, 0),
    "riccati-check": (2, 1, 0),
    "riccati-separable": (18, 1, 0),
    "verify-identities": (44, 80, 52),
}


def test_family_gap_reads_its_gradient_inputs_once_per_point(monkeypatch):
    # every K's distance reads the jets of phi1 = x1 and phi2 = x2 that the gradient checks
    # computed, in the same sweep: on the golden grid (27 points, one chunk) and at 6 samples
    # per axis (216 points, two chunks), where a pass per K, each making its chunks anew,
    # covered 648 points, 3 passes x 216
    covered = {}
    original = Tape.run

    def counting(self, slots, p, order):
        key = tuple(self.nodes)
        covered[key] = covered.get(key, 0) + points_in(p)
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    case = json.loads((GOLDEN_CASES[0].parent / "family-gap.json").read_text())
    for samples in (3, 6):
        covered.clear()
        case["config"]["grid"]["samples_per_axis"] = samples
        assert run_case(case)["exit_code"] == case["exit_code"] == 0
        assert covered[(("x", 0, None),)] == covered[(("x", 1, None),)] == samples ** 3


def grid_darboux_full(monkeypatch):
    """The grid-darboux benchmark case at FULL size: 3 samples per axis in 4 dimensions."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    case, = workloads.build("grid-darboux", 1, workloads.FULL)
    return {"command": case.command, "config": case.config}


def test_benchmark_grid_is_one_chunk(monkeypatch):
    case = grid_darboux_full(monkeypatch)
    runs = []
    original = Tape.run

    def counting(self, slots, p, order):
        runs.append(points_in(p))
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    assert run_case(case)["exit_code"] == 0
    assert runs and all(points == 81 for points in runs)


# the Batch operations that each make one pass over the points of a chunk
BATCH_PASSES = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__pow__", "__neg__")


def test_benchmark_grid_makes_no_pass_for_an_exact_identity(monkeypatch):
    # 759 passes when derivatives multiplied by the exponent 1, a jet subtracted by adding the
    # negation and [e_j G]_t negated G's coefficients before the product; each is exact without
    # its pass, and 394 are left, so a pass that comes back for an identity fails here
    case = grid_darboux_full(monkeypatch)
    passes = []
    for name in BATCH_PASSES:
        def counted(self, *other, _op=getattr(Batch, name)):
            result = _op(self, *other)
            if result is not NotImplemented:
                passes.append(len(self))
            return result

        monkeypatch.setattr(Batch, name, counted)
    assert run_case(case)["exit_code"] == 0
    assert set(passes) == {81} and len(passes) <= 394


def test_verify_identities_reads_each_field_once_per_drawn_point(monkeypatch):
    # n = 3 and 5 rounds give 2 rounds of each field family. Each round reads: in the Leibniz
    # rules phi at 3 points, f at 3 points for phi and for each of the 4 gk, and each gk at its
    # 3 points (30); in the closed forms f at 2 points for each gk and for phi, each gk and phi
    # at 2 points (20); in the operator identities f and g at 1 point (2). Point by point this
    # was 104 tape runs of one point each; batched, the points covered stay 104.
    covered = {}  # tape -> the points it was run at
    original = Tape.run

    def counting(self, slots, p, order):
        covered.setdefault(self, []).extend(points_of(p))
        return original(self, slots, p, order)

    monkeypatch.setattr(Tape, "run", counting)
    case = json.loads((GOLDEN_CASES[0].parent / "verify-identities.json").read_text())
    assert run_case(case)["exit_code"] == case["exit_code"] == 0
    assert all(len(set(points)) == len(points) for points in covered.values())
    assert sum(len(points) for points in covered.values()) == 2 * (30 + 20 + 2) == 104


def golden_call_counts(monkeypatch, path, functions=(("mv_dirac", cliffcalc.fields.mv_dirac),
                                                   ("_factor_jet", darboux._factor_jet))):
    """The calls of Tape.run and of each (name, function) in functions, by name, in the golden case at path."""
    counts = {"Tape.run": 0, **{name: 0 for name, _ in functions}}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(Tape, "run", counting("Tape.run", Tape.run))
    # every binding in the package, so a call is counted wherever it is made; fields keep the
    # functions they are built with, and the invocation below builds them after this
    for name, original in functions:
        counted = counting(name, original)
        for module in [m for key, m in sys.modules.items() if key.startswith("cliffcalc") and m is not None]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    case = json.loads(path.read_text())
    assert run_case(case)["exit_code"] == case["exit_code"]
    return counts


@pytest.mark.parametrize("path", GOLDEN_CASES, ids=[p.stem for p in GOLDEN_CASES])
def test_golden_call_counts_stay_within_their_ceilings(monkeypatch, path):
    counts = golden_call_counts(monkeypatch, path)
    ceiling = dict(zip(counts, GOLDEN_CALLS[path.stem]))
    assert all(counts[name] <= ceiling[name] for name in counts), (counts, ceiling)


# the drift sum takes each d_j(f) once per node, n at each of two nodes; the Laplacian takes no mv_partial
PARTIAL_CALLS = {"darboux-kvector": 8, "darboux-bivector-nonconstant-f": 6}


@pytest.mark.parametrize("name", sorted(PARTIAL_CALLS))
def test_drift_takes_each_partial_of_f_once(monkeypatch, name):
    path = GOLDEN_CASES[0].parent / f"{name}.json"
    counts = golden_call_counts(monkeypatch, path, [("mv_partial", cliffcalc.fields.mv_partial)])
    assert counts["mv_partial"] == PARTIAL_CALLS[name]


def test_golden_call_counts_reach_every_counted_function(monkeypatch):
    # a ceiling on a function that no invocation calls any more would hold at 0 calls
    counts = golden_call_counts(monkeypatch, GOLDEN_CASES[0].parent / "darboux.json")
    assert all(counts.values()), counts
