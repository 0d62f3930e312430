import json
import math

import numpy as np
import pytest

from qclimit import cli, contraction_lab


def run_cli(tmp_path, *argv):
    code = cli.main(["--out", str(tmp_path), *argv])
    reports = sorted(tmp_path.glob("*_report.json"))
    assert len(reports) == 1
    return code, json.loads(reports[0].read_text())


def check_by_id(report, check_id):
    matches = [c for c in report["checks"] if c["check_id"] == check_id]
    assert len(matches) == 1
    return matches[0]


def test_report_schema_and_summary(tmp_path):
    code, report = run_cli(tmp_path, "algebra-verify", "--builtin", "HR3")
    assert code == 0
    assert set(report) == {"manifest", "checks", "summary"}
    manifest = report["manifest"]
    assert manifest["command"] == "algebra-verify"
    assert manifest["seed"] == 7
    assert manifest["input_digests"] == {}
    for check in report["checks"]:
        assert list(check) == [
            "check_id",
            "law",
            "measured",
            "predicted",
            "abs_err",
            "pass",
            "tolerance",
        ]
        assert check["pass"] == (check["abs_err"] <= check["tolerance"])
    assert report["summary"]["total"] == len(report["checks"])
    assert report["summary"]["failed"] == 0


def test_algebra_verify_extended_table(tmp_path):
    code, report = run_cli(
        tmp_path, "algebra-verify", "--builtin", "HR3_with_H", "--eps", "0,0.25,1"
    )
    assert code == 0
    assert check_by_id(report, "jacobi")["measured"] <= 1e-12


def test_algebra_contract_reports_central_coefficient(tmp_path):
    code, report = run_cli(tmp_path, "algebra-contract", "--k", "8")
    assert code == 0
    rec = check_by_id(report, "central-coefficient-at-k")
    assert np.isclose(rec["predicted"], 1.0 / 64.0)
    assert rec["pass"]
    assert check_by_id(report, "C02.center-absent")["measured"] == 0.0


def test_coset_compose_both_kinds(tmp_path):
    code, report = run_cli(tmp_path, "coset-compose", "--samples", "80")
    assert code == 0
    assert check_by_id(report, "pinned-phase-shift")["measured"] == 0.5
    code, report = run_cli(tmp_path, "coset-compose", "--kind", "config", "--samples", "40")
    assert code == 0
    assert check_by_id(report, "pinned-config-cross-term")["measured"] == 1.0


def test_coherent_overlap_fock_backend(tmp_path):
    code, report = run_cli(tmp_path, "coherent-overlap", "--modes", "3")
    assert code == 0
    spot = check_by_id(report, "spot-value")
    assert np.isclose(spot["predicted"], math.exp(-1.0))
    assert check_by_id(report, "far-corner-relative")["measured"] < 1e-8
    assert check_by_id(report, "three-mode-sample")["pass"]


def test_coherent_overlap_grid_backend(tmp_path):
    code, report = run_cli(tmp_path, "coherent-overlap", "--backend", "grid")
    assert code == 0
    assert check_by_id(report, "grid-vs-closed-form")["measured"] < 1e-9
    assert check_by_id(report, "backend-cross-validation")["measured"] < 1e-7


def test_coherent_overlap_guard_sets_error_exit(tmp_path):
    code = cli.main(["--out", str(tmp_path), "coherent-overlap", "--cutoff", "4"])
    assert code == 1
    report = json.loads((tmp_path / "coherent_overlap_report.json").read_text())
    assert "error" in report
    assert report["summary"]["failed"] == 1


def test_contract_sweep_pinned_example(tmp_path):
    code, report = run_cli(tmp_path, "contract-sweep", "--pair", "dx=1,dp=0", "--k", "1,2,4")
    assert code == 0
    rows = list((tmp_path / "contract_sweep.csv").read_text().splitlines())
    assert rows[0] == ",".join(contraction_lab.CSV_COLUMNS)
    assert len(rows) == 4
    predicted = [float(r.split(",")[5]) for r in rows[1:]]
    assert np.allclose(predicted, [math.exp(-0.25), math.exp(-1.0), math.exp(-4.0)])
    slope = check_by_id(report, "decay-slope")
    assert abs(slope["measured"] + 0.25) < 0.0025


def test_star_bracket_prints_exact_correction(tmp_path, capsys):
    code, report = run_cli(tmp_path, "star-bracket", "--hbar", "1/10")
    out = capsys.readouterr().out
    assert code == 0
    assert "-3/2*hbar^2 + 9*x^2*p^2" in out
    assert "-3/200 + 9*x^2*p^2" in out
    assert check_by_id(report, "cubic-correction-coefficient")["measured"] == -1.5


def test_star_limit_sweep_slope(tmp_path):
    code, report = run_cli(tmp_path, "star-limit-sweep")
    assert code == 0
    assert abs(check_by_id(report, "limit-slope")["measured"] - 2.0) < 1e-6


def test_star_limit_sweep_quadratic_pair_empty_report(tmp_path):
    code, report = run_cli(tmp_path, "star-limit-sweep", "--f", "x^2+p^2", "--g", "x*p")
    assert code == 0
    assert report["checks"] == []
    assert report["summary"] == {"total": 0, "passed": 0, "failed": 0}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("star-limit-sweep", "--hbar", "0,0.1"), "0 is not a finite positive value"),
        (("star-limit-sweep", "--hbar", "nan,1e-2,1e-3"), "nan is not a finite positive value"),
        (("star-limit-sweep", "--hbar", "1e-2,inf"), "inf is not a finite positive value"),
        (("star-limit-sweep", "--hbar", "1e-2,x"), "'1e-2,x' is not a comma-separated list of numbers"),
        (("star-bracket", "--hbar", "1/0"), "'1/0' is not an exact finite rational"),
        (("star-bracket", "--hbar", "nan"), "'nan' is not an exact finite rational"),
        (("star-bracket", "--hbar=-1/2"), "-1/2 is not positive"),
        (("star-bracket", "--hbar", "0"), "0 is not positive"),
    ],
)
def test_star_hbar_rejected_at_parser(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --hbar: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))


def test_flow_check_short_run(tmp_path):
    code, report = run_cli(tmp_path, "flow-check", "--t-final", "2.0")
    assert code == 0
    assert check_by_id(report, "route-deviation")["measured"] < 1e-6
    assert check_by_id(report, "norm-drift")["measured"] < 1e-8


def test_same_seed_reports_are_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cli.main(["--out", str(dir_a), "coset-compose", "--seed", "11"]) == 0
    assert cli.main(["--out", str(dir_b), "coset-compose", "--seed", "11"]) == 0
    text_a = (dir_a / "coset_compose_report.json").read_text()
    text_b = (dir_b / "coset_compose_report.json").read_text()
    assert cli.comparable_payload(text_a) == cli.comparable_payload(text_b)


def test_different_seed_changes_measured_values(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    cli.main(["--out", str(dir_a), "coset-compose", "--seed", "1"])
    cli.main(["--out", str(dir_b), "coset-compose", "--seed", "2"])
    rec_a = json.loads((dir_a / "coset_compose_report.json").read_text())
    rec_b = json.loads((dir_b / "coset_compose_report.json").read_text())
    val_a = check_by_id(rec_a, "compose-vs-closed-form")["measured"]
    val_b = check_by_id(rec_b, "compose-vs-closed-form")["measured"]
    assert val_a != val_b


def test_serializer_writes_full_precision_floats():
    record = cli.CheckRecord("c", "plumbing", 1.0 / 3.0, 0.0, 1.0)
    manifest = cli.build_manifest("x", {}, 7, timestamp="t")
    text = cli.serialize_report(cli.build_report(manifest, [record]))
    assert "0.33333333333333331" in text
    parsed = json.loads(text)
    assert parsed["checks"][0]["measured"] == 1.0 / 3.0


def test_pair_argument_parser():
    assert cli._parse_pair("dx=1,dp=0") == ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert cli._parse_pair("dx=0.5,dp=2") == ((0.0, 0.0, 0.0), (2.0, 0.5, 0.0))
