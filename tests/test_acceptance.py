"""Final acceptance battery.

Each test prints one pass/fail line for its criterion (visible with -s) and
asserts every underlying check at its stated tolerance.  The battery itself
is shared with the `all` subcommand, so these tests and the command line
report the same numbers.
"""

import json
import subprocess
import sys

import pytest

from qclimit import cli


@pytest.fixture(scope="module")
def battery():
    grouped, timings, _ = cli.run_battery(seed=7)
    return grouped, timings


def _assert_criterion(battery, number):
    grouped, timings = battery
    label = cli.CRITERION_RUNNERS[number][0]
    records = grouped[number]
    ok = all(r.passed for r in records)
    print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    for r in records:
        assert r.passed, (
            f"{r.check_id}: measured={r.measured!r} predicted={r.predicted!r} "
            f"abs_err={r.abs_err!r} tolerance={r.tolerance!r}"
        )
    return timings[number]


def test_criterion_01_algebra_axioms(battery):
    elapsed = _assert_criterion(battery, 1)
    assert elapsed < 1.0


def test_criterion_02_contraction_limit(battery):
    _assert_criterion(battery, 2)


def test_criterion_03_group_law(battery):
    elapsed = _assert_criterion(battery, 3)
    assert elapsed < 5.0


def test_criterion_04_overlap_formula(battery):
    _assert_criterion(battery, 4)


def test_criterion_05_matrix_elements(battery):
    _assert_criterion(battery, 5)


def test_criterion_06_factorization_consistency(battery):
    _assert_criterion(battery, 6)


def test_criterion_07_operator_realization(battery):
    _assert_criterion(battery, 7)


def test_criterion_08_contraction_sweep(battery):
    elapsed = _assert_criterion(battery, 8)
    assert elapsed < 60.0


def test_criterion_09_eigenvalue_emergence(battery):
    _assert_criterion(battery, 9)
    grouped, _ = battery
    localization = [r for r in grouped[9] if r.check_id == "C09.localization"]
    assert len(localization) == 1
    assert 0.0 <= localization[0].measured <= 1e-9


def test_criterion_10_star_algebra(battery):
    _assert_criterion(battery, 10)


def test_criterion_11_projective_flow(battery):
    _assert_criterion(battery, 11)


def test_criterion_12_determinism(battery, tmp_path):
    _assert_criterion(battery, 12)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        result = subprocess.run(
            [sys.executable, "-m", "qclimit", "--out", str(d), "--seed", "7", "all"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
    text_a = (dirs[0] / "all_report.json").read_text()
    text_b = (dirs[1] / "all_report.json").read_text()
    assert cli.comparable_payload(text_a) == cli.comparable_payload(text_b)
    csv_a = (dirs[0] / "contract_sweep.csv").read_bytes()
    csv_b = (dirs[1] / "contract_sweep.csv").read_bytes()
    assert csv_a == csv_b


def test_battery_groups_records_by_criterion(battery):
    grouped, timings = battery
    assert list(grouped) == list(timings) == list(range(1, 13))
    for number, records in grouped.items():
        assert records
        assert all(r.check_id.startswith(f"C{number:02d}.") for r in records)


def test_battery_report_writes_pass_as_json_bool(battery):
    grouped, _ = battery
    records = [r for number in sorted(grouped) for r in grouped[number]]
    manifest = cli.build_manifest("all", {"seed": 7}, 7, timestamp="")
    report = json.loads(cli.serialize_report(cli.build_report(manifest, records)))
    assert len(report["checks"]) == len(records)
    for check in report["checks"]:
        assert isinstance(check["pass"], bool), check["check_id"]
