import ast
import dataclasses
import importlib
import json
import math
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    code, report = run_cli(tmp_path, "algebra-verify", "--builtin", "HR3_with_H")
    assert code == 0
    assert check_by_id(report, "jacobi")["measured"] <= 1e-12


def test_jacobi_per_power_checks_the_rescaled_family(tmp_path, monkeypatch):
    """One rotation bracket of the rescaled table moved to eps^1 breaks Jacobi
    at finite k; `jacobi` checks the eps-free base table and still passes."""
    family = cli.lie_core.standard_contraction_family("HR3")
    scaled = family.rescaled
    moved = {(scaled.index("J23"), scaled.index("X2")), (scaled.index("X2"), scaled.index("J23"))}
    family.rescaled = dataclasses.replace(
        scaled,
        entries={
            pair: tuple((t, c, Fraction(1)) for t, c, _ in terms) if pair in moved else terms
            for pair, terms in scaled.entries.items()
        },
    )
    monkeypatch.setattr(cli.lie_core, "standard_contraction_family", lambda name: family)
    code, report = run_cli(tmp_path, "algebra-verify")
    assert code == 1
    assert check_by_id(report, "jacobi")["pass"]
    assert not check_by_id(report, "jacobi-per-power")["pass"]


def test_algebra_contract_reports_central_coefficient(tmp_path):
    code, report = run_cli(tmp_path, "algebra-contract", "--k", "8")
    assert code == 0
    rec = check_by_id(report, "central-coefficient-at-k")
    assert np.isclose(rec["predicted"], 1.0 / 64.0)
    assert rec["pass"]
    assert check_by_id(report, "C02.center-absent")["measured"] == 0.0


def test_algebra_contract_rejects_k_below_one(tmp_path, capsys):
    # k < 1 has no contraction: the parser rejects it, exit 2 and no report
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "algebra-contract", "--k", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --k: 0.5 is not a finite value >= 1" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))


def test_coset_compose_both_kinds(tmp_path):
    code, report = run_cli(tmp_path, "coset-compose", "--samples", "80")
    assert code == 0
    assert check_by_id(report, "pinned-phase-shift")["measured"] == 0.5
    code, report = run_cli(tmp_path, "coset-compose", "--kind", "config", "--samples", "40")
    assert code == 0
    assert check_by_id(report, "pinned-config-cross-term")["measured"] == 1.0


def _old_group_law_max(rng, kind, samples):
    """The per-pair loop the stacked check replaced, with its per-label builder
    and composition formula copied here so that it shares no code with it."""

    def element(w):
        p, x, theta = w
        if kind == "phase":
            m = np.eye(8)
            m[0:3, 7], m[3:6, 7], m[6, 7] = p, x, theta
            m[6, 0:3] = -0.5 * x @ np.eye(3)
            m[6, 3:6] = 0.5 * p @ np.eye(3)
        else:
            m = np.eye(5)
            m[0:3, 4], m[3, 4] = x, theta
            m[3, 0:3] = p @ np.eye(3)
        return m

    errors = []
    for _ in range(samples):
        w1 = (rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        w2 = (rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), rng.uniform(-np.pi, np.pi))
        (p1, x1, t1), (p2, x2, t2) = w1, w2
        if kind == "phase":
            theta = t1 + t2 - 0.5 * (x1 @ p2 - p1 @ x2)
        else:
            theta = t1 + t2 + p1 @ x2
        closed = element((p1 + p2, x1 + x2, theta))
        errors.append(float(np.abs(element(w1) @ element(w2) - closed).max()))
    return max(errors)


@pytest.mark.parametrize("kind", ["phase", "config"])
@pytest.mark.parametrize("seed, samples", [(3, 200), (19, 257), (2024, 400), (12345, 1000)])
def test_group_law_check_equals_per_pair_loop(kind, seed, samples):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _old_group_law_max(old_rng, kind, samples)
    (record,) = cli.group_law_check(new_rng, kind, samples, "law")
    assert record.measured == want
    assert record.passed and record.measured > 0.0
    # the single draw leaves the generator where the per-pair draws did
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert new_rng.random() == old_rng.random()


def test_group_law_draw_matches_interleaved_uniform_calls():
    old_rng, new_rng = np.random.default_rng(99), np.random.default_rng(99)
    interleaved = []
    for _ in range(300):
        for _ in range(2):
            interleaved += [*old_rng.uniform(-2, 2, 3), *old_rng.uniform(-2, 2, 3), old_rng.uniform(-np.pi, np.pi)]
    u = cli._PAIR_LOW + (cli._PAIR_HIGH - cli._PAIR_LOW) * new_rng.random((300, 14))
    np.testing.assert_array_equal(u.ravel(), interleaved)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


class _NanRng:
    """Stands in for a Generator: uniform draws with one NaN label entry."""

    def random(self, shape):
        u = np.full(shape, 0.25)
        u[shape[0] // 2, 10] = math.nan
        return u


@pytest.mark.parametrize("kind", ["phase", "config"])
def test_group_law_check_fails_on_a_nan_label(kind):
    (record,) = cli.group_law_check(_NanRng(), kind, 8, "law")
    assert math.isnan(record.measured)
    assert not record.passed


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--grid-extent", "5"), "--grid-extent"),
        (("--backend", "fock", "--grid-points", "8"), "--grid-points"),
        (("--grid-points", "160", "--grid-extent", "10"), "--grid-extent"),
    ],
)
def test_coherent_overlap_fock_backend_rejects_grid_options(tmp_path, capsys, argv, flag):
    # the fock backend reads no grid, so a grid option there would only be claimed in the manifest
    code, report = run_cli(tmp_path, "coherent-overlap", *argv)
    assert code == 1
    assert report["error"] == f"ValueError: {flag} needs --backend grid: the fock backend has no grid"
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "Traceback" not in capsys.readouterr().err


def test_coherent_overlap_manifest_records_only_the_grid_used(tmp_path):
    code, report = run_cli(tmp_path / "fock", "coherent-overlap")
    assert code == 0
    assert report["manifest"]["parameters"] == {"backend": "fock", "cutoff": 64, "modes": 1, "seed": 7}
    code, report = run_cli(tmp_path / "grid", "coherent-overlap", "--backend", "grid")
    assert code == 0
    assert report["manifest"]["parameters"]["grid_extent"] == 10.0
    assert report["manifest"]["parameters"]["grid_points"] == 160
    code, report = run_cli(tmp_path / "grid8", "coherent-overlap", "--backend", "grid", "--grid-points", "8")
    assert (report["manifest"]["parameters"]["grid_extent"], report["manifest"]["parameters"]["grid_points"]) == (10.0, 8)


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


@pytest.mark.parametrize(
    "k, check_ids",
    [
        # k = 6 and 8 have Fock records, but none at k <= 4
        ("6,8", ["closed-form-decay", "decay-slope"]),
        # one k value: nothing to fit a slope to
        ("2", ["closed-form-decay", "fock-decay"]),
        ("1,2,4", ["closed-form-decay", "fock-decay", "decay-slope"]),
        # k = 40 needs cutoff 6400 > 4096: one Fock record, so the slope is fitted on the closed form
        ("1,40", ["closed-form-decay", "fock-decay", "decay-slope"]),
    ],
)
def test_contract_sweep_checks_follow_the_sweep_records(tmp_path, k, check_ids):
    code, report = run_cli(tmp_path, "contract-sweep", "--k", k)
    assert code == 0
    assert [c["check_id"] for c in report["checks"]] == check_ids
    assert all(c["pass"] for c in report["checks"])
    if "decay-slope" in check_ids:
        # the default pair has unit separation: the C08 prediction, bit for bit
        slope = check_by_id(report, "decay-slope")
        assert (slope["predicted"], slope["tolerance"]) == (-0.25, 0.0025)


def test_overlap_errors_equal_the_per_pair_loop():
    space = cli.hilbert.build_fock_space(1, 64)
    old_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = []
    for _ in range(50):
        p1, x1, p2, x2 = old_rng.uniform(-2, 2, size=4)
        got = cli.hilbert.overlap(cli.hilbert.coherent_state(space, p1, x1), cli.hilbert.coherent_state(space, p2, x2))
        want.append(abs(got - cli.hilbert.coherent_overlap_formula(p1, x1, 0.0, p2, x2, 0.0)))
    labels = new_rng.uniform(-2, 2, size=(50, 4))
    assert cli._overlap_errors(labels, space) == want
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# each law's one check function, and the subcommand that shares it with `all`
LAW_CHECKS = [
    (cli, "algebra_axiom_check", ("algebra-verify",)),
    (cli, "overlap_spot_check", ("coherent-overlap",)),
    (cli, "decay_law_check", ("contract-sweep",)),
    (cli.star_product, "canonical_commutator_check", ("star-bracket",)),
    (cli, "classical_limit_check", ("star-limit-sweep",)),
    (cli, "cubic_correction_check", ("star-bracket",)),
    (cli, "group_law_check", ("coset-compose",)),
    (cli, "flow_law_check", ("flow-check", "--t-final", "2.0")),
]


def test_each_law_has_one_implementation(tmp_path, monkeypatch):
    calls = {}
    for module, name, _ in LAW_CHECKS:

        def counted(*args, _check=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def run(*argv):
        calls.update((name, 0) for _, name, _ in LAW_CHECKS)
        assert cli.main(["--out", str(tmp_path), "--seed", "7", *argv]) == 0
        return dict(calls)

    battery = run("all")
    assert all(battery.values()), battery
    for _, name, argv in LAW_CHECKS:
        assert run(*argv)[name] >= 1, argv


# definitions that share a bare name, each checked by hand to be reached
SHARED_NAMES = {("hilbert.FockSpace.dim", "hilbert.OffsetOperator.dim")}


def _names(nodes) -> set:
    """Every identifier and attribute name read in the given syntax trees."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_src_has_no_test_only_code(monkeypatch):
    """Every top-level function and class, and every non-dunder method, in
    src/qclimit is reached from the package's module-level code or from the
    benchmark (its scripts and its TRACED table), following names through the
    definitions reached; code that only a test reaches belongs in that test.
    Names are matched bare, so a method that shares its name with a reached
    one would pass either way: definitions that share a name fail unless they
    are on SHARED_NAMES."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    traced = importlib.import_module("layers").TRACED
    live = {part for names in traced.values() for name in names for part in name.split(".")}
    live |= _names(
        ast.parse(path.read_text()) for path in (root / "perfbench").glob("*.py") if path.name != "test_perfbench.py"
    )
    # (qualified name, name, the trees it reads once it is reached); a class
    # reads its bases, decorators, fields and dunder methods
    defs = []
    for path in sorted((root / "src" / "qclimit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, [node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
                rest = [*node.bases, *node.decorator_list, *(m for m in node.body if m not in methods)]
                defs.append((f"{path.stem}.{node.name}", node.name, rest))
                defs += [(f"{path.stem}.{node.name}.{m.name}", m.name, [m]) for m in methods]
            else:
                live |= _names([node])
    by_name = {}
    for qualified, name, _ in defs:
        by_name.setdefault(name, []).append(qualified)
    shared = {tuple(group) for group in by_name.values() if len(group) > 1} - SHARED_NAMES
    assert not shared, f"definitions sharing a bare name, so the guard cannot tell them apart: {sorted(shared)}"
    reached = set()
    while new := [d for d in defs if d[1] in live and d[0] not in reached]:
        for qualified, _, trees in new:
            reached.add(qualified)
            live |= _names(trees)
    unreached = [qualified for qualified, _, _ in defs if qualified not in reached]
    assert unreached == [], f"reached only from tests: {unreached}"


# the underscore names that one src/qclimit module may read from another, as (reader, owner, name)
SHARED_PRIVATE_NAMES = {("hilbert", "lie_core", "_DUAL_PAIR")}


def test_src_modules_read_no_private_name_of_another():
    """No src/qclimit module reads another's underscore name, by `from
    qclimit.<owner> import _name` or as `<owner>._name`, apart from
    SHARED_PRIVATE_NAMES, each of which is still read: a law that needs
    another module's internals belongs in that module."""
    root = Path(__file__).resolve().parents[1] / "src" / "qclimit"
    modules = {path.stem for path in root.glob("*.py")}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    reads = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qclimit."):
                owner = node.module.partition(".")[2]
                reads |= {(path.stem, owner, alias.name) for alias in node.names if private(alias.name)}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and node.value.id != path.stem and private(node.attr):
                    reads.add((path.stem, node.value.id, node.attr))
    assert sorted(reads) == sorted(SHARED_PRIVATE_NAMES)


def test_star_product_imports_no_fock_code():
    """The exact star-product engine stands alone: a fresh interpreter that
    imports qclimit.star_product loads no other qclimit module."""
    probe = "import sys, qclimit.star_product; print(sorted(m for m in sys.modules if m.startswith('qclimit')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['qclimit', 'qclimit.star_product']"


def test_readme_commands_parse():
    """Every `qclimit ...` line of the README's command-line block parses, so
    the README cannot advertise an option the parser lacks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qclimit ")]
    assert commands
    for argv in commands:
        cli.make_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv, low, high",
    [
        (("coset-compose", "--samples"), 1, 100000),
        (("coherent-overlap", "--backend", "grid", "--grid-points"), 8, 65536),
    ],
)
def test_size_bounds_at_both_edges(capsys, argv, low, high):
    parser = cli.make_parser()
    option = argv[-1].lstrip("-").replace("-", "_")
    for value in (low, high):
        assert getattr(parser.parse_args([*argv, str(value)]), option) == value
    for value in (low - 1, high + 1):
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, str(value)])
        assert f"argument {argv[-1]}: {value} is not an integer in [{low}, {high}]" in capsys.readouterr().err


def test_odd_grid_points_fail_in_the_grid_space(tmp_path, capsys):
    code, report = run_cli(tmp_path, "coherent-overlap", "--backend", "grid", "--grid-points", "161")
    assert code == 1
    assert report["error"] == "ValueError: points must be even and >= 8"
    assert "Traceback" not in capsys.readouterr().err


def test_star_bracket_prints_exact_correction(tmp_path, capsys):
    code, report = run_cli(tmp_path, "star-bracket", "--hbar", "1/10")
    out = capsys.readouterr().out
    assert code == 0
    assert "-3/2*hbar^2 + 9*x^2*p^2" in out
    assert "-3/200 + 9*x^2*p^2" in out
    assert check_by_id(report, "cubic-correction-coefficient")["measured"] == -1.5
    # filed under the law name C01 uses for the same axiom
    assert check_by_id(report, "bracket-antisymmetry-exact")["law"] == "bracket-antisymmetry"


def test_star_bracket_keys_the_cubic_check_on_the_parsed_polynomials(tmp_path):
    # x**3 and p*p*p parse to x^3 and p^3, so the cubic correction is checked too
    code, report = run_cli(tmp_path, "star-bracket", "--f", "x**3", "--g", "p*p*p")
    assert code == 0
    assert check_by_id(report, "cubic-correction-coefficient")["measured"] == -1.5
    code, report = run_cli(tmp_path, "star-bracket", "--f", "x^3 + 1", "--g", "p^3")
    assert code == 0
    assert "cubic-correction-coefficient" not in [c["check_id"] for c in report["checks"]]


def test_star_limit_sweep_slope(tmp_path):
    code, report = run_cli(tmp_path, "star-limit-sweep")
    assert code == 0
    assert abs(check_by_id(report, "limit-slope")["measured"] - 2.0) < 1e-6


def test_star_limit_sweep_quadratic_pair_reports_exact_limit(tmp_path):
    # every deviation is exactly 0: no slope to fit, one exact check instead
    code, report = run_cli(tmp_path, "star-limit-sweep", "--f", "x^2+p^2", "--g", "x*p")
    assert code == 0
    assert [c["check_id"] for c in report["checks"]] == ["limit-exact"]
    exact = check_by_id(report, "limit-exact")
    assert (exact["measured"], exact["tolerance"], exact["pass"]) == (0.0, 0.0, True)


def test_star_limit_sweep_refuses_a_correction_lost_in_rounding(tmp_path, capsys):
    # {x^4, p^4} = 16 x^3 p^3 - 24 x p hbar^2: every float deviation reads 0, yet the limit is not exact
    code, report = run_cli(tmp_path, "star-limit-sweep", "--f", "x^4", "--g", "p^4", "--hbar", "1e-30,1e-20")
    assert code == 1
    assert report["error"].startswith("ValueError: need a nonzero bracket deviation at two or more distinct hbar")
    assert [c["check_id"] for c in report["checks"]] == ["diagnostic"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("hbar", ["0.1", "0.1,0.1"])
def test_star_limit_sweep_without_two_distinct_hbar_fails(tmp_path, capsys, hbar):
    code, report = run_cli(tmp_path, "star-limit-sweep", "--hbar", hbar)
    assert code == 1
    assert report["error"].startswith("ValueError: need a nonzero bracket deviation at two or more distinct hbar")
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        # the limit slope 2 holds only for hbar-free polynomials
        (("star-limit-sweep", "--f", "hbar*x^3", "--g", "p^3"), "ValueError: --f: the polynomial contains hbar"),
        (("star-limit-sweep", "--g", "p^3 + hbar^2*x"), "ValueError: --g: the polynomial contains hbar"),
        # the grid backend is 1D: --modes 3 would report no three-mode check
        (("coherent-overlap", "--backend", "grid", "--modes", "3"), "ValueError: --modes 3 needs --backend fock"),
        # polynomial text is walked, never run, and its degree is bounded before expansion;
        # the error names the flag and quotes at most the head of a long text or segment
        *(
            ((command, flag, text), f"ValueError: {flag}: cannot parse")
            for command in ["star-bracket", "star-limit-sweep"]
            for flag, text in [
                ("--f", "__import__('os').getpid()*x"),
                ("--f", "x.real"),
                ("--g", "(lambda: x)()"),
                ("--g", "y*x"),
                ("--f", "x^1000000"),
                ("--g", "x^(10^6)"),
                ("--f", "+".join(["x"] * 5000)),
                ("--g", "x." + "a" * 5000),
                ("--g", "1." + "0" * 5000 + "e1234*p"),
            ]
        ),
    ],
)
def test_inputs_whose_checks_measure_nothing_write_a_diagnostic_report(tmp_path, capsys, argv, error):
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    assert report["error"].startswith(error)
    assert len(report["error"]) <= 300
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "Traceback" not in capsys.readouterr().err


def test_polynomial_text_calls_nothing(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("os.getpid", lambda: calls.append("getpid") or 1)
    code, report = run_cli(tmp_path, "star-bracket", "--f", "__import__('os').getpid()*x", "--g", "p")
    assert code == 1
    assert "is outside the polynomial grammar" in report["error"]
    assert calls == []


def test_battery_seed_reaches_the_classical_limit_sweep(monkeypatch):
    sweep, seeds = cli.star_product.classical_limit_sweep, []

    def spy(f, g, seed, **kwargs):
        seeds.append(seed)
        return sweep(f, g, seed, **kwargs)

    monkeypatch.setattr(cli.star_product, "classical_limit_sweep", spy)
    cli.CRITERION_RUNNERS[10][1](np.random.default_rng(8), 8)
    assert seeds == [8]


def test_star_laws_check_covers_every_basis_triple(monkeypatch):
    """15 monomials: 225 pair products and 225 pair brackets, then one
    banded product per side for each ordered pair and one banded bracket per
    outer monomial.  They expand the same 16,792 term pairs over the same
    1,125 key pairs as the product-per-triple loop (225 + 2 * 15^3 products,
    225 + 3 * 455 brackets), so no term pair of any triple is skipped."""
    calls = {"star": 0, "moyal_bracket": 0}
    for name in calls:

        def counted(f, g, _law=getattr(cli.star_product, name), _name=name):
            calls[_name] += 1
            return _law(f, g)

        monkeypatch.setattr(cli.star_product, name, counted)
    expansions = []
    genuine = cli.star_product._monomial_star
    monkeypatch.setattr(cli.star_product, "_monomial_star", lambda f, g: expansions.append((f, g)) or genuine(f, g))
    result = cli.star_product.associativity_jacobi_check(4)
    assert calls == {"star": 3 * 225, "moyal_bracket": 225 + 15}
    assert (len(expansions), len(set(expansions))) == (16_792, 1_125)
    assert result == {"checked": 15**3 + 15**2 + 455, "exact": True, "failing": 0}


def spy_bands(monkeypatch) -> tuple:
    """Check every banded product or bracket of the star laws against the
    sum of its parts' own results, each shifted into its band, and each of
    those below hbar^width, so that no two bands share a key.  Returns the
    count of checked calls per law and the set of widths used."""
    P = cli.star_product.PhasePolynomial
    tagged = {}
    banded = cli.star_product._banded

    def spy_banded(parts, width, other_weight):
        parts = list(parts)
        poly = banded(parts, width, other_weight)
        tagged[id(poly)] = (poly, parts, width)
        return poly

    monkeypatch.setattr(cli.star_product, "_banded", spy_banded)
    checked, widths = {"star": 0, "moyal_bracket": 0}, set()
    for name in checked:

        def spy(f, g, _law=getattr(cli.star_product, name), _name=name):
            result = _law(f, g)
            if id(g) in tagged:
                _, parts, width = tagged[id(g)]
                expected = P.zero(1)
                for band, part in parts:
                    own = _law(f, part)
                    assert own.degree_in(-1) < width
                    expected = expected + own * P._of(1, 1, {(0, 0, width * band): (1, 0)})
                assert result == expected
                checked[_name] += 1
                widths.add(width)
            return result

        monkeypatch.setattr(cli.star_product, name, spy)
    return checked, widths


def test_star_laws_bands_never_overlap(monkeypatch):
    checked, widths = spy_bands(monkeypatch)
    (record,) = cli.star_laws_check("laws")
    assert checked == {"star": 2 * 225, "moyal_bracket": 15}
    # the degree-4 basis has weight 4, so a triple product holds hbar^6 at most
    assert widths == {7}
    assert (record.measured, record.passed) == (0.0, True)


def test_banded_refuses_a_part_that_could_reach_the_next_band():
    P = cli.star_product.PhasePolynomial
    x4 = P._of(1, 1, {(4, 0, 0): (1, 0)})
    assert cli.star_product._banded([(0, x4), (1, x4)], 7, 8) == P._of(1, 1, {(4, 0, 0): (1, 0), (4, 0, 7): (1, 0)})
    # x^4 hbar times a weight-8 operand can hold hbar^7, the first key of band 1
    with pytest.raises(ValueError, match="band 1 could reach hbar\\^7, past its width 7"):
        cli.star_product._banded([(0, x4), (1, P._of(1, 1, {(4, 0, 1): (1, 0)}))], 7, 8)


def test_star_laws_check_widens_its_bands_for_a_basis_carrying_hbar3(monkeypatch):
    """A basis monomial carrying hbar^3 has weight 6, so a triple product can
    reach hbar^9: the width, taken from the basis it tags, is 10, the bands
    still never overlap, and the laws hold on all 16 monomials."""
    genuine = cli.star_product.monomial_basis
    hbar3 = cli.star_product.PhasePolynomial._of(1, 1, {(0, 0, 3): (1, 0)})
    monkeypatch.setattr(cli.star_product, "monomial_basis", lambda d, k: [*genuine(d, k), hbar3])
    checked, widths = spy_bands(monkeypatch)
    (record,) = cli.star_laws_check("laws")
    assert checked == {"star": 2 * 16**2, "moyal_bracket": 16}
    assert widths == {10}
    assert (record.measured, record.passed) == (0.0, True)


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


def test_flow_check_refuses_more_steps_than_its_bound_before_integrating(tmp_path, monkeypatch):
    """--t-final 1e6 --dt 1e-6 asks for 10^12 RK4 steps: a diagnostic report
    and exit 1, with nothing integrated."""
    calls = []
    monkeypatch.setattr(cli.hilbert, "_rk4", lambda *args: calls.append(args))
    code, report = run_cli(tmp_path, "flow-check", "--t-final", "1e6", "--dt", "1e-6")
    assert code == 1
    assert [c["check_id"] for c in report["checks"]] == ["diagnostic"]
    assert f"1000000000000 steps, outside [1, {cli.hilbert.FLOW_MAX_STEPS}]" in report["error"]
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--dt", "0"), "argument --dt: 0 is not a finite positive value"),
        (("--dt=-1e-3",), "argument --dt: -0.001 is not a finite positive value"),
        (("--dt", "nan"), "argument --dt: nan is not a finite value"),
        (("--t-final", "-1"), "argument --t-final: -1 is not a finite positive value"),
        (("--t-final", "inf"), "argument --t-final: inf is not a finite value"),
        (("--p", "nan"), "argument --p: nan is not a finite value"),
        (("--x=-inf",), "argument --x: -inf is not a finite value"),
        (("--x", "one"), "argument --x: 'one' is not a number"),
    ],
)
def test_flow_check_rejected_at_parser(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), "flow-check", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("command", ["coherent-overlap", "flow-check"])
# integers print with str: 10000000, not 1e+07
@pytest.mark.parametrize("cutoff", ["1", "5000", "10000000"])
def test_cutoff_out_of_range_rejected_at_parser(tmp_path, capsys, command, cutoff):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), command, "--cutoff", cutoff])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    high = {"coherent-overlap": 4096, "flow-check": 512}[command]
    assert f"argument --cutoff: {cutoff} is not an integer in [2, {high}]" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))


def test_flow_check_cutoff_has_its_own_bound(capsys):
    parser = cli.make_parser()
    assert parser.parse_args(["flow-check", "--cutoff", "512"]).cutoff == 512
    assert parser.parse_args(["coherent-overlap", "--cutoff", "4096"]).cutoff == 4096
    for cutoff in ("513", "4096"):
        with pytest.raises(SystemExit):
            parser.parse_args(["flow-check", "--cutoff", cutoff])
        assert f"argument --cutoff: {cutoff} is not an integer in [2, 512]" in capsys.readouterr().err


def test_all_runs_one_decay_sweep(tmp_path, monkeypatch):
    sweep = contraction_lab.overlap_decay_sweep
    calls = []

    def counted(config):
        calls.append(config)
        return sweep(config)

    monkeypatch.setattr(contraction_lab, "overlap_decay_sweep", counted)
    code, _ = run_cli(tmp_path, "all")
    assert code == 0
    assert len(calls) == 1
    rows = (tmp_path / "contract_sweep.csv").read_text().splitlines()
    assert rows[0] == ",".join(contraction_lab.CSV_COLUMNS)
    assert len(rows) == 1 + len(calls[0].k_values)


def test_pass_is_a_python_bool_for_numpy_measurements():
    record = cli.CheckRecord("c", "plumbing", np.float64(1e-12), 0.0, 1e-10)
    assert type(record.passed) is bool
    manifest = cli.build_manifest("x", {}, 7, timestamp="t")
    parsed = json.loads(cli.serialize_report(cli.build_report(manifest, [record])))
    assert parsed["checks"][0]["pass"] is True


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


def test_nan_grid_error_fails_the_check(monkeypatch):
    formula = cli.hilbert.coherent_overlap_formula

    def poisoned(p1, x1, theta1, p2, x2, theta2):
        # NaN at the (1.5, 0.0)/(-1.5, 3.0) entry of the broadcast grid result,
        # also when matrix_element_formula calls the overlap for its grid
        out = np.array(formula(p1, x1, theta1, p2, x2, theta2))
        hit = np.ones(out.shape, dtype=bool)
        for label, value in zip((p1, x1, p2, x2), (1.5, 0.0, -1.5, 3.0)):
            hit &= np.all(np.atleast_1d(label) == value, axis=-1)
        out[hit] = complex(math.nan, 0.0)
        return complex(out) if out.ndim == 0 else out

    monkeypatch.setattr(cli.hilbert, "coherent_overlap_formula", poisoned)
    records = {r.check_id: r for r in cli.criterion_04_overlaps(np.random.default_rng(7))}
    records.update((r.check_id, r) for r in cli.criterion_05_matrix_elements())
    for check_id in ("C04.overlap-grid-1d", "C05.element-grid-1d"):
        assert math.isnan(records[check_id].measured), check_id
        assert not records[check_id].passed, check_id
    assert records["C04.overlap-3d"].passed


@pytest.mark.parametrize(
    "argv, error",
    [
        (("star-limit-sweep", "--hbar", "1e300,1e-2"), "OverflowError"),
        (("star-limit-sweep", "--hbar", "1.2e154,1e-2"), "check limit-slope: non-finite value nan"),
    ],
)
def test_arithmetic_failures_write_a_diagnostic_report(tmp_path, capsys, argv, error):
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    assert error in report["error"]
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "Traceback" not in capsys.readouterr().err


def test_fock_space_guard_failure_writes_a_diagnostic_report(tmp_path, capsys, monkeypatch):
    ladder = cli.hilbert._ladder
    monkeypatch.setattr(cli.hilbert, "_ladder", lambda mode_dim: ladder(mode_dim) * (1.0 + 1e-7))
    code, report = run_cli(tmp_path, "all")
    assert code == 1
    assert (tmp_path / "all_report.json").is_file()
    assert report["error"].startswith("AssertionError: ladder commutator defect")
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    assert "Traceback" not in capsys.readouterr().err


def test_c02_nan_bracket_term_is_not_swallowed(monkeypatch):
    limit_algebra = cli.lie_core.limit_algebra

    def poisoned(family):
        table = limit_algebra(family)
        pair = (table.index("X2"), table.index("P2"))
        return dataclasses.replace(table, entries={**table.entries, pair: ((table.index("I"), math.nan, Fraction(0)),)})

    monkeypatch.setattr(cli.lie_core, "limit_algebra", poisoned)
    records = {r.check_id: r for r in cli.criterion_02_contraction_limit()}
    assert math.isnan(records["C02.canonical-pairs-commute"].measured)
    assert not records["C02.canonical-pairs-commute"].passed


NO_SCIPY_PROBE = """
import json, sys
import qclimit.cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy", "mpmath"))
after_import = loaded()
codes = [
    qclimit.cli.main(["--out", sys.argv[1], "--seed", "7", *argv])
    for argv in (["all"], ["star-bracket"], ["star-limit-sweep"], ["coherent-overlap", "--modes", "3"])
]
print(json.dumps({"after_import": after_import, "codes": codes, "after_runs": loaded()}))
"""


def test_import_and_all_load_no_scipy(tmp_path):
    """scipy, sympy and mpmath are test-only dependencies: a fresh interpreter
    imports qclimit.cli and runs `all`, `star-bracket`, `star-limit-sweep` and
    `coherent-overlap --modes 3` (three-mode high-precision overlaps) without
    loading any of them."""
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe == {"after_import": [], "codes": [0, 0, 0, 0], "after_runs": []}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("coset-compose", "--samples", "0"), "argument --samples: 0 is not an integer in [1, 100000]"),
        (("coset-compose", "--samples=-3"), "argument --samples: -3 is not an integer in [1, 100000]"),
        (("coset-compose", "--samples", "2.5"), "argument --samples: '2.5' is not an integer"),
        (("algebra-contract", "--k", "inf"), "argument --k: inf is not a finite value"),
        (("algebra-contract", "--k", "0"), "argument --k: 0 is not a finite value >= 1"),
        (("contract-sweep", "--pair", "dy=1"), "argument --pair: 'dy=1' is not dx=<value> or dp=<value>"),
        (("contract-sweep", "--pair", "dx=1,dx=2"), "argument --pair: 'dx=2' is not dx=<value> or dp=<value>"),
        (("contract-sweep", "--pair", "dx"), "argument --pair: 'dx' is not dx=<value> or dp=<value>"),
        (("contract-sweep", "--pair", "dx=nan"), "argument --pair: nan is not a finite value"),
        (("contract-sweep", "--pair", "dp=inf"), "argument --pair: inf is not a finite value"),
        # deleted options are rejected, not ignored: every tolerance is fixed at its check,
        # algebra-verify samples the eps values of C01 and algebra-contract contracts HR3;
        # before a subcommand argparse reads the option's value as the subcommand's name
        (("--tolerance", "1", "all"), "argument command: invalid choice: '1'"),
        (("coherent-overlap", "--backend", "grid", "--grid-extent", "nan"), "argument --grid-extent: nan is not a finite value"),
        (("all", "--tolerance", "1"), "unrecognized arguments: --tolerance 1"),
        (("algebra-verify", "--eps", "0"), "unrecognized arguments: --eps 0"),
        (("algebra-contract", "--builtin", "HR3"), "unrecognized arguments: --builtin HR3"),
        (("--tolerance=1", "all"), "unrecognized arguments: --tolerance=1"),
        (("contract-sweep", "--k", "1,inf"), "argument --k: inf is not a finite value >= 1"),
        (("contract-sweep", "--k", "1,nan"), "argument --k: nan is not a finite value >= 1"),
        (("contract-sweep", "--k", "1,,2"), "argument --k: '1,,2' is not a comma-separated list of numbers"),
        # a pair with no label separation has no decay to measure
        (("contract-sweep", "--pair", "dx=0,dp=0"), "argument --pair: 'dx=0,dp=0' separates no labels"),
        (("contract-sweep", "--pair", "dx=0"), "argument --pair: 'dx=0' separates no labels"),
        # k < 1 has no contraction
        (("contract-sweep", "--k", "0.5,2"), "argument --k: 0.5 is not a finite value >= 1"),
    ],
)
def test_bad_input_rejected_at_parser(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))
