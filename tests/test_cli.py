"""CLI and tower-spec schema behaviour: exit codes, round-trips,
determinism, and the embedded selftest."""

import copy
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from elltowers.cli import main
from elltowers.corpus import BOUQUET2_SQRT17_ELL2, BOUQUET4_ELL3, CORPUS, PARALLEL4_ELL2, THETA_ELL5
from elltowers.towerspec import (
    SpecParseError,
    build_assignment,
    parse_tower_spec,
)
from util import exact_json


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="tower.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


DEMO_SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- schema ------------------------------------------------------------------------

def test_roundtrip_identity():
    for entry in CORPUS:
        spec = parse_tower_spec(entry.spec)
        again = parse_tower_spec(spec.to_json_dict())
        assert spec == again


def test_integer_voltages_accept_numbers_and_strings():
    doc = copy.deepcopy(BOUQUET4_ELL3.spec)
    doc["edges"][0]["voltage"] = 1  # number instead of string
    spec = parse_tower_spec(doc)
    assert spec.edges[0][2] == "1"


def test_parse_rejects_bad_documents():
    good = BOUQUET4_ELL3.spec
    cases = []
    for mutate in (
        lambda d: d.pop("ell"),
        lambda d: d.update(ell=4),
        lambda d: d.update(precision=0),
        lambda d: d.update(vertices=[]),
        lambda d: d.update(vertices=["v1", "v1"]),
        lambda d: d["edges"][0].update(tail="nope"),
        lambda d: d["edges"][0].update(voltage="1.5"),
        lambda d: d["edges"][0].update(voltage={"kind": "mystery"}),
        lambda d: d["edges"][0].update(voltage={"kind": "padic", "digits": []}),
        lambda d: d.update(edges=[]),
    ):
        doc = copy.deepcopy(good)
        mutate(doc)
        cases.append(doc)
    for doc in cases:
        with pytest.raises(SpecParseError):
            parse_tower_spec(doc)


def test_padic_digits_respect_precision():
    doc = copy.deepcopy(BOUQUET2_SQRT17_ELL2.spec)
    doc["edges"][0]["voltage"] = {"kind": "padic", "digits": [1, 0, 0]}
    with pytest.raises(SpecParseError):  # 3 digits < precision 8, no padding
        build_assignment(parse_tower_spec(doc))
    doc["precision"] = 3
    va = build_assignment(parse_tower_spec(doc))
    assert va.voltages[0].residue == 1
    assert not va.is_integral


def test_sqrt_voltage_builds():
    va = build_assignment(parse_tower_spec(BOUQUET2_SQRT17_ELL2.spec))
    assert (va.voltages[0].residue ** 2 - 17) % 2**8 == 0


# -- verbs --------------------------------------------------------------------------

def test_validate_ok(spec_file, capsys):
    code, out, _ = run_cli(capsys, "validate", spec_file(BOUQUET4_ELL3.spec))
    assert code == 0
    assert "OK" in out


def test_validate_rejects_chi_zero(spec_file, capsys):
    doc = {
        "ell": 3, "precision": 2, "vertices": ["v1"],
        "edges": [{"tail": "v1", "head": "v1", "voltage": "1"}],
    }
    code, out, _ = run_cli(capsys, "validate", spec_file(doc))
    assert code == 1
    assert "Euler" in out


def test_validate_disconnected_cover_is_domain_failure(spec_file, capsys):
    doc = {
        "ell": 3, "precision": 2, "vertices": ["v1"],
        "edges": [{"tail": "v1", "head": "v1", "voltage": "0"},
                  {"tail": "v1", "head": "v1", "voltage": "3"}],
    }
    code, out, _ = run_cli(capsys, "validate", spec_file(doc))
    assert code == 1
    assert "disconnected" in out


def test_validate_and_count_name_the_same_problem(spec_file, capsys):
    # bouquet(2) with voltages 0 and 3: no cycle voltage is a unit mod 3
    doc = {
        "ell": 3, "precision": 2, "vertices": ["v1"],
        "edges": [{"tail": "v1", "head": "v1", "voltage": "0"},
                  {"tail": "v1", "head": "v1", "voltage": "3"}],
    }
    path = spec_file(doc)
    code, out, _ = run_cli(capsys, "validate", path, "--json")
    problems = json.loads(out)["problems"]
    assert code == 1 and len(problems) == 1
    code, out, err = run_cli(capsys, "count", path)
    assert (code, out) == (1, "")
    assert err == f"error: {problems[0]}\n"


def theta_spec(ell):
    """Two vertices joined by three edges of voltages 0, 1 and 2."""
    return {"ell": ell, "precision": 1, "vertices": ["a", "b"],
            "edges": [{"tail": "a", "head": "b", "voltage": str(v)} for v in (0, 1, 2)]}


def test_report_for_a_20_digit_ell_finishes(spec_file):
    # f_1 of p mod ell comes from at most dbar products mod ell, with
    # no factorisation of ell - 1 and no trial division up to sqrt(ell)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "elltowers.cli", "report", spec_file(theta_spec(10**20 + 39)),
         "--levels", "0", "--json"], env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    (entry,) = json.loads(done.stdout)["primes"]
    assert (entry["p"], entry["n1"], entry["n0_certified"]) == (3, 1, True)


@pytest.mark.parametrize("verb, extra", [("count", ()), ("analyze", ("--p", "2")), ("report", ("--json",))])
def test_levels_no_engine_can_index_are_refused_first(spec_file, capsys, monkeypatch, verb, extra):
    # ell = 10^20 + 39 passes validate, but phi(ell) is past sys.maxsize:
    # level 1 is refused before the tower is built, as a domain failure
    # naming the level and phi(ell)
    import elltowers.cli as cli

    ell = 10**20 + 39
    path = spec_file(theta_spec(ell))
    assert run_cli(capsys, "validate", path)[0] == 0
    monkeypatch.setattr(cli, "Tower", lambda *args, **kwargs: pytest.fail("the tower was built"))
    code, out, err = run_cli(capsys, verb, path, "--levels", "1", *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: level 1 needs phi({ell}^1) = {ell - 1} entries")
    # level 0 needs no cyclotomic: count still answers it
    monkeypatch.undo()
    assert run_cli(capsys, "count", path, "--levels", "0")[:2] == (0, "kappa_0 = 3 = 3\n")


@pytest.mark.parametrize("verb, extra", [("count", ()), ("analyze", ("--p", "3")), ("report", ("--json",))])
def test_levels_past_the_precision_are_refused_first(spec_file, capsys, monkeypatch, verb, extra):
    # the sqrt(17) tower is known mod 2^8: levels 9 and on are refused
    # before the tower is built, naming the first of them, as the level
    # norm would once it reached it
    import elltowers.cli as cli

    path = spec_file(BOUQUET2_SQRT17_ELL2.spec)
    monkeypatch.setattr(cli, "Tower", lambda *args, **kwargs: pytest.fail("the tower was built"))
    for levels in ("9", "12"):
        code, out, err = run_cli(capsys, verb, path, "--levels", levels, *extra)
        assert (code, out) == (1, "")
        assert err == "error: exponents known mod 2^8, level 9 requested\n"


@pytest.mark.parametrize("ell", [
    92 * 100000000000000003 * 300000000000000011 + 1,  # ell - 1 = 92 P Q
    46438616905518423403473179,  # ell - 1 = 2 q, q a 26-digit probable prime
])
def test_n1_needs_no_factorisation_of_ell_minus_1(spec_file, capsys, ell):
    # neither 3 nor 9 is 1 mod ell, so the order of 3 mod ell is past
    # dbar = deg(U mod 3) = 2 and n1 = 1, however hard ell - 1 is to factor
    path = spec_file(theta_spec(ell))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", path, "--p", "3", "--levels", "0")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert "stabilization bound: n1 = 1\n" in out
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", path, "--levels", "0", "--json")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["primes"]
    assert (entry["p"], entry["n1"], entry["n0_certified"]) == (3, 1, True)


def test_matrix_tree_level_flag(spec_file, capsys):
    path = spec_file(THETA_ELL5.spec)
    code, out, _ = run_cli(capsys, "count", path, "--levels", "2",
                           "--matrix-tree-max-level", "0")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "count", path, "--levels", "2",
                             "--matrix-tree-max-level", "2")
    assert code2 == 0
    assert out == out2  # cross-check level never changes the numbers


def test_validate_malformed_is_exit_2(spec_file, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    doc = {"ell": 6, "precision": 1, "vertices": ["v"], "edges": []}
    code, _, err = run_cli(capsys, "validate", spec_file(doc))
    assert code == 2


def test_count_matches_table(spec_file, capsys):
    code, out, _ = run_cli(capsys, "count", spec_file(THETA_ELL5.spec), "--levels", "3")
    assert code == 0
    assert f"kappa_3 = {2**124 * 3 * 5**3}" in out
    code, doc_out, _ = run_cli(capsys, "count", spec_file(THETA_ELL5.spec),
                               "--levels", "3", "--json")
    doc = json.loads(doc_out)
    assert doc["levels"][3]["kappa"] == str(2**124 * 3 * 5**3)
    assert [(row["rho_iterations"], row["budget_exhausted"]) for row in doc["levels"]] == [(0, False)] * 4


@st.composite
def big_voltage_towers(draw):
    """(spec, levels): an integral bouquet (2-3 loops) or theta (three
    edges v1 -> v2) at ell in {2, 3, 5}, voltages up to 10^30 in size,
    one of them (one difference on the theta) a unit mod ell, so every
    cover is connected."""
    ell = draw(st.sampled_from([2, 3, 5]))
    big = st.integers(-(10**30), 10**30)
    if draw(st.booleans()):
        names, volts = ["v"], draw(st.lists(big, min_size=2, max_size=3))
        assume(any(a % ell for a in volts))
    else:
        names, volts = ["v1", "v2"], draw(st.lists(big, min_size=3, max_size=3))
        assume((volts[0] - volts[1]) % ell or (volts[0] - volts[2]) % ell)
    edges = [{"tail": names[0], "head": names[-1], "voltage": str(a)} for a in volts]
    return {"ell": ell, "precision": 1, "vertices": names, "edges": edges}, {2: 6, 3: 4, 5: 3}[ell]


@settings(deadline=None, max_examples=25)
@given(big_voltage_towers())
def test_count_rows_depend_on_voltages_mod_ell_n(tmp_path_factory, tower):
    # level n sees every voltage only mod ell^n, so count's rows at any
    # voltage equal those of the voltages reduced, which stay small
    doc, levels = tower
    modulus, rows = doc["ell"] ** levels, []
    small = {**doc, "edges": [{**e, "voltage": str(int(e["voltage"]) % modulus)}
                              for e in doc["edges"]]}
    for d in (doc, small):
        path = tmp_path_factory.mktemp("big") / "tower.json"
        path.write_text(json.dumps(d))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["count", str(path), "--levels", str(levels), "--budget-ms", "1", "--json"])
        assert code == 0
        rows.append(exact_json(out.getvalue())["levels"])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("verb, extra", [("classify", ()), ("analyze", ("--p", "2", "--levels", "2")),
                                         ("report", ("--levels", "2", "--budget-ms", "1"))])
def test_verbs_that_build_U_refuse_a_degree_no_engine_can_index(spec_file, capsys, verb, extra):
    # loops 1 and 10^30 + 1: count answers from f's terms, but classify,
    # analyze and report build U = T^b f, of degree 2 (10^30 + 1), past
    # sys.maxsize: a domain failure naming the degree
    path = spec_file({"ell": 3, "precision": 1, "vertices": ["v"],
                      "edges": [{"tail": "v", "head": "v", "voltage": v} for v in ("1", str(10**30 + 1))]})
    code, out, err = run_cli(capsys, verb, path, *extra)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: U = T^b f has degree {2 * (10**30 + 1)}, past the {sys.maxsize} ")


NON_RESIDUE_SPEC = {  # 3 is not a square in Z_2
    "ell": 2, "precision": 8, "vertices": ["v1"],
    "edges": [{"tail": "v1", "head": "v1", "voltage": {"kind": "sqrt", "radicand": 3, "branch": 1}},
              {"tail": "v1", "head": "v1", "voltage": "5"}],
}
SPEC_VERBS = {"validate": [], "count": [], "analyze": ["--p", "2"], "classify": [], "report": []}


@pytest.mark.parametrize("verb, spec, extra, code, prefix", [
    *[(verb, bad, SPEC_VERBS[verb], 2, "parse error: ")
      for verb in SPEC_VERBS for bad in ("unreadable", "invalid-json", "non-residue")],
    ("count", "sqrt17", ["--levels", "9"], 1, "error: exponents known mod 2^8, level 9"),
    ("report", "sqrt17", ["--levels", "9"], 1, "error: exponents known mod 2^8, level 9"),
    ("sqrt", None, ["--radicand", "3", "--ell", "2", "--precision", "5", "--branch", "1"],
     1, "error: 3 is not a square"),
])
def test_error_mapping(spec_file, capsys, tmp_path, verb, spec, extra, code, prefix):
    """Parse errors exit 2, domain errors 1, each with its label on stderr."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    path = {"unreadable": str(tmp_path / "missing.json"), "invalid-json": str(bad_json),
            "non-residue": spec_file(NON_RESIDUE_SPEC, "non-residue.json"),
            "sqrt17": spec_file(BOUQUET2_SQRT17_ELL2.spec, "sqrt17.json"), None: None}[spec]
    got, out, err = run_cli(capsys, verb, *([path] if path else []), *extra)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("levels", ["0", "1", "2"])
def test_ell_fit_on_too_few_levels_is_domain_error(spec_file, capsys, levels):
    code, out, err = run_cli(capsys, "analyze", spec_file(BOUQUET4_ELL3.spec),
                             "--p", "3", "--levels", levels)
    assert (code, out) == (1, "")
    assert err == "error: need valuations at four levels or more\n"


@pytest.mark.parametrize("argv", [
    ["count", "SPEC", "--levels", "-1"],
    ["report", "SPEC", "--levels", "-1"],
    ["count", "SPEC", "--budget-ms", "-1"],
    ["report", "SPEC", "--budget-ms", "-5"],
    ["analyze", "SPEC", "--p", "2", "--levels", "-1"],
    ["analyze", "SPEC", "--p", "2", "--budget-ms", "5"],  # analyze has no factoring budget
    ["report", "SPEC", "--p", "6"],  # a composite p crashed, or printed a law for it
    ["report", "SPEC", "--p", "9"],
    ["sqrt", "--radicand", "17", "--ell", "2", "--precision", "0", "--branch", "1"],
    ["sqrt", "--radicand", "17", "--ell", "4", "--precision", "3", "--branch", "1"],
    ["sqrt", "--radicand", "17", "--ell", "x", "--precision", "3", "--branch", "1"],
    ["analyze", "SPEC", "--p", "6", "--levels", "2"],
    ["count", "SPEC", "--matrix-tree-max-level", "-1"],
    ["report", "SPEC", "--levels", "2", "--matrix-tree-max-level", "-3"],
    ["analyze", "SPEC", "--p", "2", "--matrix-tree-max-level", "-1"],
])
def test_bad_arguments_are_usage_errors(spec_file, capsys, argv):
    path = spec_file(BOUQUET4_ELL3.spec)
    with pytest.raises(SystemExit) as exc:
        main([path if a == "SPEC" else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_matrix_tree_default_is_stated_from_its_table(capsys, monkeypatch):
    # the --matrix-tree-max-level help text reads the table the default does
    import elltowers.cli as cli
    from elltowers.analysis import default_mt_check_level

    assert [default_mt_check_level(ell) for ell in (2, 3, 5, 101)] == [5, 3, 2, 2]
    monkeypatch.setattr(cli, "MT_CHECK_LEVELS", {7: 4})
    with pytest.raises(SystemExit):
        main(["count", "--help"])
    assert "(default: 4 for ell=7, else 2)" in " ".join(capsys.readouterr().out.split())


def test_classify_reports_the_content_it_cannot_split(capsys, monkeypatch):
    # classify factors the content of U within DEFAULT_BUDGET_MS *
    # RHO_ITERATIONS_PER_MS rho steps; with that budget cut to 2 ms (1000
    # steps), a content of -2 P Q, P and Q primes of 20 digits, keeps P Q
    # as its cofactor
    import sympy

    import elltowers.cli as cli
    import elltowers.omega as omega
    from elltowers import GenPoly

    P, Q = sympy.nextprime(10**19), sympy.nextprime(3 * 10**19)
    budgets, factor, classify = [], omega.factor_kappa, cli.classify_omega
    monkeypatch.setattr(cli, "DEFAULT_BUDGET_MS", 2)
    monkeypatch.setattr(omega, "factor_kappa",
                        lambda n, rho_iterations: budgets.append(rho_iterations) or factor(n, rho_iterations))
    monkeypatch.setattr(cli, "classify_omega",
                        lambda f, rho: classify(f * GenPoly.constant(f.ell, f.precision, P * Q), rho))
    path = str(DEMO_SPECS / "bouquet4_ell3.json")
    doc = json.loads(run_cli(capsys, "classify", path, "--json")[1])
    assert doc["content"] == str(-2 * P * Q)
    assert (doc["content_primes"], doc["content_cofactor"]) == (["2"], str(P * Q))
    text = run_cli(capsys, "classify", path)[1]
    assert f"content cofactor (not split within the budget): {P * Q}" in text
    assert budgets == [2 * cli.RHO_ITERATIONS_PER_MS] * 2


def test_verbs_are_projections_of_report(capsys):
    """count, classify and analyze print report's sections and their own keys."""
    path = str(DEMO_SPECS / "bouquet4_ell3.json")
    report = json.loads(run_cli(capsys, "report", path, "--levels", "4", "--json")[1])
    count = json.loads(run_cli(capsys, "count", path, "--levels", "4", "--json")[1])
    assert count["levels"] == [{k: v for k, v in row.items() if k != "ord_ell"}
                               for row in report["levels"]]
    classify = json.loads(run_cli(capsys, "classify", path, "--json")[1])
    assert classify == {**report["classification"], "content_primes": ["2"], "content_cofactor": "1"}
    assert len(report["primes"]) > 1
    for entry in report["primes"]:
        analyze = json.loads(run_cli(capsys, "analyze", path, "--p", str(entry["p"]),
                                     "--levels", "4", "--json")[1])
        assert {k: v for k, v in analyze.items() if k not in ("ell", "root_levels")} == entry
        assert analyze["ell"] == 3 and isinstance(analyze["root_levels"], list)
    fit = json.loads(run_cli(capsys, "analyze", path, "--p", "3", "--levels", "4", "--json")[1])
    assert fit == {**report["ell_fit"], "p": 3, "kind": "ell-part-fit",
                   "observed": [row["ord_ell"] for row in report["levels"]]}


def test_json_output_holds_no_float(capsys):
    path = str(DEMO_SPECS / "bouquet4_ell3.json")
    for argv in (["analyze", path, "--p", "17", "--levels", "4"], ["count", path],
                 ["classify", path], ["validate", path]):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        exact_json(out)


def test_analyze_prints_the_stabilization_bound(capsys):
    path = str(DEMO_SPECS / "bouquet4_ell3.json")
    code, out, _ = run_cli(capsys, "analyze", path, "--p", "17", "--levels", "4")
    assert code == 0
    assert "stabilization bound: n1 = 3\n" in out


def test_count_past_precision_is_domain_error(spec_file, capsys):
    code, _, err = run_cli(capsys, "count", spec_file(BOUQUET2_SQRT17_ELL2.spec),
                           "--levels", "9")
    assert code == 1


def test_vanishing_level_norm_exits_3(spec_file, capsys, monkeypatch):
    # tower_problems accepted the tower, so every cover is connected and
    # no level norm vanishes: one that does is the tool's fault
    import elltowers.analysis as analysis_mod

    monkeypatch.setattr(analysis_mod, "level_norm", lambda f, i: 0)
    code, out, err = run_cli(capsys, "count", spec_file(THETA_ELL5.spec), "--levels", "1")
    assert (code, out) == (3, "")
    assert err == "internal error: level 1 norm vanishes on a connected tower\n"


def test_internal_faults_exit_3(spec_file, capsys, monkeypatch):
    import elltowers.analysis as analysis_mod
    import elltowers.cli as cli_mod

    path = spec_file(THETA_ELL5.spec)
    level_norm = analysis_mod.level_norm
    with monkeypatch.context() as m:  # every norm now disagrees with the subresultant
        m.setattr(analysis_mod, "level_norm", lambda f, i: 2 * level_norm(f, i))
        code, out, err = run_cli(capsys, "report", path, "--levels", "2", "--json")
    assert code == 3 and out == ""
    assert err.startswith("internal error: level-norm cross-check failed at level 1")

    def overflow(tower, p, depth):
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(cli_mod, "analyze_prime", overflow)
    code, _, err = run_cli(capsys, "report", path, "--levels", "2")
    assert code == 3 and "too large to convert to C long" in err


def test_analyze_renders_law(spec_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", spec_file(BOUQUET4_ELL3.spec),
                           "--p", "2", "--levels", "4")
    assert code == 0
    assert "3^n + 1" in out
    assert "mu = 1" in out and "n0 = 2" in out and "nu = 1" in out


def test_analyze_p_equals_ell_redirects_to_fit(spec_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", spec_file(THETA_ELL5.spec),
                           "--p", "5", "--levels", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ell-part-fit"
    assert (doc["mu"], doc["lambda"], doc["nu"], doc["onset"]) == (0, 1, 0, 1)


def test_analyze_never_divides_message(spec_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", spec_file(BOUQUET3_ELL5_SPEC),
                           "--p", "7", "--levels", "3")
    assert code == 0
    assert "never divides" in out


# ell = 7 with two sqrt voltages: the prime 611812412399 >= 2^30 divides the
# level norm M_2 once, a root that the int64 F_p gcd missed
ELL7_TWO_SQRT = {
    "ell": 7, "precision": 3, "vertices": ["v1", "v2"],
    "edges": [
        {"tail": "v1", "head": "v2", "voltage": {"kind": "sqrt", "radicand": 2, "branch": 3}},
        {"tail": "v1", "head": "v2", "voltage": {"kind": "sqrt", "radicand": 11, "branch": 2}},
        {"tail": "v1", "head": "v2", "voltage": "0"},
        {"tail": "v1", "head": "v1", "voltage": "1"},
    ],
}


def test_ell_adic_root_levels_of_a_prime_past_int64(spec_file, capsys):
    path = spec_file(ELL7_TWO_SQRT)
    code, out, _ = run_cli(capsys, "report", path, "--levels", "3", "--json", "--budget-ms", "1")
    assert code == 0
    rows = {row["p"]: row for row in json.loads(out)["primes"]}
    row = rows[611812412399]
    assert (row["mu"], row["n0"], row["nu"]) == (0, 3, 2)
    assert row["observed"] == row["predicted"] == [0, 0, 2, 2]
    assert all(r["observed"] == r["predicted"] for r in rows.values() if not r.get("inconclusive"))
    code, out, _ = run_cli(capsys, "analyze", path, "--p", "611812412399", "--levels", "3")
    assert code == 0 and "n0 = 3" in out and "nu = 2" in out


def test_ell_adic_root_levels_read_the_towers_own_norms(spec_file, capsys, monkeypatch):
    # every prime's root levels come from the norms the report computes
    # anyway: one level_norm per level, not one per prime and level
    import elltowers.analysis as analysis_mod

    calls = []
    level_norm = analysis_mod.level_norm

    def counted(f, i):
        calls.append(i)
        return level_norm(f, i)

    monkeypatch.setattr(analysis_mod, "level_norm", counted)
    code, out, _ = run_cli(capsys, "report", spec_file(ELL7_TWO_SQRT), "--levels", "3",
                           "--budget-ms", "2000", "--json")
    assert code == 0 and len(json.loads(out)["primes"]) > 1
    assert sorted(calls) == [1, 2, 3]


# ell = 2, loops 1, 2, 2: U = -2 T^4 - T^3 + 6 T^2 - T - 2
FERMAT_BOUQUET = {
    "ell": 2, "precision": 1, "vertices": ["v"],
    "edges": [{"tail": "v", "head": "v", "voltage": v} for v in ("1", "2", "2")],
}


def test_integral_root_levels_above_the_depth_come_from_the_ladder(spec_file, capsys, monkeypatch):
    # 65537 = 2^16 + 1 has n1 = 19: the levels 9..18 above --levels 8 are
    # searched by rootladder, with no dense gcd against Phi_(2^i)
    import elltowers.analysis as analysis_mod

    levels = []
    has_root = analysis_mod._has_primitive_root

    def counted(g, p, i):
        levels.append(i)
        return has_root(g, p, i)

    monkeypatch.setattr(analysis_mod, "_has_primitive_root", counted)
    code, out, _ = run_cli(capsys, "analyze", spec_file(FERMAT_BOUQUET),
                           "--p", "65537", "--levels", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["root_levels"], doc["n0"], doc["n1"]) == ([5], 6, 19)
    assert doc["observed"] == doc["predicted"]
    assert levels and max(levels) <= 8


def test_report_text_marks_an_inconclusive_prime(spec_file, capsys):
    # 1950781795327 divides M_3, the norm of the top stored level
    code, out, _ = run_cli(capsys, "report", spec_file(ELL7_TWO_SQRT), "--levels", "3",
                           "--budget-ms", "1", "--p", "1950781795327")
    assert code == 0 and "p=1950781795327: inconclusive\n" in out


def test_ell_part_fit_text_lines(spec_file, capsys):
    path = spec_file(BOUQUET4_ELL3.spec)
    law = "ord_3(kappa_n) = 0*3^n + 1*n + 0 for n >= 1"
    code, out, _ = run_cli(capsys, "analyze", path, "--p", "3", "--levels", "4")
    assert code == 0 and out == f"{law} (empirical fit on computed levels)\n"
    code, out, _ = run_cli(capsys, "report", path, "--levels", "4", "--budget-ms", "100")
    assert code == 0 and f"\nell-part: {law}\n" in out
    code, out, _ = run_cli(capsys, "analyze", spec_file(PARALLEL4_ELL2.spec),
                           "--p", "2", "--levels", "3")
    assert code == 0 and out == "no exact three-parameter fit for ord_2 on the computed levels\n"


def test_analyze_json_inconclusive_is_json(spec_file, capsys, monkeypatch):
    import elltowers.cli as cli_mod
    from elltowers.analysis import InconclusiveError

    def inconclusive(tower, p, depth):
        raise InconclusiveError("roots persist at the top searchable level 4")

    monkeypatch.setattr(cli_mod, "analyze_prime", inconclusive)
    code, out, _ = run_cli(capsys, "analyze", spec_file(BOUQUET3_ELL5_SPEC),
                           "--p", "7", "--levels", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 7, "inconclusive": True,
                               "reason": "roots persist at the top searchable level 4"}
    code, out, _ = run_cli(capsys, "analyze", spec_file(BOUQUET3_ELL5_SPEC),
                           "--p", "7", "--levels", "3")
    assert code == 0 and out.startswith("warning: stabilization level inconclusive")


def test_integers_past_the_str_digit_limit_render(spec_file, capsys, monkeypatch):
    import sys

    import elltowers.cli as cli_mod
    from elltowers.factorint import FactoredInteger

    limit = sys.get_int_max_str_digits()
    cofactor = 10**5000 + 7  # its digits are known without converting it
    kappa = 12 * cofactor
    fact = FactoredInteger(kappa, ((2, 2), (3, 1)), cofactor)
    kappa_digits = "12" + "0" * 4998 + "84"
    cofactor_digits = "1" + "0" * 4999 + "7"

    doc = cli_mod._factorization_dict(fact)
    assert doc["cofactor"] == cofactor_digits
    assert doc["factors"] == [["2", 2], ["3", 1]]
    line = cli_mod._kappa_line(5, kappa, fact)
    assert line == f"kappa_5 = {kappa_digits} = 2^2 * 3 * C{cofactor_digits}"

    monkeypatch.setattr(cli_mod, "_level_rows", lambda tower, levels, budget: [(0, kappa, fact)])
    path = spec_file(BOUQUET3_ELL5_SPEC)
    code, out, _ = run_cli(capsys, "count", path, "--levels", "0")
    assert code == 0 and out == line.replace("kappa_5", "kappa_0") + "\n"
    code, out, _ = run_cli(capsys, "count", path, "--levels", "0", "--json")
    assert code == 0
    level = json.loads(out)["levels"][0]
    assert level["kappa"] == kappa_digits and level["cofactor"] == cofactor_digits
    assert sys.get_int_max_str_digits() == limit


def test_classify_verdicts(spec_file, capsys):
    code, out, _ = run_cli(capsys, "classify", spec_file(BOUQUET4_ELL3.spec))
    assert code == 0 and "unbounded" in out
    code, out, _ = run_cli(capsys, "classify", spec_file(THETA_ELL5.spec))
    assert code == 0 and "bounded" in out
    code, out, _ = run_cli(capsys, "classify", spec_file(BOUQUET2_SQRT17_ELL2.spec))
    assert code == 0 and "inapplicable" in out


def test_report_json_deterministic(spec_file, capsys):
    path = spec_file(BOUQUET4_ELL3.spec)
    code, out1, _ = run_cli(capsys, "report", path, "--levels", "3", "--json")
    code2, out2, _ = run_cli(capsys, "report", path, "--levels", "3", "--json")
    assert code == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timing_ms"), d2.pop("timing_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_human_and_json_numeric_content_agree(spec_file, capsys):
    path = spec_file(THETA_ELL5.spec)
    _, human, _ = run_cli(capsys, "report", path, "--levels", "2")
    _, machine, _ = run_cli(capsys, "report", path, "--levels", "2", "--json")
    doc = json.loads(machine)
    for level in doc["levels"]:
        assert f"kappa_{level['n']} = {level['kappa']}" in human


def test_sqrt_verb(capsys):
    code, out, _ = run_cli(capsys, "sqrt", "--radicand", "17", "--ell", "2",
                           "--precision", "5", "--branch", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"] == "9"
    assert doc["digits"] == [1, 0, 0, 1, 0]
    for branch in ("1", "5"):  # 2-adic branches select by their residue mod 4
        code, out, _ = run_cli(capsys, "sqrt", "--radicand", "17", "--ell", "2",
                               "--precision", "8", "--branch", branch)
        assert code == 0 and out == "sqrt(17) = 1.0010111 (base 2) residue 233 mod 2^8\n"


def test_sqrt_verb_requires_branch(capsys):
    # a missing --branch is a usage error, as a spec's sqrt voltage
    # without one is a parse error: both exit 2.  3 is no square mod 5,
    # which the verb names once it has a branch
    for radicand, ell in (("17", "2"), ("3", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["sqrt", "--radicand", radicand, "--ell", ell, "--precision", "4"])
        assert exc.value.code == 2
        assert "--branch" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "sqrt", "--radicand", "3", "--ell", "5",
                             "--precision", "4", "--branch", "1")
    assert (code, out, err) == (1, "", "error: 3 is not a quadratic residue mod 5\n")


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "all computed rows match" in out


def test_selftest_detects_perturbation(capsys, monkeypatch):
    import elltowers.cli as cli_mod
    from elltowers import corpus as corpus_mod

    broken = copy.deepcopy(corpus_mod.BOUQUET4_ELL3.kappa_factors[2])
    broken[17] = 4  # perturb one table entry

    import dataclasses

    bad_entry = dataclasses.replace(
        corpus_mod.BOUQUET4_ELL3,
        kappa_factors=(corpus_mod.BOUQUET4_ELL3.kappa_factors[:2]
                       + (broken,)
                       + corpus_mod.BOUQUET4_ELL3.kappa_factors[3:]),
    )
    monkeypatch.setattr(cli_mod.corpus, "CORPUS", (bad_entry,))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out and "kappa_2" in out


def test_selftest_reports_a_wrong_fit_and_verdict(capsys, monkeypatch):
    import dataclasses

    import elltowers.cli as cli_mod
    from elltowers import corpus as corpus_mod

    bad_entry = dataclasses.replace(corpus_mod.THETA_ELL5, ell_fit=(0, 2, 0, 1), verdict="unbounded")
    monkeypatch.setattr(cli_mod.corpus, "CORPUS", (bad_entry,))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL theta-ell5 ell fit: got (0, 1, 0, 1), want (0, 2, 0, 1)\n" in out
    assert "FAIL theta-ell5 verdict: got bounded, want unbounded\n" in out
    assert out.endswith("selftest: 2 mismatch(es)\n")


def test_selftest_takes_no_option_and_repeats_itself(capsys):
    # selftest reads no clock: it has no budget to skip rows by, so two
    # runs print the same bytes
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--budget-ms", "0"])
    assert exc.value.code == 2
    assert "--budget-ms" in capsys.readouterr().err
    first, second = run_cli(capsys, "selftest"), run_cli(capsys, "selftest")
    assert first == second and first[0] == 0


BOUQUET3_ELL5_SPEC = {
    "ell": 5,
    "precision": 4,
    "vertices": ["v1"],
    "edges": [{"tail": "v1", "head": "v1", "voltage": "1"}] * 3,
}
