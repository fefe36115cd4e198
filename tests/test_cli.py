"""CLI and tower-spec schema behaviour: exit codes, round-trips,
determinism, and the embedded selftest."""

import copy
import json
from pathlib import Path

import pytest

from elltowers.cli import main
from elltowers.corpus import BOUQUET2_SQRT17_ELL2, BOUQUET4_ELL3, CORPUS, THETA_ELL5
from elltowers.towerspec import (
    SpecParseError,
    build_assignment,
    parse_tower_spec,
)


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


def test_verbs_are_projections_of_report(capsys):
    """count, classify and analyze print report's sections and their own keys."""
    path = str(DEMO_SPECS / "bouquet4_ell3.json")
    report = json.loads(run_cli(capsys, "report", path, "--levels", "4", "--json")[1])
    count = json.loads(run_cli(capsys, "count", path, "--levels", "4", "--json")[1])
    assert count["levels"] == [{k: v for k, v in row.items() if k != "ord_ell"}
                               for row in report["levels"]]
    classify = json.loads(run_cli(capsys, "classify", path, "--json")[1])
    assert classify == {**report["classification"], "content_primes": ["2"]}
    assert len(report["primes"]) > 1
    for entry in report["primes"]:
        analyze = json.loads(run_cli(capsys, "analyze", path, "--p", str(entry["p"]),
                                     "--levels", "4", "--json")[1])
        assert {k: v for k, v in analyze.items() if k not in ("ell", "root_levels")} == entry
        assert analyze["ell"] == 3 and isinstance(analyze["root_levels"], list)
    fit = json.loads(run_cli(capsys, "analyze", path, "--p", "3", "--levels", "4", "--json")[1])
    assert fit == {**report["ell_fit"], "p": 3, "kind": "ell-part-fit",
                   "observed": [row["ord_ell"] for row in report["levels"]]}


def test_count_past_precision_is_domain_error(spec_file, capsys):
    code, _, err = run_cli(capsys, "count", spec_file(BOUQUET2_SQRT17_ELL2.spec),
                           "--levels", "9")
    assert code == 1


def test_internal_faults_exit_3(spec_file, capsys, monkeypatch):
    import elltowers.analysis as analysis_mod
    import elltowers.cli as cli_mod

    path = spec_file(THETA_ELL5.spec)
    with monkeypatch.context() as m:  # the subresultant now disagrees with every norm
        m.setattr(analysis_mod, "resultant", lambda a, b: 1)
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


def test_sqrt_verb_requires_branch(capsys):
    code, _, err = run_cli(capsys, "sqrt", "--radicand", "17", "--ell", "2",
                           "--precision", "5")
    assert code == 1
    assert "branch" in err


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


def test_selftest_empty_budget_skips(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--budget-ms", "0")
    assert code == 0
    assert "budget" in out


BOUQUET3_ELL5_SPEC = {
    "ell": 5,
    "precision": 4,
    "vertices": ["v1"],
    "edges": [{"tail": "v1", "head": "v1", "voltage": "1"}] * 3,
}
