"""`report --json` byte for byte against committed golden files.

Each golden file is the `report --json --budget-ms 2000` output with the
`timing_ms` line removed: the six corpus towers at their corpus depth
and the demo specs at `--levels 4`.  A refactor must leave every file
unchanged.  Only a change that means to alter the report regenerates
them, with

    PYTHONPATH=src python tests/test_report_golden.py --regenerate

and says so in its change notes.

Two larger documents are pinned by their SHA-256 instead (LARGE_ELL).
"""

import hashlib
import json
import re
import sys
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache
from io import StringIO
from itertools import islice
from pathlib import Path

import pytest

from elltowers.analysis import RESULTANT_ELL
from elltowers.cli import main
from elltowers.corpus import CORPUS
from elltowers.genpoly import determinant, voltage_matrix
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import evaluation_images, exact_json, primes_one_mod, spanning_trees_bruteforce

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMO_SPECS = sorted((ROOT / "demos" / "specs").glob("*.json"))
BUDGET_MS = "2000"
DEMO_LEVELS = 4
TIMING_LINE = re.compile(r'^  "timing_ms": \d+,\n', re.MULTILINE)

# (golden file stem, spec document, levels)
CASES = [(f"corpus-{e.name}", e.spec, e.depth) for e in CORPUS] + [
    (f"demo-{p.stem}", json.loads(p.read_text()), DEMO_LEVELS) for p in DEMO_SPECS
]


def report_json(spec: dict, levels: int, workdir: Path) -> str:
    """The report document as printed, without its timing line."""
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec))
    out = StringIO()
    with redirect_stdout(out):
        code = main(["report", str(path), "--levels", str(levels),
                     "--budget-ms", BUDGET_MS, "--json"])
    assert code == 0
    text, removed = TIMING_LINE.subn("", out.getvalue())
    assert removed == 1
    return text


def test_every_spec_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(c[0] for c in CASES)
    assert len(CASES) == 9


@pytest.mark.parametrize("stem,spec,levels", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(stem, spec, levels, tmp_path):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_json(spec, levels, tmp_path) == expected


@pytest.mark.parametrize("stem", [c[0] for c in CASES])
def test_golden_holds_no_float(stem):
    exact_json((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))


# `count --json --budget-ms 1 --matrix-tree-max-level 0` on the theta
# spec at ell = 101 to level 3 and at ell = 1009 to level 2, as CI runs
# them: from ell = RESULTANT_ELL on, every unfolded level norm is one
# Res(Psi_ell, Y).  Each document is about 310 KB, so its SHA-256 is
# pinned, and its kappa_n are checked against the evaluation oracle.
LARGE_ELL = [
    (101, 3, "5f43a80b0f4925244005af1701e7c527c4fd20f721240713facc8a735a5a14d5"),
    (1009, 2, "7ae9c833dbc072f57cb9d9073608e389b650dbb3bb94aeccbe789048e95d83ff"),
]


def theta_spec(ell: int) -> dict:
    return {**json.loads((ROOT / "demos" / "specs" / "theta_ell5.json").read_text()), "ell": ell}


@lru_cache(maxsize=None)
def large_ell_count(ell: int, levels: int) -> str:
    """The count document as printed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(theta_spec(ell)))
        out = StringIO()
        with redirect_stdout(out):
            code = main(["count", str(path), "--levels", str(levels), "--budget-ms", "1",
                         "--matrix-tree-max-level", "0", "--json"])
    assert code == 0
    return out.getvalue()


def decimal_mod(digits: str, q: int) -> int:
    """int(digits) % q, nine digits at a time: the level-3 kappa has
    310,158 digits, past Python's default limit for int(str)."""
    r = 0
    for k in range(0, len(digits), 9):
        chunk = digits[k : k + 9]
        r = (r * 10 ** len(chunk) + int(chunk)) % q
    return r


@pytest.mark.parametrize("ell,levels,digest", LARGE_ELL, ids=[f"ell{c[0]}" for c in LARGE_ELL])
def test_large_ell_count_matches_recorded_hash(ell, levels, digest):
    assert ell >= RESULTANT_ELL
    assert hashlib.sha256(large_ell_count(ell, levels).encode()).hexdigest() == digest


@pytest.mark.parametrize("ell,levels", [c[:2] for c in LARGE_ELL], ids=[f"ell{c[0]}" for c in LARGE_ELL])
def test_large_ell_count_matches_evaluation_oracle(ell, levels):
    # ell kappa_n = kappa_(n-1) M_n^2 (mod q) for two primes q = 1 (mod ell^levels)
    rows = exact_json(large_ell_count(ell, levels))["levels"]
    assert [row["n"] for row in rows] == list(range(levels + 1))
    va = build_assignment(parse_tower_spec(theta_spec(ell)))
    assert int(rows[0]["kappa"]) == spanning_trees_bruteforce(va.graph)
    f = determinant(voltage_matrix(va))
    for q in islice(primes_one_mod(ell**levels), 2):
        kappa = [decimal_mod(row["kappa"], q) for row in rows]
        for n in range(1, levels + 1):
            [(_, m)] = evaluation_images(f, n, [q])
            assert ell * kappa[n] % q == kappa[n - 1] * m * m % q, (q, n)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_report_golden.py --regenerate")
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, spec, levels in CASES:
            (GOLDEN / f"{stem}.json").write_text(
                report_json(spec, levels, Path(tmp)), encoding="utf-8")
            print(f"wrote {stem}.json")
