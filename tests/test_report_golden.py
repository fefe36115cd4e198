"""`report --json` byte for byte against committed golden files.

Each golden file is the `report --json --budget-ms 2000` output with the
`timing_ms` line removed: the six corpus towers at their corpus depth
and the demo specs at `--levels 4`.  A refactor must leave every file
unchanged.  Only a change that means to alter the report regenerates
them, with

    PYTHONPATH=src python tests/test_report_golden.py --regenerate

and says so in its change notes.
"""

import json
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from elltowers.cli import main
from elltowers.corpus import CORPUS
from util import exact_json

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
