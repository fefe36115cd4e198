"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --rounds N --round R --trace 0|1 \
        --out FILE

Imports the program from the checkout's src/, so its process-wide
caches start cold as they do for a command-line user.  Runs the round's
operations back to back in this one thread (a closed loop with a single
caller), sampling the machine's speed between them, then checks every
output with the oracle, outside the timed region.  Writes one JSON
document to FILE; with --trace 1 it also writes the round's spans as
JSON lines next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from calibration import machine_speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import elltowers from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import elltowers
    import elltowers.cli

    if not Path(elltowers.__file__).resolve().is_relative_to(src):
        raise ImportError(f"elltowers was imported from {elltowers.__file__}, not {src}")
    return elltowers


def count_levels(pkg, tower_input, op):
    """Library counting: kappa_0..kappa_levels of one tower."""
    tower = pkg.analysis.Tower(tower_input, mt_check_level=op.mt_level)
    return tower, [tower.kappa(n) for n in range(op.levels + 1)]


def run_report(pkg, spec_path, op):
    """`elltowers report SPEC --levels N --budget-ms B --json`, in process."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["report", str(spec_path), "--levels", str(op.levels),
            "--budget-ms", str(workloads.REPORT_BUDGET_MS), "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_count(op, result) -> tuple[list[str], list[str], int]:
    tower, kappas = result
    norms = [tower.level_norm(i) for i in range(1, op.levels + 1)]
    return [], oracle.check_kappas(oracle.TowerData(op.doc), kappas, norms), 0


def check_report(op, result, corpus_by_name) -> tuple[list[str], list[str], int]:
    """(known defects, other problems, levels whose kappa_n is fully factored)."""
    code, stdout, stderr = result
    if code != 0:
        msg = f"exit {code}: {stderr.strip()[-300:]}"
        return ([msg], [], 0) if oracle.is_known_error(stderr) else ([], [msg], 0)
    doc = json.loads(stdout)
    defects, problems = oracle.check_report(oracle.TowerData(op.doc), op.levels, doc,
                                            corpus_by_name.get(op.corpus))
    return defects, problems, sum(1 for row in doc["levels"] if row["complete"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True, help="rounds in the run")
    ap.add_argument("--round", type=int, required=True, help="this round, from 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    pkg = import_program()
    ops = workloads.run_ops(args.workload, args.seed, args.rounds)[args.round]
    report = args.workload == "report_cli"
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install(pkg)

    # Inputs are prepared before the clock starts: spec files for the
    # CLI, parsed and built assignments for the library.
    tmp = Path(args.out).with_suffix(".specs")
    if report:
        tmp.mkdir(exist_ok=True)
    inputs = []
    for k, op in enumerate(ops):
        if report:
            path = tmp / f"{k}.json"
            path.write_text(json.dumps(op.doc), encoding="utf-8")
            inputs.append(path)
        else:
            spec = pkg.towerspec.parse_tower_spec(op.doc)
            inputs.append(pkg.towerspec.build_assignment(spec))

    run = run_report if report else count_levels
    results, op_seconds, speeds = [], [], [machine_speed()]
    clock = time.perf_counter
    for k, (op, tower_input) in enumerate(zip(ops, inputs)):
        t0 = clock()
        try:
            if recorder is not None:
                results.append(recorder.op(k, run, pkg, tower_input, op))
            else:
                results.append(run(pkg, tower_input, op))
        except Exception as exc:  # an operation that raises is a failed operation
            results.append(exc)
        op_seconds.append(clock() - t0)
        speeds.append(machine_speed())
    wall_s = sum(op_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if report:
        for path in inputs:
            path.unlink()
        tmp.rmdir()

    corpus_by_name = {e.name: e for e in pkg.corpus.CORPUS}
    outcomes = []
    for op, result in zip(ops, results):
        factored = 0
        if isinstance(result, Exception):
            msg = f"raised {type(result).__name__}: {str(result)[:300]}"
            defects, problems = ([msg], []) if oracle.is_known_error(msg) else ([], [msg])
        else:
            try:
                defects, problems, factored = (check_report(op, result, corpus_by_name) if report
                                               else check_count(op, result))
            except (KeyError, TypeError, ValueError) as exc:  # output not in the expected form
                defects, problems = [], [f"malformed output: {exc!r}"[:300]]
        outcomes.append({"op": op.label, "defects": defects, "problems": problems,
                         "levels_factored": factored})

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "trace": args.trace,
        "wall_s": wall_s,
        "op_seconds": op_seconds,
        "speeds": speeds,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes,
    }
    if recorder is not None:
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        recorder.write(spans_path)
        doc["spans_file"] = os.path.relpath(spans_path, ROOT)
        doc["layers"] = tracing.summarize(recorder.spans)
        doc["setup_layers"] = tracing.summarize(recorder.spans, in_ops=False)
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
