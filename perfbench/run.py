"""The elltowers benchmark: four seeded workloads, each isolating a layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see DESIGN.md): padic_deep (ell-adic level norms),
integral_deep (integral level norms), cover_check (matrix-tree
cross-checks), report_cli (`elltowers report --json`, factoring-bound).

A run first times set-up (fresh interpreters importing the program and
building the inputs), then runs a fixed number of rounds: as many as
take --seconds on the machine the benchmark was built on (ROUND_S).
Each round is a fresh worker process (cold caches) that runs a fixed
plan of seeded towers back to back and checks every output.  The
number of rounds, and so the operations attempted, depends only on the
workload and --seconds, never on how fast the machine is.  With
--trace 0 the run reports the end-to-end metrics (wall_s: the mean
round; setup_s: the median probe; peak_rss_mb: the median round); with
--trace 1 every round runs twice, untraced and traced, and the run
reports per-layer metrics (medians over rounds) plus the tracing
overhead.  Times are divided by the mean machine slowdown measured
during the run (calibration.py), so that other load on a shared
machine cancels.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  An operation fails when it raises or
its output fails the oracle.  `correct` is false when any failure is not
one of the program's documented big-integer defects (listed on
standard error with every failing operation).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from calibration import machine_speed  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, better); derived from the traced rounds.
PER_LAYER = {
    "intpoly.resultant.self_s": ("s", "lower"),
    "intpoly.resultant.max_degree": ("count", "lower"),
    "intpoly.resultant.max_digits": ("count", "lower"),
    "analysis.level_norm.self_s": ("s", "lower"),
    "genpoly.determinant.self_s": ("s", "lower"),
    "genpoly.determinant.max_order": ("count", "lower"),
    "graphs.spanning_tree_count.self_s": ("s", "lower"),
    "graphs.spanning_tree_count.max_order": ("count", "lower"),
    "graphs.derived_graph.self_s": ("s", "lower"),
    "intdet.bareiss_det.self_s": ("s", "lower"),
    "intdet.bareiss_det.calls": ("count", "lower"),
    "intdet.multimodular_det.self_s": ("s", "lower"),
    "intdet.multimodular_det.calls": ("count", "lower"),
    "intdet.det_mod.calls": ("count", "lower"),
    "factorint.factor_kappa.self_s": ("s", "lower"),
    "factorint.factor_kappa.calls": ("count", "lower"),
    "factorint.factor_kappa.max_digits": ("count", "lower"),
    "factorint.factor_kappa.complete_ratio": ("ratio", "higher"),
    "factorint.perfect_power.self_s": ("s", "lower"),
    "levels_factored": ("count", "higher"),
    "analysis.analyze_prime.self_s": ("s", "lower"),
    "analysis.analyze_prime.calls": ("count", "lower"),
    "analysis.analyze_prime.inconclusive": ("count", "lower"),
    "analysis.n0_search.self_s": ("s", "lower"),
    "intpoly.poly_mod_gcd.self_s": ("s", "lower"),
    "intpoly.poly_mod_gcd.calls": ("count", "lower"),
    "omega.classify_omega.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "towerspec.build_assignment.self_s": ("s", "lower"),
    "ops_failed_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Layers by span name, for the self-time shares printed by traced runs.
LAYERS = {
    "norms": ("intpoly.resultant", "analysis.level_norm"),
    "base_det": ("genpoly.determinant",),
    "matrix_tree": ("graphs.spanning_tree_count", "graphs.derived_graph", "intdet.det_int",
                    "intdet.bareiss_det", "intdet.multimodular_det", "intdet.det_mod"),
    "factoring": ("factorint.factor_kappa", "factorint.perfect_power"),
    "prime_analysis": ("analysis.analyze_prime", "analysis.n0_search", "intpoly.poly_mod_gcd"),
    "cli": ("cli.main", "omega.classify_omega", "towerspec.parse_tower_spec",
            "towerspec.build_assignment"),
    "glue": ("bench.op",),
}

_LIBRARY_SPANS = ("intpoly.resultant", "analysis.level_norm", "genpoly.determinant",
                  "graphs.spanning_tree_count", "graphs.derived_graph", "intdet.det_int",
                  "intdet.bareiss_det", "towerspec.parse_tower_spec",
                  "towerspec.build_assignment")
# Spans that must fire in a traced run of each workload; one that never
# fires means a wrapped name no longer reaches the code it measures.
EXPECTED_SPANS = {
    "padic_deep": _LIBRARY_SPANS,
    "integral_deep": _LIBRARY_SPANS,
    "cover_check": _LIBRARY_SPANS + ("intdet.multimodular_det", "intdet.det_mod"),
    "report_cli": _LIBRARY_SPANS + ("cli.main", "factorint.factor_kappa",
                                    "factorint.perfect_power", "analysis.analyze_prime",
                                    "analysis.n0_search", "intpoly.poly_mod_gcd",
                                    "omega.classify_omega"),
}

SETUP_SAMPLES = 7
# Wall seconds of one round's worker process (interpreter start, inputs,
# operations and oracle), measured on the 2-core machine the benchmark
# was built on while it ran about 1.6x slower than unloaded.  A traced
# run makes half as many rounds, each run twice.
ROUND_S = {"padic_deep": 3.3, "integral_deep": 5.5, "cover_check": 4.2, "report_cli": 6.2}
# Every child process is killed at this many seconds into the run, so a
# hung operation ends the run (with an error) well inside 180 seconds.
RUN_LIMIT_S = 170


class BenchmarkError(RuntimeError):
    pass


def _run(cmd: list[str], kill_at: float) -> float:
    """Run a child process to completion, killing it at monotonic time
    kill_at; return its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=max(kill_at - time.monotonic(), 1.0), cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        tail = proc.stderr.decode(errors="replace").strip()[-2000:]
        raise BenchmarkError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{tail}")
    return elapsed


def measure_setup(workload: str, seed: int, rounds: int, outdir: Path,
                  kill_at: float) -> tuple[float, list[float]]:
    """Median wall time of fresh interpreters that import the program and
    parse and build round 0's specs (after one unmeasured warm-up), and
    the machine slowdowns sampled around them."""
    specs = outdir / "setup_specs.json"
    round0 = workloads.run_ops(workload, seed, rounds)[0]
    specs.write_text(json.dumps([op.doc for op in round0]), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(specs)]
    _run(cmd, kill_at)
    samples, speeds = [], [machine_speed()]
    for _ in range(SETUP_SAMPLES):
        samples.append(_run(cmd, kill_at))
        speeds.append(machine_speed())
    return statistics.median(samples), speeds


def round_count(workload: str, seconds: float, trace: int) -> int:
    """Rounds in a run: a fixed number, so that two runs with the same
    seed attempt the same operations and fail on the same ones."""
    return max(1, round(seconds / (ROUND_S[workload] * (2 if trace else 1))))


def run_round(workload: str, seed: int, rounds: int, r: int, trace: int, outdir: Path,
              kill_at: float) -> dict:
    out = outdir / f"round{r}-trace{trace}.json"
    _run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
          "--seed", str(seed), "--rounds", str(rounds), "--round", str(r),
          "--trace", str(trace), "--out", str(out)],
         kill_at)
    return json.loads(out.read_text(encoding="utf-8"))


def _failed(outcome: dict) -> bool:
    return bool(outcome["defects"] or outcome["problems"])


def layer_metrics(plain: dict, traced: dict, slowdown: float) -> dict[str, float]:
    """Per-layer metrics of one round from its traced and untraced runs."""
    spans = traced["layers"]

    def get(name, key="self_s"):
        value = spans.get(name, {}).get(key, 0)
        return value / slowdown if key == "self_s" else value

    def most(name, key):
        return spans.get(name, {}).get("max", {}).get(key, 0)

    def flag(name, key):
        return spans.get(name, {}).get("flags", {}).get(key, 0)

    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls"):
            out[name] = get(span, field)
        elif field.startswith("max_"):
            out[name] = most(span, field[4:])
    calls = get("factorint.factor_kappa", "calls")
    out["factorint.factor_kappa.complete_ratio"] = (
        flag("factorint.factor_kappa", "complete") / calls if calls else 0.0)
    out["analysis.analyze_prime.inconclusive"] = flag("analysis.analyze_prime",
                                                      "InconclusiveError")
    out["towerspec.build_assignment.self_s"] += traced["setup_layers"].get(
        "towerspec.build_assignment", {}).get("self_s", 0.0) / slowdown
    outcomes = plain["outcomes"] + traced["outcomes"]
    out["levels_factored"] = sum(o.get("levels_factored", 0) for o in plain["outcomes"])
    out["ops_failed_frac"] = sum(map(_failed, outcomes)) / len(outcomes)
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"]) / slowdown
    return out


def layer_shares(traced: dict) -> dict[str, float]:
    spans = traced["layers"]
    return {layer: sum(spans.get(n, {}).get("self_s", 0.0) for n in names) / traced["wall_s"]
            for layer, names in LAYERS.items()}


def summarize(workload: str, rounds: list[list[dict]], trace: int, setup=None):
    """Aggregate rounds, and the set-up measurement (seconds, slowdowns)
    of an untraced run, into (metrics, attempted, failed, correct).
    Times are divided by the run's mean machine slowdown."""
    workers = [w for pair in rounds for w in pair]
    speeds = [s for w in workers for s in w["speeds"]] + (setup[1] if setup else [])
    slowdown = statistics.mean(speeds)
    # The mean round, not the median: the slowdown is a mean over the run,
    # and pairing it with the median round left 1.5-2x more spread
    # between runs (measured over ten seeds per workload).
    raw_wall = statistics.mean(w["wall_s"] for w in workers if not w["trace"])
    print(f"{workload}: {len(rounds)} round(s), mean raw wall_s {raw_wall:.4f}, "
          f"mean machine slowdown {slowdown:.3f} over {len(speeds)} samples", file=sys.stderr)
    outcomes = [o for w in workers for o in w["outcomes"]]
    failed = [o for o in outcomes if _failed(o)]
    for o in failed:
        for kind in ("defects", "problems"):
            for msg in o[kind]:
                label = "known defect" if kind == "defects" else "FAILED"
                print(f"{label}: {o['op']}: {msg}", file=sys.stderr)
    correct = not any(o["problems"] for o in outcomes)

    if not trace:
        metrics = {
            "wall_s": raw_wall / slowdown,
            "setup_s": setup[0] / slowdown,
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        units = END_TO_END
    else:
        fired = set()
        for _, traced in rounds:
            fired |= {n for n, s in traced["layers"].items() if s["calls"]}
            fired |= set(traced["setup_layers"])
        missing = [n for n in EXPECTED_SPANS[workload] if n not in fired]
        if missing:
            raise BenchmarkError(f"expected spans never fired on {workload}: {missing}")
        per_round = [layer_metrics(plain, traced, slowdown) for plain, traced in rounds]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        shares = [layer_shares(traced) for _, traced in rounds]
        med = {k: statistics.median(s[k] for s in shares) for k in LAYERS}
        print("self-time share by layer: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(med.items(), key=lambda kv: -kv[1])),
            file=sys.stderr)
        print("spans: " + ", ".join(traced["spans_file"] for _, traced in rounds),
              file=sys.stderr)
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return result, len(outcomes), len(failed), correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="elltowers benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "elltowers" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'elltowers'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # report_cli draws the corpus towers from the program
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        kill_at = time.monotonic() + RUN_LIMIT_S
        count = round_count(args.workload, args.seconds, args.trace)
        setup = (None if args.trace
                 else measure_setup(args.workload, args.seed, count, outdir, kill_at))
        modes = (0, 1) if args.trace else (0,)
        rounds = [[run_round(args.workload, args.seed, count, r, m, outdir, kill_at)
                   for m in modes] for r in range(count)]
        metrics, attempted, failed, correct = summarize(args.workload, rounds, args.trace,
                                                        setup)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
