"""Self-tests of the benchmark: oracle, generator, tracing and metrics.

    python3 perfbench/selftest.py

Runs in a few seconds; imports the program from the checkout's src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from elltowers import Tower, cli, corpus  # noqa: E402
from elltowers.towerspec import build_assignment, parse_tower_spec  # noqa: E402


def _tower(doc, mt_level=None):
    return Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=mt_level)


def _counted(doc, depth):
    tower = _tower(doc)
    kappas = [tower.kappa(n) for n in range(depth + 1)]
    norms = [tower.level_norm(i) for i in range(1, depth + 1)]
    return kappas, norms


class OracleTest(unittest.TestCase):
    def test_accepts_every_corpus_tower(self):
        for entry in corpus.CORPUS:
            kappas, norms = _counted(entry.spec, entry.depth)
            self.assertEqual(oracle.check_kappas(oracle.TowerData(entry.spec), kappas, norms),
                             [], entry.name)
            self.assertEqual(kappas, [entry.kappa(n) for n in range(entry.depth + 1)])

    def test_flags_a_corrupted_norm(self):
        entry = corpus.BOUQUET2_SQRT17_ELL2
        tower = oracle.TowerData(entry.spec)
        kappas, norms = _counted(entry.spec, entry.depth)
        bad = list(norms)
        bad[4] += 1
        problems = oracle.check_kappas(tower, kappas, bad)
        self.assertTrue(any("N_5 mod" in p for p in problems), problems)

    def test_flags_a_wrong_kappa_even_when_consistent_with_its_norm(self):
        entry = corpus.PARALLEL4_ELL2
        tower = oracle.TowerData(entry.spec)
        kappas, norms = _counted(entry.spec, entry.depth)
        wrong_k, wrong_n = list(kappas), list(norms)
        wrong_k[-1] *= 3  # the product identity still holds after both edits
        wrong_n[-1] *= 3
        self.assertTrue(oracle.check_kappas(tower, wrong_k, wrong_n))
        wrong_k = list(kappas)
        wrong_k[2] += 1
        self.assertTrue(oracle.check_kappas(tower, wrong_k, norms))

    def test_sqrt_residue_matches_its_definition(self):
        for d, ell, n, branch in ((17, 2, 12, 1), (41, 2, 9, 7), (2, 7, 5, 3), (10, 3, 8, 2)):
            x = oracle.sqrt_residue(d, ell, n, branch)
            self.assertEqual((x * x - d) % ell**n, 0)
        self.assertEqual(oracle.sqrt_residue(17, 2, 8, 1),
                         build_assignment(parse_tower_spec(corpus.BOUQUET2_SQRT17_ELL2.spec))
                         .voltages[0].residue)

    def _report(self, doc, levels):
        path = HERE / "out" / "selftest-spec.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["report", str(path), "--levels", str(levels),
                             "--budget-ms", "200", "--json"])
        path.unlink()
        self.assertEqual(code, 0)
        return json.loads(buf.getvalue())

    def test_report_checks(self):
        entry = corpus.BOUQUET4_ELL3
        tower = oracle.TowerData(entry.spec)
        doc = self._report(entry.spec, entry.depth)
        self.assertEqual(oracle.check_report(tower, entry.depth, doc, entry), ([], []))

        wrong = json.loads(json.dumps(doc))
        wrong["levels"][3]["kappa"] = str(int(wrong["levels"][3]["kappa"]) * 7)
        _, problems = oracle.check_report(tower, entry.depth, wrong, entry)
        self.assertTrue(any("kappa_3" in p for p in problems), problems)

        small = json.loads(json.dumps(doc))
        row = next(r for r in small["primes"] if r["p"] == 17)
        row["predicted"] = [0] * len(row["predicted"])
        defects, problems = oracle.check_report(tower, entry.depth, small, entry)
        self.assertEqual(defects, [])
        self.assertTrue(any("p=17" in p for p in problems), problems)

    def test_known_defect_is_reported_as_such(self):
        entry = corpus.BOUQUET4_ELL3_SKEW
        doc = self._report(entry.spec, entry.depth)
        defects, problems = oracle.check_report(oracle.TowerData(entry.spec), entry.depth,
                                                doc, entry)
        self.assertEqual(problems, [])
        self.assertTrue(any("p=22480434859526947" in d for d in defects), defects)


class GeneratorTest(unittest.TestCase):
    def test_deterministic_for_a_seed(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.run_ops(w, 7, 3), workloads.run_ops(w, 7, 3))
            self.assertNotEqual([o.doc for o in workloads.run_ops(w, 7, 3)[0]],
                                [o.doc for o in workloads.run_ops(w, 8, 3)[0]])

    def test_no_tower_repeats_within_a_run(self):
        for w in workloads.WORKLOADS:
            docs = [json.dumps(o.doc, sort_keys=True)
                    for ops in workloads.run_ops(w, 3, 4) for o in ops if o.corpus is None
                    and o.doc is not workloads.ELL7_TWO_SQRT]
            self.assertEqual(len(docs), len(set(docs)), w)

    def test_report_runs_share_their_towers_across_seeds(self):
        def towers(seed, rounds):
            return sorted(json.dumps(o.doc, sort_keys=True)
                          for ops in workloads.run_ops("report_cli", seed, rounds) for o in ops)
        self.assertEqual(towers(1, 3), towers(2, 3))
        self.assertNotEqual(towers(1, 3), towers(1, 4))

    def test_every_tower_is_valid_with_a_unit_cycle(self):
        for w in workloads.WORKLOADS:
            for op in workloads.run_ops(w, 11, 1)[0]:
                self.assertTrue(workloads.has_unit_cycle(op.doc), op.label)
                _tower(op.doc, op.mt_level)  # validates; raises on a disconnected tower


class TracingTest(unittest.TestCase):
    def test_decimal_digits(self):
        for n in (0, 9, 10, 99, 100, 10**50 - 1, 10**50, -(10**70) - 3, 2**1000):
            self.assertEqual(tracing.decimal_digits(n), len(str(abs(n))))

    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, None, 0, None], ["b", 1.0, 4.0, 0, 0, {"order": 5}],
                 ["b", 5.0, 6.0, 0, 0, {"order": 9}], ["c", 2.0, 3.0, 1, 0, None],
                 ["prep", 20.0, 21.0, None, None, None]]
        s = tracing.summarize(spans)
        self.assertAlmostEqual(s["a"]["self_s"], 6.0)
        self.assertAlmostEqual(s["b"]["self_s"], 3.0)
        self.assertEqual(s["b"]["calls"], 2)
        self.assertEqual(s["b"]["max"]["order"], 9)
        self.assertNotIn("prep", s)
        self.assertIn("prep", tracing.summarize(spans, in_ops=False))

    def test_every_wrapped_name_exists(self):
        import elltowers
        for module, attr, _, _ in tracing.WRAPPED:
            self.assertTrue(callable(getattr(getattr(elltowers, module), attr)), attr)


class MetricsTest(unittest.TestCase):
    """Metric extraction yields exactly the names BENCHMARK.json lists."""

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        quiet = contextlib.redirect_stderr(io.StringIO())  # summarize reports on stderr
        quiet.__enter__()
        self.addCleanup(quiet.__exit__, None, None, None)

    def _worker(self, trace):
        layers = {name.rpartition(".")[0]: {"calls": 1, "self_s": 0.5, "max": {}, "flags": {}}
                  for name in run.PER_LAYER}
        doc = {"trace": trace, "wall_s": 2.0, "peak_rss_mb": 30.0,
               "speeds": [1.0, 1.1],
               "outcomes": [{"op": "x", "defects": [], "problems": [], "levels_factored": 3}]}
        if trace:
            doc.update(layers=layers, setup_layers={}, spans_file="x.jsonl")
        return doc

    def test_end_to_end_names(self):
        metrics, attempted, failed, correct = run.summarize(
            "padic_deep", [[self._worker(0)]], 0, (0.3, [1.0]))
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)
        self.assertEqual((attempted, failed, correct), (1, 0, True))

    def test_per_layer_names(self):
        rounds = [[self._worker(0), self._worker(1)]]
        for w in workloads.WORKLOADS:
            rounds[0][1]["layers"].update({n: {"calls": 1, "self_s": 0.1, "max": {}, "flags": {}}
                                           for n in run.EXPECTED_SPANS[w]})
        metrics, _, _, _ = run.summarize("report_cli", rounds, 1, None)
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)
        better = {m["name"]: m["better"] for m in self.spec["per_layer"]}
        self.assertEqual({k: b for k, (_, b) in run.PER_LAYER.items()}, better)

    def test_missing_span_fails_loudly(self):
        rounds = [[self._worker(0), self._worker(1)]]
        layers = rounds[0][1]["layers"]
        layers.update({n: {"calls": 1, "self_s": 0.1, "max": {}, "flags": {}}
                       for n in run.EXPECTED_SPANS["cover_check"]})
        run.summarize("cover_check", rounds, 1, None)
        del layers["intdet.det_mod"]
        with self.assertRaises(run.BenchmarkError):
            run.summarize("cover_check", rounds, 1, None)


class NoProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result_when_the_program_is_absent(self):
        bare = HERE / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "padic_deep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
