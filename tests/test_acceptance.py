"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run with -s to
see them live).  Tolerances are exact equality throughout; the stated
wall-clock limits are asserted.
"""

import random
import time

from elltowers import (
    Tower,
    analyze_prime,
    classify_omega,
    derived_graph,
    iwasawa_fit_ell,
    spanning_tree_count,
)
from elltowers.analysis import InconclusiveError
from elltowers.corpus import (
    BOUQUET2_SQRT17_ELL2,
    BOUQUET3_ELL5,
    BOUQUET4_ELL3,
    BOUQUET4_ELL3_SKEW,
    CORPUS,
    PARALLEL4_ELL2,
    THETA_ELL5,
)
from elltowers.factorint import factor_kappa, is_certified_prime, ord_p
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import check_tower_properties, random_voltage_tower, spanning_trees_bruteforce


def _tower(entry) -> Tower:
    return Tower(build_assignment(parse_tower_spec(entry.spec)))


def _criterion(cid: int, description: str, limit_s: float, fn) -> None:
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {cid} took {elapsed:.1f}s, limit {limit_s}s"
    print(f"ACCEPTANCE {cid}: PASS - {description} ({elapsed:.2f}s)")


def _assert_factored_table(tower: Tower, entry, budget_exhausted_ok=False) -> None:
    for n in range(entry.depth + 1):
        kappa = tower.kappa(n)
        assert kappa == entry.kappa(n), f"{entry.name} kappa_{n}"
        fact = factor_kappa(kappa)
        if fact.complete:
            assert dict(fact.factors) == entry.kappa_factors[n], f"{entry.name} level {n}"
        else:
            assert budget_exhausted_ok, f"{entry.name} level {n} not fully factored"
            found = dict(fact.factors)
            want = entry.kappa_factors[n]
            assert all(want.get(p) == e for p, e in found.items())


def test_criterion_1_bouquet3_both_routes():
    def run():
        tower = _tower(BOUQUET3_ELL5)
        expected = [1, 3**4 * 5, 3**24 * 5**2, 3**124 * 5**3, 3**624 * 5**4]
        # resultant route through level 4
        assert [tower.kappa(n) for n in range(5)] == expected
        # independent matrix-tree determinants through level 2
        va = tower.va
        for n in (1, 2):
            assert spanning_tree_count(derived_graph(va, n)) == expected[n]

    _criterion(1, "bouquet-3 tower exact by resultant and matrix-tree routes", 60, run)


def test_criterion_2_bouquet4_table_and_laws():
    def run():
        tower = _tower(BOUQUET4_ELL3)
        _assert_factored_table(tower, BOUQUET4_ELL3)  # largest prime 19441
        r2 = analyze_prime(tower, 2, 4)
        assert (r2.mu, r2.n0, r2.nu) == (1, 2, 1)
        for n in range(1, 5):
            assert r2.observed[n] == 3**n + 1
        r17 = analyze_prime(tower, 17, 4)
        assert r17.observed == (0, 0, 2, 2, 2)
        assert all(v == 2 for v in r17.observed[2:])

    _criterion(2, "bouquet-4 factored table, ord_2 = 3^n + 1, ord_17 settles at 2", 60, run)


def test_criterion_3_theta_bounded_support():
    def run():
        tower = _tower(THETA_ELL5)
        assert classify_omega(tower.f).verdict == "bounded"
        for n in range(THETA_ELL5.depth + 1):
            fact = factor_kappa(tower.kappa(n))
            assert fact.complete
            assert set(p for p, _ in fact.factors) <= {2, 3, 5}, f"level {n}"
        r2 = analyze_prime(tower, 2, 3)
        for n in range(1, 4):
            assert r2.observed[n] == 5**n - 1

    _criterion(3, "theta tower bounded with support in {2,3,5}, ord_2 = 5^n - 1", 120, run)


def test_criterion_4_skew_bouquet_table():
    def run():
        tower = _tower(BOUQUET4_ELL3_SKEW)
        _assert_factored_table(tower, BOUQUET4_ELL3_SKEW, budget_exhausted_ok=True)
        assert classify_omega(tower.f).verdict == "unbounded"
        expected_ords = {2: (0, 4, 4, 4, 4), 3: (0, 1, 2, 3, 4), 127: (0, 0, 2, 2, 2)}
        for p, want in expected_ords.items():
            got = tuple(ord_p(tower.kappa(n), p) for n in range(5))
            assert got == want, (p, got)

    _criterion(4, "skew bouquet-4 table with 17-digit prime, exact ords for 2,3,127", 120, run)


def test_criterion_5_four_parallel_edges():
    def run():
        tower = _tower(PARALLEL4_ELL2)
        _assert_factored_table(tower, PARALLEL4_ELL2)
        fit = iwasawa_fit_ell(tower.ord_ell_sequence(6), 2)
        assert (fit.mu, fit.lam, fit.nu, fit.onset) == (0, 5, 2, 2)
        assert classify_omega(tower.f).verdict == "unbounded"

    _criterion(5, "four parallel edges at ell=2: table to kappa_6, fit (0,5,2)", 60, run)


def test_criterion_6_sqrt17_tower():
    def run():
        spec = parse_tower_spec(BOUQUET2_SQRT17_ELL2.spec)
        assert spec.precision >= 8
        tower = _tower(BOUQUET2_SQRT17_ELL2)
        _assert_factored_table(tower, BOUQUET2_SQRT17_ELL2)
        fit = iwasawa_fit_ell(tower.ord_ell_sequence(7), 2)
        assert (fit.mu, fit.lam, fit.nu, fit.onset) == (0, 5, -3, 3)
        assert classify_omega(tower.f).verdict == "inapplicable"
        r17 = analyze_prime(tower, 17, 7)
        assert r17.observed == (0, 0, 0, 0, 2, 2, 2, 2)

    _criterion(6, "sqrt(17) voltage tower to kappa_7, fit (0,5,-3), inapplicable", 120, run)


def test_criterion_7_random_property_suite():
    def run():
        rng = random.Random(577)
        for _ in range(200):
            va = random_voltage_tower(rng, ells=(2, 3, 5), max_vertices=4,
                                      max_edges=6, max_voltage=10)
            check_tower_properties(va, depth=3, pmax=50)

    _criterion(7, "200 random towers: identity, divisibility, palindromy, laws", 600, run)


def test_criterion_8_matrix_tree_oracle():
    def run():
        rng = random.Random(8128)
        for _ in range(100):
            from util import random_connected_multigraph

            graph = random_connected_multigraph(rng, max_vertices=4, max_edges=8)
            assert spanning_tree_count(graph) == spanning_trees_bruteforce(graph)

    _criterion(8, "matrix-tree equals subset-enumeration on 100 random graphs", 120, run)


def test_criterion_9_tail_law_first_differences():
    def run():
        for entry in CORPUS:
            tower = _tower(entry)
            ell = tower.ell
            for p in range(2, 101):
                if p == ell or not is_certified_prime(p):
                    continue
                try:
                    report = analyze_prime(tower, p, entry.depth)
                except InconclusiveError:
                    continue
                assert report.observed == report.predicted, (entry.name, p)
                for n in range(max(report.n0, 0), entry.depth):
                    diff = report.observed[n + 1] - report.observed[n]
                    assert diff == report.mu * (ell ** (n + 1) - ell**n), \
                        (entry.name, p, n)
                if report.mu == 0 and report.n1 is not None:
                    # certified constancy beyond n1
                    tail = report.observed[min(report.n1, entry.depth):]
                    assert all(v == tail[0] for v in tail), (entry.name, p)

    _criterion(9, "first differences equal mu*(ell^(n+1) - ell^n) beyond n0", 600, run)
