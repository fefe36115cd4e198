"""The valuation machinery against the reference towers.

Claims verified here:
  - level norms satisfy the product identity against matrix-tree counts
  - inertia degrees and eventual prime counts match classical cyclotomic
    splitting data
  - n0, mu, nu reproduce every pinned reference value
  - predicted valuations equal observed ones wherever both exist
  - stabilization bounds certify the observed constancy
  - the ell-part fit recovers (mu, lambda, nu, onset) on all six towers
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from elltowers import (
    Multigraph,
    PrimeEqualsEllError,
    Tower,
    VoltageAssignment,
    analyze_prime,
    derived_graph,
    eventual_prime_count,
    inertia_degree,
    iwasawa_fit_ell,
    level_norm,
    mu_invariant,
    n0_search,
    spanning_tree_count,
    stabilization_bounds,
)
from elltowers import analysis, multimodular
from elltowers.analysis import (
    DisconnectedTowerError,
    InapplicableError,
    InsufficientDataError,
    multiplicative_order,
)
from elltowers.corpus import CORPUS
from elltowers.factorint import ord_p
from elltowers.genpoly import GenPoly, determinant, voltage_matrix
from elltowers.intpoly import cyclotomic, resultant
from elltowers.multimodular import PrimePoolExhaustedError
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import substitute_power

TOWERS = {}
for entry in CORPUS:
    TOWERS[entry.name] = Tower(build_assignment(parse_tower_spec(entry.spec)))


def tower(name) -> Tower:
    return TOWERS[name]


# -- level norms ----------------------------------------------------------------

def test_level_norm_bouquet3():
    assert tower("bouquet3-ell5").level_norm(1) == 2025  # 5 * kappa_1 / kappa_0


def test_level_norm_theta():
    assert tower("theta-ell5").level_norm(1) == 400  # 5 * 240 / 3


def test_level_norm_level_zero_convention():
    assert level_norm(tower("theta-ell5").f, 0) == 1


def test_level_norm_of_constant():
    from elltowers import GenPoly

    c = GenPoly.constant(5, 3, 7)
    assert level_norm(c, 1) == 7**4
    assert level_norm(c, 2) == 7**20


def test_norm_valuation_is_phi_times_mu_beyond_n0():
    # ord_p(N_i) = phi(ell^i) * mu for i >= n0
    t = tower("bouquet3-ell5")
    for i in (1, 2, 3, 4):
        assert ord_p(t.level_norm(i), 3) == (5**i - 5 ** (i - 1)) * 1
    t2 = tower("bouquet4-ell3")
    for i in (2, 3, 4):  # n0 = 2 for p = 2
        assert ord_p(t2.level_norm(i), 2) == (3**i - 3 ** (i - 1)) * 1


# -- the multi-modular norm engine against the subresultant --------------------

@st.composite
def voltage_specs(draw):
    """Tower specs on 1-2 vertices with integer, padic and sqrt voltages.
    ell = 7 stops at precision 3: the subresultant oracle alone takes
    seconds per norm at 7^4."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    precision = draw(st.integers(1, 3 if ell == 7 else 4))
    names = ["v1", "v2"][: draw(st.integers(1, 2))]
    edges = []
    for _ in range(draw(st.integers(len(names), 3))):
        kind = draw(st.sampled_from(["integer", "padic", "sqrt"]))
        if kind == "integer":
            voltage = str(draw(st.integers(-20, 20)))
        elif kind == "padic":
            digits = st.lists(st.integers(0, ell - 1), min_size=precision, max_size=precision)
            voltage = {"kind": "padic", "digits": draw(digits)}
        else:
            branch = draw(st.sampled_from([1, 3, 5, 7] if ell == 2 else range(1, ell)))
            radicand = branch * branch + (8 if ell == 2 else ell) * draw(st.integers(1, 40))
            voltage = {"kind": "sqrt", "radicand": radicand, "branch": branch}
        edges.append({"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
                      "voltage": voltage})
    return {"ell": ell, "precision": precision, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=40)
@given(voltage_specs())
def test_level_norm_matches_subresultant(doc):
    va = build_assignment(parse_tower_spec(doc))
    f = determinant(voltage_matrix(va))
    ell = va.ell
    for i in range(1, min(doc["precision"], 4) + 1):
        reduced = f.reduce_level(i)
        expected = 0 if reduced.is_zero else resultant(cyclotomic(ell**i), reduced)
        norm = level_norm(f, i)
        assert norm == expected, (doc, i)
        if ell**i > 2:  # N_i = M_i^2
            assert math.isqrt(norm) ** 2 == norm


def test_level_norm_recovers_sign_of_real_subfield_norm():
    # M_1 = (-7)^3 = -343: a lost sign would square a wrong residue
    assert level_norm(GenPoly.constant(7, 2, -7), 1) == 7**6
    assert level_norm(GenPoly.constant(7, 2, -7), 2) == 7**42


def test_level_norm_non_symmetric_takes_all_units(monkeypatch):
    bounds = []

    def spy(bound, modulus=1):
        bounds.append(bound)
        return multimodular.primes_for_bound(bound, modulus)

    monkeypatch.setattr(analysis, "primes_for_bound", spy)
    f = GenPoly(5, 3, ((0, 1), (1, 2), (7, -3)))  # 1 + 2T - 3T^7, not T -> 1/T symmetric
    for i in (1, 2, 3):
        assert level_norm(f, i) == resultant(cyclotomic(5**i), f.reduce_level(i))
    # bounds ||f||_1^phi(5^i): the product ran over every unit
    assert bounds == [6 ** (4 * 5 ** (i - 1)) for i in (1, 2, 3)]


def test_level_norm_raises_when_primes_run_out(monkeypatch):
    # below 64 the only prime = 1 (mod 16) is 17, far short of the bound
    monkeypatch.setattr(multimodular, "PRIME_CEILING", 64)
    f = GenPoly(2, 4, ((0, 4), (1, -1), (15, -1)))
    with pytest.raises(PrimePoolExhaustedError):
        level_norm(f, 4)


def test_level_norm_cross_check_failure_raises(monkeypatch):
    t = Tower(build_assignment(parse_tower_spec(CORPUS[0].spec)))
    monkeypatch.setattr(analysis, "resultant", lambda a, b: 1)
    with pytest.raises(ArithmeticError, match="cross-check"):
        t.level_norm(1)


def test_subresultant_only_at_checked_levels(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(a.degree)
        return resultant(a, b)

    monkeypatch.setattr(analysis, "resultant", spy)
    entry = CORPUS[0]
    t = Tower(build_assignment(parse_tower_spec(entry.spec)), mt_check_level=2)
    t.kappa(4)
    ell = t.ell
    assert calls == [ell - 1, ell * (ell - 1)]


def test_kappa_running_product_any_order():
    entry = next(e for e in CORPUS if e.name == "bouquet4-ell3")
    deep_first = Tower(build_assignment(parse_tower_spec(entry.spec)))
    in_order = Tower(build_assignment(parse_tower_spec(entry.spec)))
    in_order_kappas = [in_order.kappa(n) for n in range(5)]
    assert deep_first.kappa(4) == in_order_kappas[4]
    for n in range(5):
        assert in_order.norm_product(n) == 3**n * in_order.kappa(n)


def test_negative_levels_are_rejected():
    # below level 0 there is no cached product for norm_product to build on
    t = Tower(VoltageAssignment.from_integers(Multigraph.bouquet(3), 5, [1, 1, 1]))
    for call in (t.kappa, t.norm_product, t.level_norm):
        with pytest.raises(ValueError, match="level must be >= 0"):
            call(-1)


# -- splitting data ---------------------------------------------------------------

def test_multiplicative_order():
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(17, 9) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_inertia_degree_examples():
    assert inertia_degree(2, 3, 2) == (6, 1)
    assert inertia_degree(17, 3, 2) == (2, 3)   # 3 primes above 17 in Q(zeta_9)
    assert inertia_degree(109, 3, 3) == (1, 18)  # 109 = 1 mod 27


def test_eventual_prime_counts():
    assert eventual_prime_count(17, 3) == 3
    assert eventual_prime_count(53, 3) == 9
    assert eventual_prime_count(109, 3) == 18


def test_inertia_rejects_p_equal_ell():
    with pytest.raises(PrimeEqualsEllError):
        inertia_degree(3, 3, 1)


# -- n0 ---------------------------------------------------------------------------

def test_n0_bouquet4_p2():
    t = tower("bouquet4-ell3")
    mu, g = mu_invariant(t.f, 2)
    assert mu == 1
    search = n0_search(g, 2)
    assert search.n0 == 2 and search.certified
    assert search.root_levels == (1,)


def test_n0_bouquet3_p3():
    t = tower("bouquet3-ell5")
    mu, g = mu_invariant(t.f, 3)
    search = n0_search(g, 3)
    assert search.n0 == 1 and search.certified and not search.root_levels


def test_n0_theta_p3():
    t = tower("theta-ell5")
    mu, g = mu_invariant(t.f, 3)
    assert mu == 0
    assert n0_search(g, 3).n0 == 1


def test_n0_requires_unit_content():
    t = tower("bouquet3-ell5")
    with pytest.raises(ValueError):
        n0_search(t.f, 3)  # content 3 not removed


def test_n0_inconclusive_when_roots_persist_at_top_level():
    from elltowers import GenPoly
    from elltowers.analysis import InconclusiveError

    # non-integral declaration, root of T + 2 mod 5 is a primitive 4th
    # root of unity (Phi_4 = (T+2)(T+3) mod 5) at the top level 2
    g = GenPoly(2, 2, ((1, 1), (0, 2)), integral=False)
    with pytest.raises(InconclusiveError):
        n0_search(g, 5)


# -- per-prime analysis ------------------------------------------------------------

def test_analyze_bouquet3_p3():
    r = analyze_prime(tower("bouquet3-ell5"), 3, 4)
    assert (r.mu, r.n0, r.nu) == (1, 1, -1)
    assert r.predicted[4] == 624
    assert r.observed == r.predicted
    assert r.closed_form() == "ord_3(kappa_n) = 5^n - 1 for n >= 1"


def test_analyze_bouquet4_p2():
    r = analyze_prime(tower("bouquet4-ell3"), 2, 4)
    assert (r.mu, r.n0, r.nu) == (1, 2, 1)
    assert r.observed == (0, 4, 10, 28, 82)
    assert r.observed[3] == 28
    assert r.closed_form_from == 1  # 3^n + 1 already matches at n = 1


def test_analyze_skew_p2_constant():
    r = analyze_prime(tower("bouquet4-ell3-skew"), 2, 4)
    assert r.mu == 0
    assert r.nu == 4
    assert r.observed == (0, 4, 4, 4, 4)
    assert r.closed_form_from == 1


def test_analyze_theta_p7_never_divides():
    r = analyze_prime(tower("theta-ell5"), 7, 3)
    assert r.mu == 0 and not r.divides_any
    assert all(v == 0 for v in r.observed)


def test_analyze_rejects_p_equal_ell():
    with pytest.raises(PrimeEqualsEllError):
        analyze_prime(tower("bouquet3-ell5"), 5, 3)


def test_analyze_sqrt17_tower_p17():
    r = analyze_prime(tower("bouquet2-sqrt17-ell2"), 17, 7)
    assert not r.certified  # empirical: no integral-exponent bound exists
    assert r.observed == (0, 0, 0, 0, 2, 2, 2, 2)
    assert r.n0 == 5 and r.root_levels == (4,)
    assert r.n1 is None  # stabilization bounds need integral exponents


def test_observed_matches_predicted_on_corpus():
    for entry in CORPUS:
        t = tower(entry.name)
        for p in (2, 3, 5, 7, 11, 13, 17):
            if p == t.ell:
                continue
            r = analyze_prime(t, p, entry.depth)
            assert r.observed == r.predicted, (entry.name, p)
            assert all(b >= a for a, b in zip(r.observed, r.observed[1:]))


# -- stabilization bounds ------------------------------------------------------------

def test_stabilization_bounds_17():
    t = tower("bouquet4-ell3")
    u, _ = t.f.integerize()
    b = stabilization_bounds(u, 17, 3)
    assert b.n1 == 3
    assert b.eventual_primes == 3
    assert math.isclose(b.log_bound, math.log(18, 3))
    # the bound certifies what the table shows: constant 2 from n = 2 on
    r = analyze_prime(t, 17, 4)
    assert r.observed == (0, 0, 2, 2, 2)
    assert all(v == r.observed[b.n1] for v in r.observed[b.n1:])


def test_stabilization_bounds_53():
    t = tower("bouquet4-ell3")
    u, _ = t.f.integerize()
    b = stabilization_bounds(u, 53, 3)
    assert b.n1 == 4 and b.eventual_primes == 9
    r = analyze_prime(t, 53, 4)
    assert r.observed == (0, 0, 0, 2, 2)


def test_stabilization_constant_poly():
    from elltowers.intpoly import IntPoly

    b = stabilization_bounds(IntPoly((7,)), 5, 3)
    assert b.n1 == 1 and b.log_bound == 0.0


def test_stabilization_inapplicable_when_mu_positive():
    t = tower("bouquet3-ell5")
    u, _ = t.f.integerize()  # content 3
    with pytest.raises(InapplicableError):
        stabilization_bounds(u, 3, 5)


def test_n0_below_n1_when_defined():
    for name in ("bouquet4-ell3", "bouquet4-ell3-skew", "parallel4-ell2"):
        t = tower(name)
        u, _ = t.f.integerize()
        for p in (7, 11, 13, 17, 19, 23):
            if p == t.ell:
                continue
            mu, g = mu_invariant(t.f, p)
            if mu:
                continue
            search = n0_search(g, p)
            bounds = stabilization_bounds(u, p, t.ell)
            assert search.n0 <= bounds.n1
            assert search.searched_to + 1 == bounds.n1


# -- the ell-part fit -----------------------------------------------------------------

def test_fit_examples():
    fit = iwasawa_fit_ell([0, 1, 2, 3, 4], 5)
    assert (fit.mu, fit.lam, fit.nu, fit.onset) == (0, 1, 0, 1)
    fit = iwasawa_fit_ell([2, 5, 12, 17, 22, 27, 32], 2)
    assert (fit.mu, fit.lam, fit.nu, fit.onset) == (0, 5, 2, 2)
    fit = iwasawa_fit_ell([0, 2, 5, 12, 17, 22, 27, 32], 2)
    assert (fit.mu, fit.lam, fit.nu, fit.onset) == (0, 5, -3, 3)


def test_fit_with_growing_mu():
    ell = 3
    vals = [1 * ell**n + 2 * n + 5 for n in range(6)]
    fit = iwasawa_fit_ell(vals, ell)
    assert (fit.mu, fit.lam, fit.nu, fit.onset) == (1, 2, 5, 1)


def test_fit_failure_reported():
    fit = iwasawa_fit_ell([0, 7, 1, 9, 2, 8], 3)
    assert not fit.found


def test_fit_needs_four_points():
    with pytest.raises(InsufficientDataError):
        iwasawa_fit_ell([1, 2, 3], 3)


# -- product identity ------------------------------------------------------------------

def fresh_tower(name) -> Tower:
    """An uncached tower, for tests that corrupt its state."""
    entry = next(e for e in CORPUS if e.name == name)
    return Tower(build_assignment(parse_tower_spec(entry.spec)))


def test_product_identity_bouquet3_depth2():
    # Tower.kappa checks ell^n kappa_n(matrix-tree) == kappa_0 N_1 ... N_n
    t = fresh_tower("bouquet3-ell5")
    assert t.mt_check_level >= 2
    for n in (1, 2):
        assert 5**n * t.kappa(n) == t.norm_product(n)
        assert t.kappa(n) == spanning_tree_count(derived_graph(t.va, n))


def test_product_identity_theta_depth1():
    t = fresh_tower("theta-ell5")
    assert t.kappa(1) == 240
    assert 5 * 240 == 3 * t.level_norm(1)


def test_product_identity_depth0_vacuous():
    # at level 0 the identity reads kappa_0 = kappa_0
    t = fresh_tower("theta-ell5")
    assert t.kappa(0) == t.norm_product(0) == spanning_tree_count(t.va.graph) == 3


def test_corrupted_norm_fails_the_matrix_tree_check():
    t = fresh_tower("theta-ell5")
    # 3 * 405 is still divisible by 5, so only the matrix-tree count catches it
    t._norms[1] = t.level_norm(1) + 5
    with pytest.raises(ArithmeticError, match="matrix-tree cross-check"):
        t.kappa(1)


# -- tower plumbing ---------------------------------------------------------------------

def test_tower_rejects_disconnected():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(2), 3, [0, 3], 2)
    with pytest.raises(DisconnectedTowerError):
        Tower(va)


def test_tower_rejects_invalid_graph():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(1), 3, [1], 2)
    with pytest.raises(DisconnectedTowerError):
        Tower(va)


def test_kappa_divisibility_along_corpus():
    for entry in CORPUS:
        t = tower(entry.name)
        ks = [t.kappa(n) for n in range(entry.depth + 1)]
        for a, b in zip(ks, ks[1:]):
            assert b % a == 0


def test_galois_conjugate_norm_stability():
    # |Res(Phi_{ell^i}, reduce(f(T^c), i))| is independent of c coprime to ell
    rng = random.Random(17)
    for name in ("bouquet4-ell3", "theta-ell5", "parallel4-ell2"):
        t = tower(name)
        for i in (1, 2):
            base = abs(level_norm(t.f, i))
            for _ in range(3):
                c = rng.randrange(1, t.ell**i)
                while c % t.ell == 0:
                    c = rng.randrange(1, t.ell**i)
                assert abs(level_norm(substitute_power(t.f, c), i)) == base
