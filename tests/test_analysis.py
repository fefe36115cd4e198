"""The valuation machinery against the reference towers.

Claims verified here:
  - level norms satisfy the product identity against matrix-tree counts
  - n1, the first level whose order of p mod ell^i exceeds dbar,
    matches sympy's n_order, flat orders (p = +-1 mod ell^k) included
  - n0, mu, nu reproduce every pinned reference value
  - predicted valuations equal observed ones wherever both exist
  - the stabilization bound n1 certifies the observed constancy
  - the ell-part fit recovers (mu, lambda, nu, onset) on all six towers
"""

import math
import random
from itertools import chain, count, islice

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from elltowers import (
    Multigraph,
    PrecisionError,
    PrimeEqualsEllError,
    Tower,
    VoltageAssignment,
    analyze_prime,
    derived_graph,
    iwasawa_fit_ell,
    level_norm,
    mu_invariant,
    n0_search,
    spanning_tree_count,
)
from elltowers import analysis
from elltowers.analysis import (
    DisconnectedTowerError,
    InconclusiveError,
    InsufficientDataError,
    splitting,
)
from elltowers.corpus import CORPUS
from elltowers.factorint import factor_kappa, ord_p
from elltowers.genpoly import GenPoly, determinant, voltage_matrix
from elltowers.intpoly import cyclotomic, resultant
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import draw_voltage, substitute_power

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
    # a constant takes the packed loops like any f: M_i = c^h with h =
    # phi(ell^i)/2 and N_i = M_i^2, and N_1 = c at ell = 2, integral and
    # ell-adic alike
    for ell in (2, 3, 5, 7, 11):
        for c in (0, 1, -1, 2, -3, 7):
            for integral in (True, False):
                f = GenPoly.constant(ell, 4, c, integral)
                for i in range(1, 5):
                    h = 1 if ell**i == 2 else (ell - 1) * ell ** (i - 1) // 2
                    assert level_norm(f, i) == c**h, (ell, c, integral, i)
    # an ell-adic constant is known to its precision only
    with pytest.raises(PrecisionError):
        level_norm(GenPoly.constant(5, 3, 7, integral=False), 4)


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
    edges = [{"tail": draw(st.sampled_from(names)), "head": draw(st.sampled_from(names)),
              "voltage": draw_voltage(draw, ell, precision)}
             for _ in range(draw(st.integers(len(names), 3)))]
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
        root = level_norm(f, i)
        assert (root * root if ell**i > 2 else root) == expected, (doc, i)


def test_level_norm_recovers_sign_of_real_subfield_norm():
    # M_1 = (-7)^3 = -343: a lost sign would give 343
    assert level_norm(GenPoly.constant(7, 2, -7), 1) == -(7**3)
    assert level_norm(GenPoly.constant(7, 2, -7), 2) == -(7**21)


def test_level_norm_rejects_non_symmetric_f():
    f = GenPoly(5, 3, ((0, 1), (1, 2), (7, -3)))  # 1 + 2T - 3T^7, not T -> 1/T symmetric
    with pytest.raises(ValueError, match="T -> 1/T"):
        level_norm(f, 1)
    integral = GenPoly(5, 3, ((0, 3), (1, -1), (124, -1)), integral=True)  # 3 - T - T^-1
    # V = 3 - x at the roots (-1 +- sqrt 5)/2 of Psi_5: M_1 = 11, N_1 = 121
    assert level_norm(integral, 1) == 11
    with pytest.raises(ValueError, match="T -> 1/T"):
        level_norm(GenPoly(5, 3, ((0, 3), (1, -1), (123, -1)), integral=True), 1)


def test_level_norm_cross_check_failure_raises(monkeypatch):
    # a norm engine that disagrees with the subresultant; resultant itself
    # also serves the norm steps of this integral ell = 5 tower, as
    # Res(Psi_5, Y)
    t = Tower(build_assignment(parse_tower_spec(CORPUS[0].spec)))
    level_norm = analysis.level_norm
    monkeypatch.setattr(analysis, "level_norm", lambda f, i: 2 * level_norm(f, i))
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
    # the cross-check takes Phi_(ell^i) at the checked levels only; every
    # other call is a norm from Q(omega)^+ of the integral ell = 5
    # tower's norm steps, against Psi_ell of degree (ell - 1) / 2
    phis = {(ell - 1) * ell ** (i - 1) for i in range(1, 5)}
    assert [d for d in calls if d in phis] == [ell - 1, ell * (ell - 1)]
    assert all(d == (ell - 1) // 2 for d in calls if d not in phis), calls


def norm_product(t, n):
    """kappa_0 * N_1 * ... * N_n, which the product identity equates
    with ell^n * kappa_n."""
    return t.kappa(0) * math.prod(t.level_norm(i) for i in range(1, n + 1))


def test_kappa_running_product_any_order():
    entry = next(e for e in CORPUS if e.name == "bouquet4-ell3")
    deep_first = Tower(build_assignment(parse_tower_spec(entry.spec)))
    in_order = Tower(build_assignment(parse_tower_spec(entry.spec)))
    in_order_kappas = [in_order.kappa(n) for n in range(5)]
    assert deep_first.kappa(4) == in_order_kappas[4]
    for n in range(5):
        assert norm_product(in_order, n) == 3**n * in_order.kappa(n)


def test_negative_levels_are_rejected():
    # below level 0 there is no cached kappa for kappa to build on
    t = Tower(VoltageAssignment.from_integers(Multigraph.bouquet(3), 5, [1, 1, 1]))
    for call in (t.kappa, t.level_norm):
        with pytest.raises(ValueError, match="level must be >= 0"):
            call(-1)


# -- splitting data ---------------------------------------------------------------

def n1_oracle(p, ell):
    """dbar -> n1, the first level whose order of p mod ell^i (sympy's
    n_order) exceeds dbar, for dbar 0-40."""
    from sympy import n_order

    orders = [n_order(p, ell)]
    while orders[-1] <= 40:
        orders.append(n_order(p, ell ** (len(orders) + 1)))
    return [next(i for i, f in enumerate(orders, start=1) if f > dbar) for dbar in range(41)]


def test_n1_is_the_first_level_whose_order_exceeds_dbar():
    # f_1 = least dbar with n1 > 1, so this pins f_1 <= 40 too: 3 mod 13
    # has order 3, and ell = 2 with p = 3 (mod 4) is the one case where
    # f_2 = 2 f_1 before the orders settle into growing by ell.  The first
    # three primes = +-1 (mod ell^k), k <= 4, keep f_i at 1 or 2 for k
    # levels: 109, the first prime = 1 (mod 27), splits completely in Q(zeta_27)
    from sympy import isprime, primerange

    for ell in (2, 3, 5, 7, 11, 13):
        flat = [islice((p for p in count(ell**k + sign, ell**k) if isprime(p)), 3)
                for k in range(1, 5) for sign in (1, -1)]
        for p in chain(primerange(2, 200), *flat):
            if p != ell:
                expected = n1_oracle(p, ell)
                assert [splitting(p, ell, dbar) for dbar in range(41)] == expected, (p, ell)


def test_splitting_rejects_ell_dividing_p():
    for dbar in (0, 1, 5):
        with pytest.raises(ValueError, match="not a unit"):
            splitting(3, 3, dbar)


# -- n0 ---------------------------------------------------------------------------

def test_n0_bouquet4_p2():
    t = tower("bouquet4-ell3")
    mu, g = mu_invariant(t.f, 2)
    assert mu == 1
    search = n0_search(g, 2)
    assert search.root_levels == (1,)  # n0 = 2


def test_n0_bouquet3_p3():
    t = tower("bouquet3-ell5")
    mu, g = mu_invariant(t.f, 3)
    search = n0_search(g, 3)
    assert not search.root_levels  # n0 = 1


def test_n0_theta_p3():
    t = tower("theta-ell5")
    mu, g = mu_invariant(t.f, 3)
    assert mu == 0
    assert not n0_search(g, 3).root_levels  # n0 = 1


def test_n0_requires_unit_content():
    t = tower("bouquet3-ell5")
    with pytest.raises(ValueError):
        n0_search(t.f, 3)  # content 3 not removed


def test_n0_inconclusive_when_roots_persist_at_top_level():
    # a fresh ell-adic tower (the shared ones are read by later tests) with
    # f = 2T + 5 + 2T^-1 at precision 2: at T = +-sqrt(-1) it is 5, so it
    # vanishes mod 5 at the primitive 4th roots of unity of the top level
    # 2, and at T = -1 (level 1) it is 1
    sqrt17 = next(entry for entry in CORPUS if entry.name == "bouquet2-sqrt17-ell2")
    t = Tower(build_assignment(parse_tower_spec(sqrt17.spec)), mt_check_level=0)
    t.f = GenPoly(2, 2, ((0, 5), (1, 2), (3, 2)), integral=False)
    with pytest.raises(InconclusiveError, match="top searchable level 2"):
        analyze_prime(t, 5, 0)


@st.composite
def ell_adic_specs(draw):
    """A bouquet of three loops, or a theta graph with a loop, at ell in
    {2, 3, 5}, precision up to 4, its first voltage ell-adic."""
    ell = draw(st.sampled_from([2, 3, 5]))
    precision = draw(st.integers(1, 4))
    names = ["v1", "v2"][: draw(st.integers(1, 2))]
    ends = [("v1", "v1")] * 3 if len(names) == 1 else [("v1", "v2")] * 3 + [("v2", "v2")]
    voltages = [draw_voltage(draw, ell, precision, ("padic", "sqrt"))]
    voltages += [draw_voltage(draw, ell, precision) for _ in ends[1:]]
    edges = [{"tail": t, "head": h, "voltage": v} for (t, h), v in zip(ends, voltages)]
    return {"ell": ell, "precision": precision, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=60)
@given(ell_adic_specs())
def test_ell_adic_root_levels_from_norms_match_the_gcd_search(doc):
    # level i has a root of f/p^mu mod p exactly when ord_p(N_i) > mu phi(ell^i),
    # as the F_p gcd finds
    try:
        t = Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=0)
    except DisconnectedTowerError:
        assume(False)
    levels = range(1, t.va.precision + 1)
    norms = [level_norm(t.f, i) for i in levels]
    assume(all(norms))
    primes = sorted({q for m in norms for q, _ in factor_kappa(abs(m), rho_iterations=2000).factors
                     if q < 2**30 and q != t.ell})
    assume(primes)
    for p in primes[:6]:
        _, g = mu_invariant(t.f, p)
        gcd_roots = tuple(i for i in levels if analysis._has_primitive_root(g, p, i))
        event("roots found" if gcd_roots else "no roots")
        if gcd_roots and gcd_roots[-1] == levels[-1]:
            with pytest.raises(InconclusiveError):
                analyze_prime(t, p, 0)
        else:
            assert analyze_prime(t, p, 0).root_levels == gcd_roots, (doc, p)


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


@pytest.mark.parametrize("entry,p", [
    pytest.param(entry, p, id=f"{entry.name}-p{p}") for entry in CORPUS for p in entry.primes])
def test_corpus_prime_expectations(entry, p):
    # every field the corpus lists for p, as analyze_prime reports it
    expected = entry.primes[p]
    r = analyze_prime(tower(entry.name), p, entry.depth)
    assert {key: getattr(r, key) for key in expected} == expected


# -- stabilization bounds ------------------------------------------------------------

def test_stabilization_bounds_17():
    r = analyze_prime(tower("bouquet4-ell3"), 17, 4)
    assert r.n1 == 3
    # the bound certifies what the table shows: constant 2 from n = 2 on
    assert r.observed == (0, 0, 2, 2, 2)
    assert all(v == r.observed[r.n1] for v in r.observed[r.n1:])


def test_stabilization_bounds_53():
    r = analyze_prime(tower("bouquet4-ell3"), 53, 4)
    assert r.n1 == 4
    assert r.observed == (0, 0, 0, 2, 2)


def test_stabilization_constant_poly():
    # no tower has a constant determinant (f(1) = det of the base
    # Laplacian = 0), so the constant case is the search's alone
    search = n0_search(GenPoly.constant(3, 2, 7), 5)
    assert search.n1 == 1


def test_stabilization_inapplicable_when_mu_positive():
    r = analyze_prime(tower("bouquet3-ell5"), 3, 2)
    assert r.mu > 0
    assert r.n1 is None


def test_n0_below_n1_when_defined():
    for name in ("bouquet4-ell3", "bouquet4-ell3-skew", "parallel4-ell2"):
        t = tower(name)
        for p in (7, 11, 13, 17, 19, 23):
            if p == t.ell:
                continue
            mu, g = mu_invariant(t.f, p)
            if mu:
                continue
            search = n0_search(g, p)
            n1 = analyze_prime(t, p, 1).n1
            assert all(i < n1 for i in search.root_levels)  # n0 <= n1
            assert search.n1 == n1


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
        assert 5**n * t.kappa(n) == norm_product(t, n)
        assert t.kappa(n) == spanning_tree_count(derived_graph(t.va, n))


def test_product_identity_theta_depth1():
    t = fresh_tower("theta-ell5")
    assert t.kappa(1) == 240
    assert 5 * 240 == 3 * t.level_norm(1)


def test_product_identity_depth0_vacuous():
    # at level 0 the identity reads kappa_0 = kappa_0
    t = fresh_tower("theta-ell5")
    assert t.kappa(0) == norm_product(t, 0) == spanning_tree_count(t.va.graph) == 3


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
