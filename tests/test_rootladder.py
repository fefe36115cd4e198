"""The ladder of powers T^(ell^i) mod (U, p) against the F_p gcd search.

Claims verified here:
  - the ladder finds no root level where no dense Phi_(ell) can be
    built (ell = 10^20 + 39), a planted one where it must, and none when
    p divides lc(U) or U is constant mod p
  - on random integral bouquets and theta towers, and on every integral
    corpus tower and prime p < 3000, its root levels are those of the
    int64 gcd against Phi_(ell^i) at every level below n1
"""

import time

import pytest
from hypothesis import assume, event, given, settings, strategies as st
from sympy import nextprime, primerange

from elltowers import analysis
from elltowers.analysis import DisconnectedTowerError, Tower, level_norm, splitting
from elltowers.corpus import CORPUS
from elltowers.factorint import factor_kappa
from elltowers.genpoly import mu_invariant
from elltowers.intpoly import IntPoly, cyclotomic
from elltowers.rootladder import root_levels
from elltowers.towerspec import build_assignment, parse_tower_spec

# the gcd oracle builds Phi_(ell^i) densely: levels past this degree are skipped
ORACLE_MAX_DEGREE = 2**12


def test_no_dense_cyclotomic_for_a_huge_ell():
    # theta's U = -2 (T^3 - 1)^2 = -2 (T-1)^2 Phi_3^2 (classify's closed form)
    # at ell = 10^20 + 39 and p = 138 ell + 1, so f_1 = 1 and level 1 is below
    # n1: ell = 1 (mod 3) sends the cube roots of unity to themselves, never to 1
    ell = 10**20 + 39
    u = (-2, 0, 0, 4, 0, 0, -2)
    p = 138 * ell + 1
    start = time.perf_counter()
    assert root_levels(u, p, ell, range(1, 4)) == ()
    assert time.perf_counter() - start < 1.0


def test_planted_root_level():
    # 19 = 1 (mod 9): Phi_9 splits into primitive 9th roots mod 19, while
    # T^2 + 3T + 1 has no root among the cube roots of unity 1, 7, 11, and
    # 27 does not divide 19^2 - 1, so none of its roots is a 27th root of 1
    u = (cyclotomic(9) * IntPoly((1, 3, 1))).coeffs
    assert root_levels(u, 19, 3, range(1, 5)) == (2,)
    assert root_levels(u, 19, 3, range(3, 5)) == ()
    assert root_levels(u, 19, 3, range(2, 3)) == (2,)


def test_leading_coefficient_divisible_by_p():
    # 7T^2 + T - 1 = T - 1 (mod 7): its one root is 1, at no level >= 1;
    # 7T^3 + T^2 + 1 = T^2 + 1 (mod 7) has the primitive 4th roots of 1
    assert root_levels((-1, 1, 7), 7, 2, range(1, 6)) == ()
    assert root_levels((1, 0, 1, 7), 7, 2, range(1, 6)) == (2,)


def test_constant_mod_p_has_no_root_level():
    assert root_levels((3, 14, 0, 7), 7, 2, range(1, 6)) == ()
    assert root_levels((5,), 7, 3, range(1, 6)) == ()


def test_rejects_zero_mod_p_and_p_equal_ell():
    with pytest.raises(ValueError):
        root_levels((7, 14), 7, 2, range(1, 3))
    with pytest.raises(ValueError):
        root_levels((1, 1), 3, 3, range(1, 3))


def _gcd_and_ladder(tower: Tower, p: int):
    """(gcd root levels, ladder root levels) below n1 for g = f / p^mu, or
    None when the gcd oracle would build a Phi_(ell^i) past its cap."""
    ell = tower.ell
    _, g = mu_invariant(tower.f, p)
    u = g.integerize()[0]
    n1 = splitting(p, ell, u.degree_mod(p))
    if ell ** (n1 - 1) > ORACLE_MAX_DEGREE:
        return None
    gcd = tuple(i for i in range(1, n1) if analysis._has_primitive_root(g, p, i))
    return gcd, root_levels(u.coeffs, p, ell, range(1, n1))


@st.composite
def integral_specs(draw):
    """A bouquet of 2-4 loops, or a theta graph (three edges between two
    vertices) with an optional loop, at ell in {2, 3, 5, 7}, every voltage
    in [-4, 4]."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        names, ends = ["v1"], [("v1", "v1")] * draw(st.integers(2, 4))
    else:
        names, ends = ["v1", "v2"], [("v1", "v2")] * 3 + [("v2", "v2")] * draw(st.integers(0, 1))
    edges = [{"tail": t, "head": h, "voltage": str(draw(st.integers(-4, 4)))} for t, h in ends]
    return {"ell": ell, "precision": 4, "vertices": names, "edges": edges}


@settings(deadline=None, max_examples=80)
@given(integral_specs(), st.lists(st.integers(3, 2**30), min_size=1, max_size=3))
def test_ladder_matches_the_gcd_search(doc, starts):
    try:
        tower = Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=0)
    except DisconnectedTowerError:
        assume(False)
    ell = tower.ell
    # primes dividing a level norm, which have root levels, and random ones
    norms = [level_norm(tower.f, i) for i in range(1, 4)]
    dividing = {q for m in norms if m for q, _ in factor_kappa(abs(m), rho_iterations=2000).factors}
    primes = sorted(q for q in dividing if q < 2**30 and q != ell)[:4]
    primes += [q for q in (nextprime(s) for s in starts) if q < 2**30 and q != ell]
    for p in primes:
        pair = _gcd_and_ladder(tower, p)
        if pair is None:
            event("past the oracle's cap")
            continue
        event("root levels" if pair[0] else "no root level")
        assert pair[1] == pair[0], (doc, p)


def test_ladder_matches_the_gcd_search_on_the_corpus():
    pairs = 0
    for entry in CORPUS:
        tower = Tower(build_assignment(parse_tower_spec(entry.spec)), mt_check_level=0)
        if not tower.f.integral:
            continue
        for p in primerange(2, 3000):
            if p == tower.ell:
                continue
            pair = _gcd_and_ladder(tower, p)
            if pair is not None:
                assert pair[1] == pair[0], (entry.name, p)
                pairs += 1
    assert pairs > 2000
