from collections import Counter

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import elltowers.omega as omega
from elltowers import GenPoly, Tower, classify_omega, intpoly, strip_cyclotomics
from elltowers.cli import DEFAULT_BUDGET_MS, _factorization_dict, _level_rows
from elltowers.corpus import CORPUS
from elltowers.intpoly import IntPoly, ZeroPolynomialError, cyclotomic
from elltowers.omega import (
    BOUNDED,
    INAPPLICABLE,
    UNBOUNDED,
    _cyclotomic_orders,
)
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import reciprocal

TOWERS = {e.name: Tower(build_assignment(parse_tower_spec(e.spec))) for e in CORPUS}
T = sympy.Symbol("T")


# -- candidate orders ------------------------------------------------------------

def test_cyclotomic_orders_are_the_d_with_small_totient():
    # phi(d) > sqrt(d/2), so every d with phi(d) <= 60 is below 2 (60^2 + 1)
    totients = {d: sympy.totient(d) for d in range(1, 2 * (60 * 60 + 1) + 1)}
    for degree in range(61):
        assert _cyclotomic_orders(degree) == [d for d, phi in totients.items() if phi <= degree]


# -- cyclotomic stripping --------------------------------------------------------

def test_strip_unit_root_examples():
    assert strip_cyclotomics(IntPoly((-3, 6, -3))) == (((1, 2),), IntPoly((-3,)))  # -3(T-1)^2
    # -2 + 4T^3 - 2T^6 = -2 (T-1)^2 Phi_3^2
    assert strip_cyclotomics(IntPoly((-2, 0, 0, 4, 0, 0, -2))) == (((1, 2), (3, 2)), IntPoly((-2,)))
    # U = T^3 f for f = -T^-3 - 2T^-2 - 3T^-1 + 12 - 3T - 2T^2 - T^3
    factors, rest = strip_cyclotomics(IntPoly((-1, -2, -3, 12, -3, -2, -1)))
    assert factors == ((1, 2),)
    assert rest.coeffs == (-1, -4, -10, -4, -1)
    assert rest.coeffs == rest.coeffs[::-1] and rest(1) != 0
    # no root at 1: no d = 1 entry
    assert strip_cyclotomics(IntPoly((1, 1))) == (((2, 1),), IntPoly((1,)))
    with pytest.raises(ZeroPolynomialError):
        strip_cyclotomics(IntPoly(()))


def test_strip_theta_u1():
    u1 = (cyclotomic(3) * cyclotomic(3)).scale(-2)
    factors, rest = strip_cyclotomics(u1)
    assert factors == ((3, 2),)
    assert rest.coeffs == (-2,)


def test_strip_quartic_with_no_unit_roots():
    u1 = IntPoly((-1, -4, -10, -4, -1))
    factors, rest = strip_cyclotomics(u1)
    assert factors == ()
    assert rest == u1


def test_strip_constant():
    factors, rest = strip_cyclotomics(IntPoly((7,)))
    assert factors == () and rest.coeffs == (7,)


def test_strip_mixed_product():
    u1 = cyclotomic(4) * cyclotomic(6) * cyclotomic(6) * IntPoly((3, 1, 3))
    factors, rest = strip_cyclotomics(u1)
    assert dict(factors) == {4: 1, 6: 2}
    assert rest == IntPoly((3, 1, 3))


def _sympy_cyclotomic_factors(u: IntPoly) -> dict[int, int]:
    """{d: multiplicity} of the factors sympy.factor_list finds that are
    cyclotomic polynomials, up to sign."""
    out = {}
    for factor, mult in sympy.factor_list(sympy.Poly(list(reversed(u.coeffs)), T))[1]:
        if factor.is_cyclotomic:
            deg = factor.degree()
            d = next(d for d in range(1, 2 * (deg * deg + 1) + 1) if sympy.totient(d) == deg
                     and sympy.Poly(sympy.cyclotomic_poly(d, T), T) in (factor, -factor))
            out[d] = out.get(d, 0) + mult
    return out


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 30), max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       st.integers(-6, 6).filter(bool))
def test_strip_matches_sympy_on_planted_products(planted, half, scale):
    # a palindromic cofactor times Phi_d for the planted d, d = 1 included
    if half[-1] == 0:
        half[-1] = 1
    u = IntPoly(tuple(half[:0:-1] + half)).scale(scale)
    for d in planted:
        u = u * cyclotomic(d)
    factors, rest = strip_cyclotomics(u)
    rebuilt = rest
    for d, mult in factors:
        for _ in range(mult):
            rebuilt = rebuilt * cyclotomic(d)
    assert rebuilt == u
    assert dict(factors) == _sympy_cyclotomic_factors(u)
    assert [d for d, _ in factors] == sorted(d for d, _ in factors)


def _strip_by_trial_division(u: IntPoly):
    """strip_cyclotomics without its value sieve: every Phi_d is tried."""
    found, rest = [], u
    for d in _cyclotomic_orders(u.degree):
        mult = 0
        while True:
            quotient, remainder = rest.divmod_by_monic(cyclotomic(d))
            if not remainder.is_zero:
                break
            rest, mult = quotient, mult + 1
        if mult:
            found.append((d, mult))
    return tuple(found), rest


# loop voltages 1, 200 and 2 at ell = 3: U of degree 400, no cyclotomic
# factor but (T - 1)^2, and 790 candidate orders
DEGREE_400 = {"ell": 3, "precision": 1, "vertices": ["v1"],
              "edges": [{"tail": "v1", "head": "v1", "voltage": str(v)} for v in (1, 200, 2)]}


def test_value_sieve_leaves_every_factor_and_skips_the_divisions(monkeypatch):
    # Phi_d(a) | U(a) at a = 2, 3 is necessary for Phi_d | U, so the sieve
    # changes no answer; on the degree-400 bouquet it leaves only the two
    # divisions by T - 1 that succeed, out of about 790 trial divisions
    us = [TOWERS[e.name].f.integerize()[0] for e in CORPUS if TOWERS[e.name].f.integral]
    us.append(Tower(build_assignment(parse_tower_spec(DEGREE_400))).f.integerize()[0])
    assert us[-1].degree == 400
    for u in us:
        assert strip_cyclotomics(u.primitive_part()) == _strip_by_trial_division(u.primitive_part())
    divisions = []
    real = IntPoly.divmod_by_monic
    monkeypatch.setattr(IntPoly, "divmod_by_monic",
                        lambda self, d: divisions.append(d.degree) or real(self, d))
    factors, rest = strip_cyclotomics(us[-1].primitive_part())
    assert factors == ((1, 2),) and rest.degree == 398
    assert divisions == [1, 1]


def test_least_primes_of_the_cyclotomic_orders_are_cached(monkeypatch):
    # cyclotomic_value's recursion asks for the least prime of the same m
    # on both of its branches; each n reaches perfect_power once
    u = Tower(build_assignment(parse_tower_spec(DEGREE_400))).f.integerize()[0]
    intpoly._smallest_prime_factor.cache_clear()
    seen = Counter()
    real = intpoly.perfect_power
    monkeypatch.setattr(intpoly, "perfect_power", lambda n, *a: seen.update([n]) or real(n, *a))
    strip_cyclotomics(u.primitive_part())
    assert seen and max(seen.values()) == 1


# -- classification ---------------------------------------------------------------

def test_classify_corpus_verdicts():
    for entry in CORPUS:
        assert classify_omega(TOWERS[entry.name].f).verdict == entry.verdict


def test_classify_bouquet4_details():
    cls = classify_omega(TOWERS["bouquet4-ell3"].f)
    assert cls.verdict == UNBOUNDED
    assert cls.unit_root_multiplicity == 2
    assert cls.content == -2
    assert cls.non_cyclotomic_part == IntPoly((1, 3, 1))
    assert cls.content_primes == (2,) and cls.content_cofactor == 1


def test_classify_leaves_an_unsplit_content_within_its_budget(monkeypatch):
    # bouquet4-ell3's f times P Q, two primes of 20 digits: trial division
    # and 1000 rho steps cannot split P Q, which stays the content's
    # cofactor beside the prime 2 (without a budget, rho would take 10**7
    # steps over it)
    P, Q = sympy.nextprime(10**19), sympy.nextprime(3 * 10**19)
    f = TOWERS["bouquet4-ell3"].f
    calls, factor = [], omega.factor_kappa
    monkeypatch.setattr(omega, "factor_kappa",
                        lambda n, rho_iterations: calls.append(factor(n, rho_iterations)) or calls[-1])
    cls = classify_omega(f * GenPoly.constant(f.ell, f.precision, P * Q), rho_iterations=1000)
    assert cls.verdict == UNBOUNDED and cls.content == -2 * P * Q
    assert cls.content_primes == (2,) and cls.content_cofactor == P * Q
    (content,) = calls
    assert content.budget_exhausted and content.rho_iterations == 1000


def test_classify_theta_details():
    cls = classify_omega(TOWERS["theta-ell5"].f)
    assert cls.verdict == BOUNDED
    assert cls.cyclotomic_factors == ((3, 2),)
    assert cls.non_cyclotomic_part.coeffs == (1,)
    assert cls.content == -2


def test_classify_requires_the_unit_root():
    # U = 1 + T has no root at 1: no voltage determinant, a broken invariant
    with pytest.raises(ArithmeticError):
        classify_omega(GenPoly(3, 2, ((0, 1), (1, 1)), integral=True))
    with pytest.raises(ArithmeticError):
        classify_omega(GenPoly.constant(3, 2, 7))
    with pytest.raises(ZeroPolynomialError):
        classify_omega(GenPoly.zero(3, 2))


def test_classify_unit_root_multiplicity_and_signed_content():
    # f = -3 T^-3 (T^3 - 1)^2 gives U = -3 (T-1)^2 Phi_3^2
    f = GenPoly(3, 3, ((-3, -3), (0, 6), (3, -3)), integral=True)
    cls = classify_omega(f)
    assert (cls.unit_root_multiplicity, cls.cyclotomic_factors) == (2, ((3, 2),))
    assert cls.content == -3 and cls.non_cyclotomic_part == IntPoly((1,))
    assert cls.verdict == BOUNDED and cls.content_primes == (3,)


def test_classify_inapplicable_for_padic_voltages():
    cls = classify_omega(TOWERS["bouquet2-sqrt17-ell2"].f)
    assert cls.verdict == INAPPLICABLE
    assert cls.non_cyclotomic_part is None


def reconstruct_u(cls) -> IntPoly:
    """content * (T-1)^m * prod Phi_d^mult * non_cyclotomic_part."""
    out = IntPoly((cls.content,))
    for _ in range(cls.unit_root_multiplicity):
        out = out * IntPoly((-1, 1))
    for d, mult in cls.cyclotomic_factors:
        for _ in range(mult):
            out = out * cyclotomic(d)
    return out * cls.non_cyclotomic_part


def test_reconstruction_invariant():
    for name in ("bouquet3-ell5", "bouquet4-ell3", "theta-ell5",
                 "bouquet4-ell3-skew", "parallel4-ell2"):
        t = TOWERS[name]
        cls = classify_omega(t.f)
        u, _b = t.f.integerize()
        assert reconstruct_u(cls) == u


def test_verdict_invariances():
    for name in ("bouquet4-ell3", "theta-ell5"):
        f = TOWERS[name].f
        v = classify_omega(f).verdict
        assert classify_omega(reciprocal(f)).verdict == v
        for k in (5, -3):
            assert classify_omega(f * GenPoly.constant(f.ell, f.precision, k)).verdict == v


def test_every_mu_positive_prime_divides_content():
    from elltowers.genpoly import mu_invariant

    for entry in CORPUS:
        f = TOWERS[entry.name].f
        if not f.integral:
            continue
        u, _ = f.integerize()
        content = u.content()
        for p in (2, 3, 5, 7, 11, 13):
            if mu_invariant(f, p)[0] > 0:
                assert content % p == 0


# -- omega sequences, from the CLI's level rows ------------------------------------

def omegas(name, depth, budget_ms=DEFAULT_BUDGET_MS):
    """(omega, omega_is_lower_bound) of kappa_0..kappa_depth as count --json reports them."""
    rows = _level_rows(TOWERS[name], depth, budget_ms)
    return [(doc["omega"], doc["omega_is_lower_bound"])
            for doc in (_factorization_dict(fact) for _, _, fact in rows)]


def test_omega_sequence_bouquet4():
    # kappa_0 = 1 has omega 0
    assert omegas("bouquet4-ell3", 4) == [(w, False) for w in (0, 2, 3, 5, 8)]


def test_omega_sequence_theta_bounded():
    assert omegas("theta-ell5", 4) == [(w, False) for w in (1, 3, 3, 3, 3)]


def test_omega_sequence_bouquet3():
    assert omegas("bouquet3-ell5", 2) == [(0, False), (2, False), (2, False)]


def test_omega_sequence_honest_under_budget():
    # with no budget, level 7's piece keeps the composite 1518337^2 * 27744257^2
    starved = omegas("bouquet2-sqrt17-ell2", 7, budget_ms=0)
    full = omegas("bouquet2-sqrt17-ell2", 7)
    assert starved[7] == (6, True) and full[7] == (7, False)
    for (low, flagged), (exact, _) in zip(starved, full):
        assert low <= exact  # a lower bound stays a lower bound
        assert flagged or low == exact


def test_unbounded_towers_grow_on_computed_rows():
    for name, depth in (("bouquet4-ell3", 4), ("parallel4-ell2", 6)):
        exact = [w for w, lower in omegas(name, depth) if not lower]
        tail = exact[1:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] > tail[0]
