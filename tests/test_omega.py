import json
import math
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import elltowers.omega as omega
from elltowers import GenPoly, Tower, classify_omega
from elltowers.analysis import DisconnectedTowerError
from elltowers.cli import DEFAULT_BUDGET_MS, _factorization_dict, _level_rows
from elltowers.corpus import CORPUS
from elltowers.intpoly import IntPoly, ZeroPolynomialError, cyclotomic
from elltowers.omega import BOUNDED, INAPPLICABLE, UNBOUNDED, OmegaClassification
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import reciprocal

TOWERS = {e.name: Tower(build_assignment(parse_tower_spec(e.spec))) for e in CORPUS}
DEMOS = [Tower(build_assignment(parse_tower_spec(json.loads(path.read_text()))))
         for path in sorted((Path(__file__).resolve().parent.parent / "demos" / "specs").glob("*.json"))]
T = sympy.Symbol("T")


# -- the generic strip, an oracle for classify's cyclotomic part ------------------

def _cyclotomic_orders(max_degree: int) -> list[int]:
    """Every d with phi(d) <= max_degree, ascending.  Each d is built once
    from its prime powers by increasing prime; a prime p of such a d has
    phi(p) = p - 1 <= max_degree."""
    orders = [(1, 1)]  # (d, phi(d))
    for p in range(2, max_degree + 2):
        if not sympy.isprime(p):
            continue
        for d, phi in list(orders):
            power, phi_power = p, p - 1
            while phi * phi_power <= max_degree:
                orders.append((d * power, phi * phi_power))
                power, phi_power = power * p, phi_power * p
    return sorted(d for d, phi in orders if phi <= max_degree)


def _strip_by_trial_division(u: IntPoly):
    """Every cyclotomic factor of u, Phi_1 = T - 1 included, with
    multiplicity: ((d, multiplicity), ...) by ascending d, and the
    cyclotomic-free rest, by trying every Phi_d with phi(d) <= deg u."""
    if u.is_zero:
        raise ZeroPolynomialError("zero polynomial")
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


def test_cyclotomic_orders_are_the_d_with_small_totient():
    # phi(d) > sqrt(d/2), so every d with phi(d) <= 60 is below 2 (60^2 + 1)
    totients = {d: sympy.totient(d) for d in range(1, 2 * (60 * 60 + 1) + 1)}
    for degree in range(61):
        assert _cyclotomic_orders(degree) == [d for d, phi in totients.items() if phi <= degree]


def test_strip_unit_root_examples():
    strip = _strip_by_trial_division
    assert strip(IntPoly((-3, 6, -3))) == (((1, 2),), IntPoly((-3,)))  # -3(T-1)^2
    # -2 + 4T^3 - 2T^6 = -2 (T-1)^2 Phi_3^2
    assert strip(IntPoly((-2, 0, 0, 4, 0, 0, -2))) == (((1, 2), (3, 2)), IntPoly((-2,)))
    # U = T^3 f for f = -T^-3 - 2T^-2 - 3T^-1 + 12 - 3T - 2T^2 - T^3
    factors, rest = strip(IntPoly((-1, -2, -3, 12, -3, -2, -1)))
    assert factors == ((1, 2),)
    assert rest.coeffs == (-1, -4, -10, -4, -1)
    assert rest.coeffs == rest.coeffs[::-1] and rest(1) != 0
    # no root at 1: no d = 1 entry
    assert strip(IntPoly((1, 1))) == (((2, 1),), IntPoly((1,)))
    with pytest.raises(ZeroPolynomialError):
        strip(IntPoly(()))


def test_strip_theta_u1():
    u1 = (cyclotomic(3) * cyclotomic(3)).scale(-2)
    factors, rest = _strip_by_trial_division(u1)
    assert factors == ((3, 2),)
    assert rest.coeffs == (-2,)


def test_strip_quartic_with_no_unit_roots():
    u1 = IntPoly((-1, -4, -10, -4, -1))
    factors, rest = _strip_by_trial_division(u1)
    assert factors == ()
    assert rest == u1


def test_strip_constant():
    factors, rest = _strip_by_trial_division(IntPoly((7,)))
    assert factors == () and rest.coeffs == (7,)


def test_strip_mixed_product():
    u1 = cyclotomic(4) * cyclotomic(6) * cyclotomic(6) * IntPoly((3, 1, 3))
    factors, rest = _strip_by_trial_division(u1)
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
    factors, rest = _strip_by_trial_division(u)
    rebuilt = rest
    for d, mult in factors:
        for _ in range(mult):
            rebuilt = rebuilt * cyclotomic(d)
    assert rebuilt == u
    assert dict(factors) == _sympy_cyclotomic_factors(u)
    assert [d for d, _ in factors] == sorted(d for d, _ in factors)


# -- classify's cyclotomic part against the oracle ---------------------------------

def agrees_with_the_oracle(f: GenPoly) -> OmegaClassification:
    """classify_omega(f), checked against the trial-division strip of the
    primitive, sign-normalised U, and rebuilt as content (T^g - 1)^2 V
    with g the gcd of f's exponents."""
    cls = classify_omega(f)
    u, _b = f.integerize()
    sign = 1 if u.leading > 0 else -1
    factors, rest = _strip_by_trial_division(u.primitive_part().scale(sign))
    assert factors[0] == (1, cls.unit_root_multiplicity)
    assert (factors[1:], rest) == (cls.cyclotomic_factors, cls.non_cyclotomic_part)
    g = math.gcd(*(f.lift_exponent(e) for e, _ in f.terms))
    square = IntPoly.from_pairs(((0, 1), (g, -2), (2 * g, 1)))
    assert square.scale(cls.content) * cls.non_cyclotomic_part == u
    return cls


def assert_bounded_closed_form(tower: Tower, levels) -> None:
    """|N_n| = |c|^phi(ell^n) ell^2 on a bounded tower: U = c (T^g - 1)^2,
    and T -> T^g permutes the primitive ell^n-th roots (ell does not
    divide g), over which the product of T - 1 is +-Phi_(ell^n)(1) = +-ell."""
    c, ell = classify_omega(tower.f).content, tower.ell
    for n in levels:
        assert abs(tower.level_norm(n)) == abs(c) ** ((ell - 1) * ell ** (n - 1)) * ell**2


@st.composite
def connected_integral_towers(draw, multiplier):
    """A tower over a random connected base of 1-5 vertices (a cycle
    through them, or a loop on one vertex, and 1-3 more edges, loops and
    parallel edges among them) at ell in {2, 3, 5, 7}: voltages g k_e,
    with g in 1..12 and k_e in [-multiplier, multiplier], disguised by
    the coboundary of random potentials."""
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    v = draw(st.integers(1, 5))
    order = draw(st.permutations(range(v)))
    edges = [(order[i], order[(i + 1) % v]) for i in range(v)] if v > 1 else [(0, 0)]
    vertex = st.integers(0, v - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    g = draw(st.integers(1, 12))
    potentials = draw(st.lists(st.integers(-4, 4), min_size=v, max_size=v))
    ks = draw(st.lists(st.integers(-multiplier, multiplier), min_size=len(edges), max_size=len(edges)))
    doc = {"ell": ell, "precision": 1, "vertices": [f"v{i}" for i in range(v)],
           "edges": [{"tail": f"v{t}", "head": f"v{h}", "voltage": str(g * k + potentials[h] - potentials[t])}
                     for (t, h), k in zip(edges, ks)]}
    try:
        return Tower(build_assignment(parse_tower_spec(doc)), mt_check_level=0)
    except DisconnectedTowerError:
        assume(False)


@settings(deadline=None, max_examples=150)
@given(connected_integral_towers(multiplier=3))
def test_classify_agrees_with_the_oracle_on_random_towers(tower):
    cls = agrees_with_the_oracle(tower.f)
    if cls.verdict == BOUNDED:
        assert_bounded_closed_form(tower, (1, 2, 3))


@settings(deadline=None, max_examples=60)
@given(connected_integral_towers(multiplier=1))
def test_bounded_towers_have_the_closed_form(tower):
    # voltages g k_e with |k_e| <= 1 leave about half the towers bounded
    assume(classify_omega(tower.f).verdict == BOUNDED)
    assert_bounded_closed_form(tower, (1, 2, 3))


def test_bounded_closed_form_on_the_corpus_and_the_demos():
    towers = [t for t in (*TOWERS.values(), *DEMOS)
              if t.f.integral and classify_omega(t.f).verdict == BOUNDED]
    assert len(towers) >= 3
    for tower in towers:
        assert_bounded_closed_form(tower, range(1, 5))


# loop voltages 1, 200 and 2 at ell = 3: U of degree 400, no cyclotomic
# factor but (T - 1)^2, and 790 candidate orders
DEGREE_400 = {"ell": 3, "precision": 1, "vertices": ["v1"],
              "edges": [{"tail": "v1", "head": "v1", "voltage": str(v)} for v in (1, 200, 2)]}


def test_classify_takes_one_division(monkeypatch):
    # the oracle tries the 790 orders with phi(d) <= 400; classify divides
    # once, by (T - 1)^2, as g = 1
    fs = [t.f for t in (*TOWERS.values(), *DEMOS) if t.f.integral]
    fs.append(Tower(build_assignment(parse_tower_spec(DEGREE_400))).f)
    assert fs[-1].integerize()[0].degree == 400
    for f in fs:
        agrees_with_the_oracle(f)
    divisions = []
    real = IntPoly.divmod_by_monic
    monkeypatch.setattr(IntPoly, "divmod_by_monic",
                        lambda self, d: divisions.append(d) or real(self, d))
    cls = classify_omega(fs[-1])
    assert (cls.unit_root_multiplicity, cls.cyclotomic_factors) == (2, ())
    assert cls.non_cyclotomic_part.degree == 398
    assert divisions == [IntPoly((1, -2, 1))]


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
    # U = (T - 1)^4: V = (T - 1)^2 keeps the root at 1
    with pytest.raises(ArithmeticError):
        classify_omega(GenPoly(3, 2, ((-2, 1), (-1, -4), (0, 6), (1, -4), (2, 1)), integral=True))
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
