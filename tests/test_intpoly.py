import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from elltowers.intpoly import (
    IntPoly,
    ZeroPolynomialError,
    _smallest_prime_factor,
    cyclotomic,
    poly_mod_gcd,
    resultant,
)

T = sympy.Symbol("T")


def _to_sympy(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], T)


def _random_poly(rng, max_deg=6, lo=-9, hi=9) -> IntPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    if coeffs[-1] == 0:
        coeffs[-1] = rng.choice([1, -1, 2, 3])
    return IntPoly(tuple(coeffs))


# -- basic ring structure ------------------------------------------------------

def test_normalization_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).is_zero
    assert IntPoly(()).degree == -1


def test_arithmetic():
    a = IntPoly((1, 1))       # 1 + T
    b = IntPoly((-1, 1))      # -1 + T
    assert (a * b).coeffs == (-1, 0, 1)
    assert (a + b).coeffs == (0, 2)
    assert (a - a).is_zero
    assert a(3) == 4


def test_content_and_primitive():
    p = IntPoly((6, -9, 12))
    assert p.content() == 3
    assert p.primitive_part().coeffs == (2, -3, 4)


def test_monic_division():
    num = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # T^6 - 1
    q = num.exact_div_monic(cyclotomic(6))
    assert q * cyclotomic(6) == num
    with pytest.raises(ValueError):
        IntPoly((1, 1)).exact_div_monic(IntPoly((1, 0, 1)))  # inexact division


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-9, 9), max_size=12),
       st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), max_size=6))
def test_divmod_by_monic_matches_sympy(num, low):
    # divisors with many zero coefficients, as cyclotomics have
    a, b = IntPoly(tuple(num)), IntPoly(tuple(low) + (1,))
    q, r = a.divmod_by_monic(b)
    sq, sr = sympy.div(_to_sympy(a), _to_sympy(b))
    assert (_to_sympy(q), _to_sympy(r)) == (sq, sr)
    assert r.degree < b.degree


# -- cyclotomics ---------------------------------------------------------------

def test_small_cyclotomics():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 9, 12, 15, 25, 27, 32, 105])
def test_cyclotomic_degree_and_monic(d):
    phi = cyclotomic(d)
    assert phi.degree == sympy.totient(d)
    assert phi.leading == 1
    assert _to_sympy(phi).as_expr() == sympy.cyclotomic_poly(d, T)


def test_cyclotomics_match_sympy_up_to_300():
    for d in range(1, 301):
        assert _to_sympy(cyclotomic(d)) == sympy.Poly(sympy.cyclotomic_poly(d, T), T), d


def test_prime_power_fast_path_matches_product_form():
    # T^(ell^i) - 1 = prod_{j <= i} Phi_{ell^j}
    for ell, i in ((2, 5), (3, 3), (5, 2)):
        n = ell**i
        prod = cyclotomic(1)
        for j in range(1, i + 1):
            prod = prod * cyclotomic(ell**j)
        tn = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        assert prod == tn


def test_least_prime_of_a_large_prime_and_its_square_needs_no_trial_division():
    # trial division up to sqrt(10**20 + 39) would take about 5 * 10**9 steps
    ell = 10**20 + 39
    assert sympy.isprime(ell)
    start = time.perf_counter()
    assert [_smallest_prime_factor(n) for n in (ell, ell**2, 3 * ell)] == [ell, ell, 3]
    assert time.perf_counter() - start < 1
    assert [_smallest_prime_factor(n) for n in (2, 9, 15, 49, 77, 1024, 3**7, 101 * 103)] == [2, 3, 3, 7, 7, 2, 3, 101]


# -- resultants -----------------------------------------------------------------

def test_resultant_examples():
    assert resultant(cyclotomic(5), IntPoly((-1, 1))) == 5        # Phi_5 at T=1
    assert resultant(cyclotomic(5), IntPoly((-3, 6, -3))) == 2025  # (-3)^4 * 5^2
    assert resultant(IntPoly((-1, 1)), IntPoly((1, 1))) == 2


def test_resultant_zero_poly_rejected():
    with pytest.raises(ZeroPolynomialError):
        resultant(IntPoly(()), IntPoly((1, 1)))


def test_resultant_common_factor_is_zero():
    a = cyclotomic(3) * IntPoly((2, 1))
    b = cyclotomic(3) * IntPoly((5, 3))
    assert resultant(a, b) == 0


def _sylvester_resultant(a: IntPoly, b: IntPoly) -> int:
    """Independent oracle: determinant of the Sylvester matrix.

    (sympy.resultant is PRS-based and can drop a sign on non-normal
    sequences, so the matrix definition is the arbiter here.)
    """
    m, n = a.degree, b.degree
    if m == 0:
        return a.coeffs[0] ** n
    if n == 0:
        return b.coeffs[0] ** m
    size = m + n
    rows = []
    da = list(reversed(a.coeffs))
    db = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([0] * i + da + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + db + [0] * (size - n - 1 - i))
    return int(sympy.Matrix(rows).det())


def test_resultant_against_sylvester_randoms():
    rng = random.Random(9)
    for _ in range(120):
        a, b = _random_poly(rng), _random_poly(rng)
        expected = _sylvester_resultant(a, b)
        assert resultant(a, b) == expected, (a.coeffs, b.coeffs)


def test_resultant_swap_antisymmetry():
    rng = random.Random(10)
    for _ in range(60):
        a, b = _random_poly(rng, 5), _random_poly(rng, 5)
        sign = -1 if (a.degree % 2 and b.degree % 2) else 1
        assert resultant(a, b) == sign * resultant(b, a)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_resultant_multiplicative(data):
    coeff = st.integers(-6, 6)
    def poly(tag):
        c = data.draw(st.lists(coeff, min_size=1, max_size=5), label=tag)
        if all(x == 0 for x in c):
            c[-1] = 1
        if c[-1] == 0:
            c[-1] = 1
        return IntPoly(tuple(c))
    a, b, c = poly("a"), poly("b"), poly("c")
    assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


# -- mod-p helpers ---------------------------------------------------------------

def test_poly_mod_gcd():
    p = 2
    a = (cyclotomic(3) * IntPoly((1, 1))).mod_array(p)
    b = (cyclotomic(3) * IntPoly((1, 0, 1, 1))).mod_array(p)
    g = poly_mod_gcd(a, b, p)
    assert list(g) == [1, 1, 1]  # Phi_3 is irreducible mod 2


def test_poly_mod_gcd_coprime():
    g = poly_mod_gcd(cyclotomic(3).mod_array(5), IntPoly((-1, 1)).mod_array(5), 5)
    assert list(g) == [1]


def test_poly_mod_gcd_with_zero():
    z = IntPoly((6, 6)).mod_array(3)  # identically 0 mod 3
    g = poly_mod_gcd(z, cyclotomic(9).mod_array(3), 3)
    assert len(g) == cyclotomic(9).degree + 1
