import random

import pytest
from hypothesis import given, settings, strategies as st

from elltowers import (
    GenPoly,
    GenPolyMatrix,
    Multigraph,
    NonIntegralExponentError,
    PrecisionError,
    TruncatedPadic,
    VoltageAssignment,
    determinant,
    mu_invariant,
    voltage_matrix,
)
from elltowers.intpoly import IntPoly
from util import random_voltage_tower, reciprocal, substitute_power

THETA = Multigraph.from_edge_list(2, [(0, 1), (1, 0), (1, 0)])


def gp(ell, precision, pairs, integral=True):
    return GenPoly(ell, precision, tuple(pairs), integral)


# -- ring behaviour ------------------------------------------------------------

def test_terms_normalize_and_merge():
    f = gp(5, 2, [(3, 2), (3, 1), (28, 4), (0, 0)])
    assert f.terms == ((3, 7),)  # 28 = 3 mod 25 merges, zero coefficient dropped


def test_addition_cancels():
    f = gp(3, 2, [(1, 2)])
    assert (f + -f).is_zero


def test_multiplication_wraps_exponents():
    f = gp(3, 1, [(2, 1)])
    g = gp(3, 1, [(2, 1)])
    assert (f * g).terms == ((1, 1),)  # T^2 * T^2 = T^4 = T^(4 mod 3)


def test_mixed_precision_closes_at_min():
    a = gp(3, 3, [(1, 1)])
    b = gp(3, 2, [(2, 1)])
    assert (a + b).precision == 2
    assert (a * b).precision == 2


def test_reciprocal_and_scale_exponents():
    # the substitution oracles of the symmetry and Galois checks
    f = gp(5, 2, [(1, 2), (24, 3)])
    assert reciprocal(f).terms == ((1, 3), (24, 2))
    assert substitute_power(f, 2).terms == ((2, 2), (23, 3))
    assert substitute_power(f, 26) == f


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(-5, 5)), max_size=5),
       st.lists(st.tuples(st.integers(0, 24), st.integers(-5, 5)), max_size=5))
def test_reciprocal_is_ring_morphism(ta, tb):
    a, b = gp(5, 2, ta), gp(5, 2, tb)
    assert reciprocal(a * b) == reciprocal(a) * reciprocal(b)
    assert reciprocal(a + b) == reciprocal(a) + reciprocal(b)


# -- voltage matrices ----------------------------------------------------------

def test_voltage_matrix_bouquet3():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(3), 5, [1, 1, 1], 2)
    m = voltage_matrix(va)
    assert m.size == 1
    f = m.entries[0][0]
    # 6 - 3T - 3T^-1
    assert f == gp(5, va.precision, [(0, 6), (1, -3), (-1, -3)])


def test_voltage_matrix_theta():
    va = VoltageAssignment.from_integers(THETA, 5, [1, 2, 2], 2)
    m = voltage_matrix(va)
    n = va.precision
    assert m.entries[0][0] == gp(5, n, [(0, 3)])
    assert m.entries[1][1] == gp(5, n, [(0, 3)])
    assert m.entries[0][1] == gp(5, n, [(1, -1), (-2, -2)])   # -(T + 2T^-2)
    assert m.entries[1][0] == gp(5, n, [(-1, -1), (2, -2)])   # -(T^-1 + 2T^2)


def test_voltage_matrix_four_parallel():
    graph = Multigraph.from_edge_list(2, [(0, 1)] * 4)
    va = VoltageAssignment.from_integers(graph, 2, [1, 2, 3, 4], 4)
    m = voltage_matrix(va)
    n = va.precision
    assert m.entries[0][0] == gp(2, n, [(0, 4)])
    assert m.entries[0][1] == gp(2, n, [(1, -1), (2, -1), (3, -1), (4, -1)])
    assert m.entries[1][0] == gp(2, n, [(-1, -1), (-2, -1), (-3, -1), (-4, -1)])


# -- determinants ---------------------------------------------------------------

def test_determinant_theta():
    va = VoltageAssignment.from_integers(THETA, 5, [1, 2, 2], 2)
    f = determinant(voltage_matrix(va))
    assert f == gp(5, va.precision, [(-3, -2), (0, 4), (3, -2)])


def test_determinant_bouquet4_skew():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(4), 3, [1, 2, 2, 2], 2)
    f = determinant(voltage_matrix(va))
    # -3T^-2 - T^-1 + 8 - T - 3T^2
    assert f == gp(3, va.precision, [(-2, -3), (-1, -1), (0, 8), (1, -1), (2, -3)])


def test_determinant_of_diagonal_matrix():
    d = gp(3, 2, [(0, 4)])
    m = GenPolyMatrix(((d, GenPoly.zero(3, 2)), (GenPoly.zero(3, 2), d)))
    assert determinant(m) == gp(3, 2, [(0, 16)])


def test_reciprocity_of_voltage_determinants():
    rng = random.Random(6)

    for _ in range(12):
        va = random_voltage_tower(rng)
        f = determinant(voltage_matrix(va))
        assert f == reciprocal(f)


def _det_expansion(entries):
    """Laplace expansion along the first row, memoized on the remaining
    columns: the reference for Berkowitz's determinant."""
    n = len(entries)
    cache = {}

    def minor(cols):
        row = n - len(cols)
        if len(cols) == 1:
            return entries[row][cols[0]]
        if cols not in cache:
            acc = None
            for k, c in enumerate(cols):
                term = entries[row][c] * minor(cols[:k] + cols[k + 1 :])
                term = -term if k % 2 else term
                acc = term if acc is None else acc + term
            cache[cols] = acc
        return cache[cols]

    return minor(tuple(range(n)))


def test_cofactor_vs_berkowitz():
    rng = random.Random(8)
    for size in range(1, 9):
        for _ in range(6 if size <= 5 else 2):
            entries = tuple(
                tuple(gp(3, 2, [(rng.randrange(9), rng.randint(-3, 3))
                                for _ in range(rng.randint(0, 2))])
                      for _ in range(size))
                for _ in range(size)
            )
            assert determinant(GenPolyMatrix(entries)) == _det_expansion(entries)
    with pytest.raises(ValueError):
        determinant(GenPolyMatrix(()))


def test_berkowitz_large_integer_matrix():
    rng = random.Random(12)
    size = 7
    ints = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    entries = tuple(tuple(GenPoly.constant(3, 2, x) for x in row) for row in ints)
    from elltowers.intdet import bareiss_det

    det = determinant(GenPolyMatrix(entries))
    expected = bareiss_det(ints)
    assert det == GenPoly.constant(3, 2, expected) or (det.is_zero and expected == 0)


# -- mu, integerize, reduce ------------------------------------------------------

def test_mu_invariant_examples():
    f1 = gp(5, 3, [(-1, -3), (0, 6), (1, -3)])
    mu, g = mu_invariant(f1, 3)
    assert mu == 1
    assert g == gp(5, 3, [(-1, -1), (0, 2), (1, -1)])

    f2 = gp(3, 3, [(-2, -2), (-1, -2), (0, 8), (1, -2), (2, -2)])
    assert mu_invariant(f2, 2)[0] == 1

    f4 = gp(3, 3, [(-2, -3), (-1, -1), (0, 8), (1, -1), (2, -3)])
    assert mu_invariant(f4, 5)[0] == 0


def test_mu_of_zero_rejected():
    from elltowers.genpoly import ZeroGenPolyError

    with pytest.raises(ZeroGenPolyError):
        mu_invariant(GenPoly.zero(3, 2), 2)


def test_integerize_bouquet3():
    f = gp(5, 3, [(-1, -3), (0, 6), (1, -3)])
    u, b = f.integerize()
    assert b == 1
    assert u == IntPoly((-3, 6, -3))
    assert u.coeffs == u.coeffs[::-1] and u(1) == 0 and u.coeffs[0] != 0


def test_integerize_bouquet4():
    f = gp(3, 4, [(-2, -2), (-1, -2), (0, 8), (1, -2), (2, -2)])
    u, b = f.integerize()
    assert b == 2
    # -2(T-1)^2 (1 + 3T + T^2)
    expected = (IntPoly((-1, 1)) * IntPoly((-1, 1)) * IntPoly((1, 3, 1))).scale(-2)
    assert u == expected


def test_integerize_requires_declared_integrality():
    f = gp(2, 8, [(0, 4), (5, -1)], integral=False)
    with pytest.raises(NonIntegralExponentError):
        f.integerize()


def test_lift_guard_near_modulus():
    f = gp(3, 2, [(4, 1)], integral=True)  # |lift| = 4 > 9/4
    with pytest.raises(PrecisionError):
        f.integerize()


def test_reduce_level_wraps_exponents():
    # 4 - T^s17 - T^-s17 - T^5 - T^-5 at level 1 (all exponents odd): 4 - 4T
    s17 = TruncatedPadic(2, 8, 233)
    f = (GenPoly.constant(2, 8, 4, integral=False)
         + GenPoly.monomial(2, 8, s17, -1)
         + GenPoly.monomial(2, 8, TruncatedPadic(2, 8, -233), -1)
         + GenPoly.monomial(2, 8, 5, -1)
         + GenPoly.monomial(2, 8, -5, -1))
    r1 = f.reduce_level(1)
    assert r1 == IntPoly((4, -4))
    assert r1(-1) == 8  # the level-1 norm of the sqrt(17) tower


def test_reduce_level_of_constant():
    f = GenPoly.constant(5, 3, 7)
    for n in range(4):
        assert f.reduce_level(n) == IntPoly((7,))


def test_reduce_level_small_support_is_exponent_shift():
    f = gp(3, 3, [(-1, -3), (0, 6), (1, -3)])
    r = f.reduce_level(3)
    assert r == IntPoly.from_pairs([(0, 6), (1, -3), (26, -3)])


def test_reduce_level_precision_guard():
    f = gp(2, 3, [(1, 1)], integral=False)
    with pytest.raises(PrecisionError):
        f.reduce_level(4)
    # integral polynomials lift past their working precision
    g = gp(2, 3, [(1, 1)], integral=True)
    assert g.reduce_level(5) == IntPoly((0, 1))


def test_reduce_level_agrees_with_root_of_unity_evaluation():
    # exact check in Z[T]/Phi_9: the level-2 reduction and the lifted
    # Laurent polynomial U/T^b agree as functions on primitive 9th roots
    # of unity, i.e. T^b * reduce_level(f, 2) = U modulo Phi_9.
    from elltowers.intpoly import cyclotomic

    rng = random.Random(13)
    phi = cyclotomic(9)
    for _ in range(10):
        pairs = [(rng.randint(-15, 15), rng.randint(-5, 5)) for _ in range(4)]
        f = gp(3, 4, pairs)
        u, b = f.integerize()
        lhs = f.reduce_level(2) * IntPoly((0,) * (b % 9) + (1,))  # times T^(b mod 9)
        # compare modulo T^9 - 1 first (exponent classes), then mod Phi_9
        t9 = IntPoly((-1,) + (0,) * 8 + (1,))
        diff = (lhs - u).divmod_by_monic(t9)[1]
        assert diff.divmod_by_monic(phi)[1].is_zero
