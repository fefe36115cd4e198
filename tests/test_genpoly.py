import itertools
import operator
import random
from unittest import mock

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
from elltowers import genpoly
from elltowers.genpoly import _berkowitz, _kronecker_determinant
from elltowers.intpoly import IntPoly, ZeroPolynomialError
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import dense_bareiss_det, random_voltage_tower, reciprocal, substitute_power, sympy_det

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


def test_mixed_rings_rejected():
    # a tower has one ring: operands of another ell or precision are refused
    a = gp(3, 3, [(1, 1)])
    for b in (gp(3, 2, [(2, 1)]), gp(5, 3, [(2, 1)])):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError):
                op(a, b)
            with pytest.raises(ValueError):
                op(b, a)
        # and so are matrices whose entries mix rings, on either route
        for integral in (True, False):
            c = gp(3, 3, [(0, 2)], integral)
            with pytest.raises(ValueError, match="different rings"):
                GenPolyMatrix(((c, a), (b, c)))


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


@st.composite
def voltage_assignments(draw):
    """Voltages on a random multigraph of 1-5 vertices: loops and parallel
    edges come both by chance and by repeating a drawn edge; the voltages
    are declared integers in [-30, 30] or ell-adic residues."""
    v = draw(st.integers(1, 5))
    edge = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1))
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    edges += [edges[k] for k in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3))]
    edges += [(k, k) for k in draw(st.lists(st.integers(0, v - 1), max_size=2))]
    graph = Multigraph.from_edge_list(v, edges)
    ell, precision = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(-30, 30), min_size=len(edges), max_size=len(edges)))
        return VoltageAssignment.from_integers(graph, ell, values, precision)
    residues = draw(st.lists(st.integers(0, ell**precision - 1), min_size=len(edges), max_size=len(edges)))
    return VoltageAssignment(graph, ell, tuple(TruncatedPadic(ell, precision, r) for r in residues))


@settings(deadline=None, max_examples=120)
@given(voltage_assignments())
def test_voltage_matrix_entries_match_the_definition(va):
    # entry (i, j) is delta_ij deg(i) - sum of T^v over the edges i -> j
    # - sum of T^-v over the edges j -> i; a loop counts at both its ends
    m, mod, g = voltage_matrix(va), va.ell**va.precision, va.graph.num_vertices
    values = va.integer_values or [x.residue for x in va.voltages]
    assert m.size == g
    for i in range(g):
        for j in range(g):
            want = {0: sum((t == i) + (h == i) for t, h in va.graph.edges) if i == j else 0}
            for (t, h), x in zip(va.graph.edges, values):
                if (t, h) == (i, j):
                    want[x % mod] = want.get(x % mod, 0) - 1
                if (h, t) == (i, j):
                    want[-x % mod] = want.get(-x % mod, 0) - 1
            entry = m.entries[i][j]
            assert dict(entry.terms) == {e: c for e, c in want.items() if c}, (i, j)
            assert (entry.ell, entry.precision, entry.integral) == (va.ell, va.precision, va.is_integral)


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


def berkowitz(m: GenPolyMatrix) -> GenPoly:
    """The kernel over GenPoly, the ring of the ell-adic route."""
    sample = m.entries[0][0]
    return _berkowitz(m.entries, GenPoly.constant(sample.ell, sample.precision, 1))


def test_berkowitz_large_integer_matrix():
    # one kernel over two rings: the integers and GenPoly constants
    rng = random.Random(12)
    size = 7
    ints = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    entries = tuple(tuple(GenPoly.constant(3, 2, x) for x in row) for row in ints)
    expected = dense_bareiss_det(ints)
    assert _berkowitz(ints, 1) == expected
    assert berkowitz(GenPolyMatrix(entries)) == GenPoly.constant(3, 2, expected)


def test_integer_kernel_needs_no_pivot():
    # the packed route's kernel on dense integer matrices whose leading
    # minors vanish, where Bareiss had to swap rows: a zero (0, 0) entry,
    # a repeated row, and every permutation matrix of order 1-5
    rng = random.Random(35)
    cases = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2], [3, 0]]]
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            cases.append([[int(j == perm[i]) for j in range(n)] for i in range(n)])
    for n in range(2, 10):
        for bits in (3, 40, 300):
            m = [[rng.randint(-2**bits, 2**bits) for _ in range(n)] for _ in range(n)]
            m[0][0] = 0
            cases.append(m)
            repeated = [row[:] for row in m]
            i, j = rng.sample(range(n), 2)
            repeated[i] = list(repeated[j])
            cases.append(repeated)
    for m in cases:
        assert _berkowitz(m, 1) == dense_bareiss_det(m) == sympy_det(m)


@st.composite
def integral_matrices(draw):
    """Declared-integral matrices of order 1-8 over Z[T]/(T^q - 1), q =
    ell^N: exponent residues anywhere in [0, q), half of them within two
    of q/2 (so their representatives lie near +-q/2), coefficients up
    to 2^40 in absolute value; the leading entry may be zero, and a row
    may repeat another (a singular matrix)."""
    ell, precision = draw(st.sampled_from(((2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 2))))
    q = ell**precision
    n = draw(st.integers(1, 8))
    exponent = st.one_of(st.integers(0, q - 1), st.integers(max(q // 2 - 2, 0), min(q // 2 + 2, q - 1)))
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-2**40, 2**40))
    terms = st.lists(st.tuples(exponent, coefficient), max_size=3 if n <= 5 else 2)
    rows = [[gp(ell, precision, draw(terms)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = GenPoly.zero(ell, precision)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    return GenPolyMatrix(tuple(map(tuple, rows)))


def every_matrix_packed():
    """The packed route for every integral matrix, however sparse its
    exponents."""
    return mock.patch.object(genpoly, "SLOTS_PER_TERM", 10**9)


@settings(deadline=None, max_examples=60)
@given(integral_matrices())
def test_integral_route_matches_berkowitz_and_expansion(m):
    with every_matrix_packed():
        det = _kronecker_determinant(m)
    assert det.integral
    assert det == berkowitz(m) == _det_expansion(m.entries)


@st.composite
def integral_towers(draw):
    """An integral voltage assignment on a cycle of 1-16 vertices with
    chords and a loop, voltages in [-20, 20]."""
    v = draw(st.integers(1, 16))
    chords = draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)), max_size=v))
    edges = [(i, (i + 1) % v) for i in range(v)] + chords + [(0, 0)]
    ell = draw(st.sampled_from((2, 3, 5)))
    voltages = draw(st.lists(st.integers(-20, 20), min_size=len(edges), max_size=len(edges)))
    return VoltageAssignment.from_integers(Multigraph.from_edge_list(v, edges), ell, voltages,
                                           draw(st.integers(1, 5)))


@settings(deadline=None, max_examples=25)
@given(integral_towers())
def test_integral_voltage_matrices_match_berkowitz(va):
    m = voltage_matrix(va)
    with every_matrix_packed():
        packed = _kronecker_determinant(m)
    assert packed == determinant(m) == berkowitz(m)


def test_integral_matrices_with_sparse_exponents_stay_on_berkowitz():
    # voltages 10^6 apart: the sums of one exponent per row are a few
    # dozen, where the packed route would spend millions of slots
    graph = Multigraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    sparse = voltage_matrix(VoltageAssignment.from_integers(graph, 2, [1, 10**6, 3, 0, 5, 10**6], 1))
    assert _kronecker_determinant(sparse) is None
    f = determinant(sparse)
    assert f.integral and f == berkowitz(sparse) == reciprocal(f)
    dense = voltage_matrix(VoltageAssignment.from_integers(graph, 2, [1, 2, 3, 0, 5, 2], 1))
    assert _kronecker_determinant(dense) == berkowitz(dense)


def test_ell_adic_matrices_stay_on_berkowitz(monkeypatch):
    def refuse(m):
        raise AssertionError("an ell-adic matrix took the integral route")

    monkeypatch.setattr(genpoly, "_kronecker_determinant", refuse)
    doc = {"ell": 3, "precision": 14, "vertices": ["v"], "edges": [
        {"tail": "v", "head": "v", "voltage": "1"},
        {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 7, "branch": 1}},
        {"tail": "v", "head": "v", "voltage": {"kind": "sqrt", "radicand": 10, "branch": 1}}]}
    m = voltage_matrix(build_assignment(parse_tower_spec(doc)))
    f = determinant(m)
    assert not f.integral and f == berkowitz(m) and len(f.terms) == 7
    with pytest.raises(AssertionError, match="integral route"):
        determinant(voltage_matrix(random_voltage_tower(random.Random(3))))


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
    with pytest.raises(ZeroPolynomialError):
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
    f = gp(2, 8, [(0, 4), (s17.residue, -1), (TruncatedPadic(2, 8, -233).residue, -1),
                  (5, -1), (-5, -1)], integral=False)
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
