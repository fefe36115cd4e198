import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from elltowers import Multigraph, spanning_tree_count
from elltowers.graphs import reduced_laplacian
from elltowers.intdet import bareiss_det, det_int, det_mod, hadamard_bound_bits, multimodular_det
from util import dense_bareiss_order, spanning_trees_bruteforce


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_known_small_determinants():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_row_swap_sign():
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_engines_agree_on_random_matrices():
    rng = random.Random(7)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(10):
            m = _random_matrix(rng, n)
            assert bareiss_det(m) == multimodular_det(m)


def _band_graph(g, b):
    """Vertex i joined to i + 1 .. i + b: searched from vertex 0 in order,
    its reduced Laplacian has profile first[j] = max(0, j - b)."""
    return Multigraph.from_edge_list(g, [(i, j) for i in range(g) for j in range(i + 1, min(i + b + 1, g))])


def _band_work(n, b):
    """sum t_k**2 of the profile first[j] = max(0, j - b) of order n."""
    return sum(min(b, n - 1 - k) ** 2 for k in range(n))


def test_dispatcher_threshold(monkeypatch):
    import elltowers.intdet as intdet

    def engines(matrix):
        calls = []
        monkeypatch.setattr(intdet, "bareiss_det", lambda rows, reach=None: calls.append("bareiss") or 0)
        monkeypatch.setattr(intdet, "multimodular_det", lambda rows: calls.append("mm") or 0)
        det_int(matrix)
        monkeypatch.undo()
        return calls

    # a list of rows counts as dense
    rng = random.Random(1)
    dense = dense_bareiss_order()
    for n in (6, dense, dense + 1):
        m = _random_matrix(rng, n)
        assert multimodular_det(m) == bareiss_det(m)
        assert engines(m) == ["bareiss" if n <= dense else "mm"]
    # a reduced Laplacian by its envelope work: band graphs whose work per
    # row is just within BAREISS_WORK and just past it
    n = 200
    b = max(b for b in range(1, n) if _band_work(n, b) <= intdet.BAREISS_WORK * n)
    for width, engine in ((1, "bareiss"), (b, "bareiss"), (b + 1, "mm"), (2 * b, "mm")):
        lap = reduced_laplacian(_band_graph(n + 1, width))
        assert lap.first == [max(0, j - width) for j in range(n)]
        assert engines(lap) == [engine]
        assert det_int(lap) == _envelope_det(lap) == multimodular_det(lap.array())


def test_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])


def test_det_mod_matches_exact():
    rng = random.Random(3)
    p = 1073741789  # prime below 2**30
    for n in (2, 4, 7):
        m = _random_matrix(rng, n, -50, 50)
        exact = bareiss_det(m)
        assert det_mod(np.array(m, dtype=np.int64), [p]) == [exact % p]
        assert det_mod(np.array(m, dtype=np.int64), []) == []


def test_hadamard_bound_dominates():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, -20, 20)
        d = bareiss_det(m)
        if d:
            assert abs(d).bit_length() <= hadamard_bound_bits(m)


def test_hadamard_bound_is_taken_from_the_exact_norm_product():
    # every row has squared norm 3: |det| <= 3**32 < 2**51, where rounding
    # each row's norm up to its bit length would give 2**64
    n = 64
    m = [[1 if (j - i) % n < 3 else 0 for j in range(n)] for i in range(n)]
    bits = hadamard_bound_bits(m)
    assert bits <= 52
    assert 3**32 < 1 << bits
    assert abs(det_int(m)).bit_length() <= bits


def _laplacian_minor(rng, g, extra):
    """The Laplacian of a random connected multigraph on g vertices, with
    loops and parallel edges, less a random vertex's row and column."""
    edges = [(rng.randrange(i), i) for i in range(1, g)]
    edges += [(rng.randrange(g), rng.randrange(g)) for _ in range(extra)]
    edges += rng.sample(edges, min(len(edges), 3))
    lap = [[0] * g for _ in range(g)]
    for t, h in edges:
        if t != h:
            lap[t][h] -= 1
            lap[h][t] -= 1
            lap[t][t] += 1
            lap[h][h] += 1
    drop = rng.randrange(g)
    return [[x for j, x in enumerate(row) if j != drop] for i, row in enumerate(lap) if i != drop]


def _row_norm_bits(m):
    prod = 1
    for row in m:
        prod *= sum(x * x for x in row)
    return (prod.bit_length() + 1) // 2


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_diagonal_bound_dominates_laplacian_minors(data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    g = data.draw(st.integers(2, 24), label="order")
    m = _laplacian_minor(rng, g, data.draw(st.integers(0, 3 * g), label="extra edges"))
    bits = hadamard_bound_bits(m)
    diagonal = 1
    for i, row in enumerate(m):
        diagonal *= row[i]
    assert bits == diagonal.bit_length() <= _row_norm_bits(m)
    assert 0 < bareiss_det(m) < 1 << bits  # a connected graph has a spanning tree


def test_other_matrices_keep_the_row_norm_bound():
    rng = random.Random(41)
    for _ in range(20):
        m = _laplacian_minor(rng, rng.randint(3, 20), 10)
        assert hadamard_bound_bits(m) <= _row_norm_bits(m)
        unsymmetric = [row[:] for row in m]
        unsymmetric[0][1] -= 1
        weak = [row[:] for row in m]
        weak[1][1] = sum(map(abs, m[1])) - m[1][1] - 1  # below its row's other entries
        negative = [[-x for x in row] for row in m]
        for other in (unsymmetric, weak, negative):
            assert hadamard_bound_bits(other) == _row_norm_bits(other)
            d = bareiss_det(other)
            assert abs(d) < 1 << hadamard_bound_bits(other)
    # int64 entries whose row sums pass int64: wrapped, the first row
    # would pass for dominant and the diagonal bound 2**186 fall below
    # |det| = 3 * 2**185
    m = [[2**61, -(2**62), -(2**62)], [-(2**62), 2**62, 0], [-(2**62), 0, 2**62]]
    assert hadamard_bound_bits(np.array(m, dtype=np.int64)) == _row_norm_bits(m)
    assert multimodular_det(m) == bareiss_det(m) == -3 * 2**185


def test_multimodular_large_entries():
    # entries big enough that a wrong bound or overflow would corrupt CRT
    rng = random.Random(5)
    m = [[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)]
    assert multimodular_det(m) == bareiss_det(m)


def test_multimodular_uses_the_fewest_primes_for_the_hadamard_bound(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    rng = random.Random(3)
    n = dense_bareiss_order() + 1
    m = [[rng.randint(-1, 1) if abs(i - j) <= 3 else 0 for j in range(n)] for i in range(n)]
    used = []
    real_det_mod = intdet.det_mod

    def recording_det_mod(matrix, qs):
        used.extend(qs)
        return real_det_mod(matrix, qs)

    monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
    assert det_int(m) == bareiss_det(m)
    assert used == primes_for_bound(1 << hadamard_bound_bits(m))
    # a reduced Laplacian: the product of its diagonal, a prime below the
    # row norms on a sparse graph
    lap = _laplacian_minor(rng, 4 * n, n // 2)
    used.clear()
    assert det_int(lap) == bareiss_det(lap)
    diagonal = 1
    for i, row in enumerate(lap):
        diagonal *= row[i]
    assert used == primes_for_bound(1 << diagonal.bit_length())
    assert len(used) < len(primes_for_bound(1 << _row_norm_bits(lap)))


def test_multimodular_stacks_stay_below_the_entry_limit(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    rng = random.Random(29)
    real_det_mod = intdet.det_mod
    for n in (40, 100, 182):
        m = [[5 if i == j else rng.randint(-1, 1) if abs(i - j) <= 2 else 0 for j in range(n)]
             for i in range(n)]
        stacks = []

        def recording_det_mod(matrix, qs):
            stacks.append(list(qs))
            return real_det_mod(matrix, qs)

        monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
        assert multimodular_det(m) == bareiss_det(m)
        qs = primes_for_bound(1 << hadamard_bound_bits(m))
        per_stack = max(1, intdet.STACK_ENTRIES // (n * n))
        sizes = [len(s) for s in stacks]
        assert [q for s in stacks for q in s] == qs
        assert len(stacks) == -(-len(qs) // per_stack)
        assert max(sizes) <= per_stack and max(sizes) - min(sizes) <= 1
    # a symmetric dominant band of half-width w is stored as n x (2w + 1)
    # per image, and its stacks are partitioned by those stored entries
    n, w = 200, 40
    m = _symmetric_band(rng, n, w, 1)
    for i in range(n - w):
        m[i][i + w] = m[i + w][i] = -1
    for i in range(n):
        m[i][i] = sum(map(abs, m[i])) + rng.randint(0, 40)
    stacks = []
    assert multimodular_det(m) == bareiss_det(m)
    qs = primes_for_bound(1 << hadamard_bound_bits(m))
    per_stack = intdet.STACK_ENTRIES // (n * (2 * w + 1))
    sizes = [len(s) for s in stacks]
    assert per_stack > 1 and len(stacks) > 1
    assert [q for s in stacks for q in s] == qs
    assert len(stacks) == -(-len(qs) // per_stack)
    assert max(sizes) <= per_stack and max(sizes) - min(sizes) <= 1


# -- the stacked elimination ------------------------------------------------------

def _images(m, qs):
    return [bareiss_det(m) % q for q in qs]


def test_stack_pivots_per_image():
    from elltowers.multimodular import primes

    rng = random.Random(17)
    qs = primes(3)
    n = 9
    m = _random_matrix(rng, n, -30, 30)
    # the leading entry vanishes mod qs[1] only, and the leading 2x2
    # minor mod qs[2] only, so each image swaps rows at its own step
    m[0][0] = qs[1] * 3
    m[1][1] = m[0][1] * m[1][0] * pow(m[0][0], -1, qs[2]) % qs[2]
    assert m[0][0] % qs[2] and (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % qs[2] == 0
    assert det_mod(np.array(m, dtype=np.int64), qs) == _images(m, qs)


def test_stack_image_zero_while_others_are_not():
    from elltowers.multimodular import primes

    rng = random.Random(19)
    qs = primes(4)
    n = 8
    # a column that vanishes mod qs[2] only
    m = _random_matrix(rng, n, -40, 40)
    for i in range(n):
        m[i][3] = qs[2] * rng.randint(-2, 2)
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == _images(m, qs) and got[2] == 0 and all(got[k] for k in (0, 1, 3))
    # det = +-qs[1]: unimodular transforms of diag(qs[1], 1, ..., 1)
    m = [[qs[1] if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    assert abs(bareiss_det(m)) == qs[1]
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == _images(m, qs) and got[1] == 0 and all(got[k] for k in (0, 2, 3))


def test_stack_worst_case_magnitudes_past_the_lazy_bound():
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    qs = primes(3)
    n = intdet.LAZY + 3
    for q in qs:
        # M = L U mod q with every multiplier and every pivot-row entry
        # at (q-1)/2: each rank-1 update subtracts ((q-1)/2)**2 from
        # every trailing entry, the largest growth balanced residues
        # allow, LAZY times before the first reduction
        h = (q - 1) // 2
        low = [[1 if i == j else h if j < i else 0 for j in range(n)] for i in range(n)]
        up = [[h if j >= i else 0 for j in range(n)] for i in range(n)]
        m = [[sum(low[i][k] * up[k][j] for k in range(min(i, j) + 1)) % q for j in range(n)]
             for i in range(n)]
        m = [[x - q if x > h else x for x in row] for row in m]
        assert det_mod(np.array(m, dtype=np.int64), qs) == _images(m, qs)
        assert pow(h, n, q) == bareiss_det(m) % q


# -- the envelope: each step updates only the box of its nonzeros ----------------

def _det_mod_reference(m, q):
    """det m mod q by plain row reduction over Python ints."""
    a = [[x % q for x in row] for row in m]
    n, det = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % q
        inv = pow(a[k][k], -1, q)
        for i in range(k + 1, n):
            f = a[i][k] * inv % q
            if f:
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[k])]
    return det % q


def _band(rng, n, lower, upper, cyclic, bound, zeros=0.0):
    """Random entries on the band lower below to upper above the diagonal,
    wrapping around the corners when cyclic; zeros elsewhere."""
    def inside(i, j):
        if cyclic:
            return (j - i) % n <= upper or (i - j) % n <= lower
        return -lower <= j - i <= upper
    return [[rng.randint(-bound, bound) if inside(i, j) and rng.random() >= zeros else 0
             for j in range(n)] for i in range(n)]


def _lu_image(n, q, low, up):
    """M = L U mod q, balanced, for L unit lower triangular and U upper
    triangular with h = (q - 1) / 2 on U's diagonal and wherever low(i, k)
    (i > k) or up(k, j) (j > k) holds.  Eliminating M mod q reproduces
    L's multipliers and U's rows, all at h: each update subtracts h**2,
    the largest growth balanced residues allow, and det M = h**n mod q."""
    h = (q - 1) // 2
    lower = [[k for k in range(i) if low(i, k)] + [i] for i in range(n)]
    upper = [[k] + [j for j in range(k + 1, n) if up(k, j)] for k in range(n)]
    m = []
    for i in range(n):
        row = [0] * n
        for k in lower[i]:
            for j in upper[k]:
                row[j] += h * h if k < i else h
        m.append([(x + h) % q - h for x in row])
    return m


def test_stack_image_swaps_in_a_row_from_below_the_others_envelope():
    from elltowers.multimodular import primes

    rng = random.Random(31)
    qs = primes(2)
    n = 40
    m = _band(rng, n, 2, 2, False, 50)
    # column 0 vanishes mod qs[1] down to row 25, which vanishes mod qs[0]:
    # the qs[1] image swaps row 25, whose band reaches column 27, into the
    # pivot row, while the qs[0] image keeps a pivot row ending at column
    # 2; row 26 takes a multiple of the pivot row in both images
    m[0][0], m[1][0], m[2][0], m[25][0], m[26][0] = qs[1], 2 * qs[1], qs[1], qs[0], 7
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == [_det_mod_reference(m, q) for q in qs] == _images(m, qs)


def test_cyclic_band_with_corners_at_orders_past_several_lazy_boundaries():
    from elltowers.multimodular import primes

    rng = random.Random(37)
    qs = primes(3)
    for n in (64, 97, 131, 200):
        m = _band(rng, n, 2, 3, True, 2**29)
        got = det_mod(np.array(m, dtype=np.int64), qs)
        assert got == [_det_mod_reference(m, q) for q in qs]
    # the elimination of a cyclic band fills its last rows and columns:
    # with every multiplier and pivot-row entry at h, the boxes reach the
    # corner at every step and the fill grows by h**2 per step
    for n in (64, 200):
        for q in qs[:2]:
            w = 3
            m = _lu_image(n, q, lambda i, k: i - k <= w or i >= n - w,
                          lambda k, j: j - k <= w or j >= n - w)
            got = det_mod(np.array(m, dtype=np.int64), qs)
            assert got == [_det_mod_reference(m, p) for p in qs]
            assert got[qs.index(q)] == pow((q - 1) // 2, n, q)


def test_lazy_reduction_covers_every_box_since_the_last():
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    # an arrow whose last row and column get h**2 at every step except
    # step LAZY - 1, whose box is the single entry right of its pivot: a
    # reduction of that last box alone would leave the arrow 2 * LAZY - 1
    # updates deep, past int64
    n, hole = 2 * intdet.LAZY + 4, intdet.LAZY - 1
    for q in primes(2):
        m = _lu_image(n, q, lambda i, k: i == k + 1 or (i == n - 1 and k != hole),
                      lambda k, j: j == k + 1 or (j == n - 1 and k != hole))
        assert det_mod(np.array(m, dtype=np.int64), [q]) == [pow((q - 1) // 2, n, q)]


def test_large_boxes_update_in_slices_of_rows(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    rng = random.Random(43)
    qs = primes(3)
    for entries in (1, 50, 500):
        monkeypatch.setattr(intdet, "UPDATE_ENTRIES", entries)
        m = _random_matrix(rng, 40, -(2**29), 2**29)
        assert det_mod(np.array(m, dtype=np.int64), qs) == [_det_mod_reference(m, q) for q in qs]


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_mod_on_banded_and_cyclic_band_matrices(data):
    from elltowers.multimodular import primes

    n = data.draw(st.integers(2, 100), label="order")
    lower = data.draw(st.integers(0, 6), label="lower band")
    upper = data.draw(st.integers(0, 6), label="upper band")
    cyclic = data.draw(st.booleans(), label="cyclic")
    bound = data.draw(st.sampled_from([1, 9, 2**29, 2**40]), label="entry bound")
    zeros = data.draw(st.sampled_from([0.0, 0.3]), label="zero fraction")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    m = _band(rng, n, lower, upper, cyclic, bound, zeros)
    qs = primes(3)
    assert det_mod(np.array(m, dtype=np.int64), qs) == [_det_mod_reference(m, q) for q in qs]


def test_entries_beyond_int64_stay_exact():
    rng = random.Random(23)
    n = dense_bareiss_order() + 4
    m = _random_matrix(rng, n)
    for _ in range(10):
        m[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(2**63, 2**90)
    assert det_int(m) == multimodular_det(m) == bareiss_det(m)
    qs = [1073741789, 1073741783]
    assert det_mod(np.array(m, dtype=object), qs) == _images(m, qs)
    # and int64 entries at the ends of the int64 range
    m = _random_matrix(rng, 12)
    m[0][0], m[3][5], m[7][2] = 2**63 - 1, -(2**63), 2**63 - 2**28
    assert det_mod(np.array(m, dtype=np.int64), qs) == _images(m, qs)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_int_matches_bareiss_across_the_threshold(data):
    t = dense_bareiss_order()
    n = data.draw(st.one_of(st.integers(1, 6), st.integers(t - 2, t + 6)), label="order")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    zeros = data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="zero fraction")
    bound = data.draw(st.sampled_from([1, 9, 2**40]), label="entry bound")
    m = [[0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(n)]
         for _ in range(n)]
    assert det_int(m) == bareiss_det(m) == multimodular_det(m)


# -- the shared prime pool and CRT ------------------------------------------------

def test_prime_pool_is_the_previous_prime_chain():
    import sympy

    from elltowers.multimodular import primes

    chain, q = [], 1 << 30
    for _ in range(40):
        q = sympy.prevprime(q)
        chain.append(q)
    assert primes(40) == chain


def test_prime_pool_per_modulus():
    from elltowers.factorint import is_certified_prime
    from elltowers.multimodular import primes

    for m in (4, 9, 625, 2401):
        qs = primes(25, m)
        assert qs == sorted(qs, reverse=True) and len(set(qs)) == 25
        assert all(q % m == 1 and q < 1 << 30 and is_certified_prime(q) for q in qs)
        # nothing skipped between the ceiling and the last prime handed out
        assert sum(is_certified_prime(c) for c in range(qs[-1], 1 << 30, m)) == 25


def test_crt_symmetric_representative():
    from elltowers.multimodular import crt, primes_for_bound

    rng = random.Random(2)
    for _ in range(50):
        x = rng.randint(-(10**80), 10**80)
        qs = primes_for_bound(10**80, 27)
        assert crt([x % q for q in qs], qs) == x
    assert crt([0, 0], [5, 7]) == 0
    assert crt([34], [37]) == -3


def _mod(values, p):
    """values % p entrywise, in Python integers, for nested lists."""
    return [_mod(v, p) for v in values] if isinstance(values, list) else values % p


def test_residues_match_python_remainders():
    from elltowers.multimodular import residues

    qs = [1073741789, 1073741783, 7]
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    rng = random.Random(5)
    small = [rng.randint(-(2**62), 2**62) for _ in range(9)]
    # past int64, where numpy alone would read uint64, float64 or objects
    cases = (small, [2**63 + 1, -1], [2**64 - 1], [-(2**90), 3, 2**64 + 1],
             [[rng.randint(-(2**100), 2**100) for _ in range(3)] for _ in range(2)])
    for values in cases:
        got = residues(values, q)
        assert got.dtype == np.int64
        assert got.tolist() == [_mod(values, p) for p in qs]
    # an int64 matrix against a flat array of primes
    a = np.array(small, dtype=np.int64).reshape(3, 3)
    assert residues(a, q.ravel()).tolist() == [_mod(a.tolist(), p) for p in qs]


def test_int64_code_refuses_large_moduli():
    for matrix in (np.eye(2, dtype=np.int64), np.array([[2**70, 0], [0, 1]], dtype=object)):
        for bad in ((1 << 30) + 3, 1 << 30):
            with pytest.raises(ValueError):
                det_mod(matrix, [1073741789, bad])


# -- the band kernel: symmetric dominant matrices eliminated without swaps ---------

def _record_det_stack(monkeypatch):
    """The prime lists of every det_stack call, the band kernel's fallbacks."""
    import elltowers.intdet as intdet

    calls, real = [], intdet.det_stack
    monkeypatch.setattr(intdet, "det_stack", lambda a, qs: calls.append(list(qs)) or real(a, qs))
    return calls


def _symmetric_band(rng, n, w, bound, zeros=0.0):
    """_band's upper half of width w mirrored below a zero diagonal."""
    up = _band(rng, n, 0, w, False, bound, zeros)
    return [[up[min(i, j)][max(i, j)] if i != j else 0 for j in range(n)] for i in range(n)]


def _dominant(m, q):
    """m with each diagonal entry raised by a multiple of q until the matrix
    is diagonally dominant: the same image modulo q."""
    m = [row[:] for row in m]
    for i, row in enumerate(m):
        others = sum(map(abs, row)) - abs(row[i])
        row[i] += max(0, -(-(others - row[i]) // q)) * q
    return m


def _clique_ring(s, m):
    """K_s x C_m, the Cartesian product: m cliques of s vertices in a ring,
    each vertex joined to its copies in the two neighbouring cliques."""
    v = lambda u, c: c * s + u
    edges = [(v(u, c), v(w, c)) for c in range(m) for u in range(s) for w in range(u + 1, s)]
    edges += [(v(u, c), v(u, (c + 1) % m)) for c in range(m) for u in range(s)]
    return Multigraph.from_edge_list(s * m, edges)


def _clique_ring_trees(s, m):
    """Spanning trees of K_s x C_m (m >= 3).  The Laplacian eigenvalues are
    the sums of those of K_s (0 once, s with multiplicity s - 1) and of
    C_m (2 - 2 cos(2 pi j / m)), so the count is m (a_m - 2)**(s - 1) / s,
    with a_m = prod_j (s + 2 - 2 cos(2 pi j / m)) + 2 from a_0 = 2,
    a_1 = s + 2 and a_k = (s + 2) a_(k-1) - a_(k-2)."""
    a, b = 2, s + 2
    for _ in range(m - 1):
        a, b = b, (s + 2) * b - a
    count, rest = divmod(m * (b - 2) ** (s - 1), s)
    assert rest == 0
    return count


def test_clique_ring_tree_counts():
    for s in (1, 2, 3, 4):
        for m in (3, 4, 5):
            assert spanning_tree_count(_clique_ring(s, m)) == _clique_ring_trees(s, m)
    assert _clique_ring_trees(2, 3) == 75  # the triangular prism
    for s, m in ((1, 3), (2, 3), (3, 3)):
        assert spanning_trees_bruteforce(_clique_ring(s, m)) == _clique_ring_trees(s, m)


def test_breadth_first_band_laplacian_takes_one_stack_for_all_its_primes(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    # K_8 x C_21: its breadth-first ordered reduced Laplacian has order 167,
    # half-bandwidth 16 and envelope work 235 per row, past BAREISS_WORK,
    # so the band kernel takes it; its 18 primes share one stack, where
    # dense images would go four to a stack
    graph = _clique_ring(8, 21)
    calls, real_det_mod = [], intdet.det_mod

    def recording_det_mod(matrix, qs):
        calls.append((matrix, list(qs)))
        return real_det_mod(matrix, qs)

    monkeypatch.setattr(intdet, "det_mod", recording_det_mod)
    assert spanning_tree_count(graph) == _clique_ring_trees(8, 21)
    ((lap, used),) = calls
    assert lap.shape == (167, 167) and intdet._width(intdet._band_profile(lap)) == 16
    assert used == primes_for_bound(1 << hadamard_bound_bits(lap))
    assert intdet.STACK_ENTRIES // (167 * 167) < len(used)


# -- envelope Bareiss: reduced Laplacians without row swaps -----------------------

def _exact_det(m):
    """sympy's determinant of a list of rows."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = len(m)
    return int(DomainMatrix([[ZZ(x) for x in row] for row in m], (n, n), ZZ).det()) if n else 1


def _profile(m):
    """The first nonzero column of each row of a list of rows (the
    diagonal's when there is none before it)."""
    return [next((j for j, x in enumerate(row[:i]) if x), i) for i, row in enumerate(m)]


def _envelope_det(lap):
    import elltowers.intdet as intdet

    reach = intdet._reach(lap.first)
    return bareiss_det(lap.envelope(reach), reach)


def _check_envelope(graph):
    """The envelope Bareiss value of graph's reduced Laplacian against the
    pivoting Bareiss value, sympy and det_int, and its profile against
    the dense minor's."""
    lap = reduced_laplacian(graph)
    dense = lap.array().tolist()
    assert lap.first == _profile(dense)
    det = _envelope_det(lap)
    assert det == bareiss_det(dense) == _exact_det(dense) == det_int(lap) > 0
    return det


def test_envelope_grows_by_many_columns_in_one_step():
    import elltowers.intdet as intdet

    # a clique on 0 .. 12 and a path 12 - 13 - ... - 32 of doubled edges:
    # searched from 0, the path is visited last, so it opens the minor, and
    # the other 11 columns of the clique all enter the box at the step of
    # vertex 12, after 20 pivots whose leading minor is 2**20, which their
    # entries are scaled by
    clique = [(u, w) for u in range(13) for w in range(u + 1, 13)]
    path = [(v, v + 1) for v in range(12, 32) for _ in range(2)]
    graph = Multigraph.from_edge_list(33, clique + path)
    lap = reduced_laplacian(graph)
    reach = intdet._reach(lap.first)
    assert reach[19:21] == [21, 32] and intdet._bareiss_serves(reach)
    assert bareiss_det([row[:20] for row in lap.array().tolist()[:20]]) == 2**20
    assert _check_envelope(graph) == 2**20 * 13**11


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_envelope_bareiss_on_random_multigraphs(data):
    import elltowers.intdet as intdet

    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    g = data.draw(st.integers(1, 56), label="order")
    extra = data.draw(st.sampled_from([0, 1, 2, 6]), label="extra edges per vertex")
    pendant = data.draw(st.integers(0, 10), label="pendant path")
    # a random tree, then random edges, loops and parallel copies, and a
    # path hanging off one vertex, all relabelled at random
    edges = [(rng.randrange(i), i) for i in range(1, g)]
    edges += [(rng.randrange(g), rng.randrange(g)) for _ in range(extra * g)]
    edges += [(v, v) for v in rng.sample(range(g), min(g, 3))]
    edges += rng.sample(edges, min(len(edges), 5))
    tail = rng.randrange(g)
    for v in range(g, g + pendant):
        edges.append((tail, v))
        tail = v
    g += pendant
    perm = rng.sample(range(g), g)
    graph = Multigraph.from_edge_list(g, [(perm[t], perm[h]) for t, h in edges])
    _check_envelope(graph)
    lap = reduced_laplacian(graph)
    event("Bareiss" if intdet._bareiss_serves(intdet._reach(lap.first)) else "multi-modular")


def test_band_images_whose_leading_minors_vanish_are_recomputed_alone(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    rng = random.Random(53)
    qs = primes(4)
    m = _dominant(_symmetric_band(rng, 30, 3, 5), 1)
    # the leading entry vanishes mod qs[1], and the leading 2 x 2 minor
    # mod qs[2]: both images lose their pivot before the last step
    m[0][0] = qs[1]
    m[1][1] = m[0][1] ** 2 * pow(m[0][0], -1, qs[2]) % qs[2]
    m = _dominant(m, qs[2])
    assert (m[0][0] * m[1][1] - m[0][1] ** 2) % qs[2] == 0 and m[0][0] % qs[2]
    a = np.array(m, dtype=np.int64)
    assert intdet._band_profile(a) is not None
    calls = _record_det_stack(monkeypatch)
    got = det_mod(a, qs)
    assert got == [_det_mod_reference(m, q) for q in qs] == _images(m, qs)
    assert calls == [[qs[1]], [qs[2]]]


def test_band_image_whose_last_pivot_vanishes_needs_no_fallback(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    rng = random.Random(59)
    qs = primes(3)
    m = _dominant(_symmetric_band(rng, 40, 4, 3), 1)
    # det is linear in the last diagonal entry: det = x * D + C, with D the
    # leading minor of order n - 1; pick x = -C / D mod qs[0]
    lead = bareiss_det([row[:-1] for row in m[:-1]])
    m[-1][-1] = 0
    rest = bareiss_det(m)
    m[-1][-1] = -rest * pow(lead, -1, qs[0]) % qs[0]
    m = _dominant(m, qs[0])
    calls = _record_det_stack(monkeypatch)
    got = det_mod(np.array(m, dtype=np.int64), qs)
    assert got == [_det_mod_reference(m, q) for q in qs] and got[0] == 0 and all(got[1:])
    assert calls == []


def test_band_worst_case_magnitudes_between_lazy_reductions():
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    # M = U^T U mod q for U unit upper triangular with h = (q - 1) / 2 on
    # the w diagonals above its own: every pivot is 1 and every pivot-row
    # entry and multiplier is h, so each update subtracts h**2 from its
    # box, the largest growth balanced residues allow, and with w > LAZY
    # entries take LAZY updates between reductions; det M = 1
    w = intdet.LAZY + 2
    n = 2 * w + 10
    for q in primes(2):
        h = (q - 1) // 2
        up = [[1 if i == j else h if 0 < j - i <= w else 0 for j in range(n)] for i in range(n)]
        m = [[sum(up[k][i] * up[k][j] for k in range(n)) % q for j in range(n)] for i in range(n)]
        m = _dominant([[x - q if x > h else x for x in row] for row in m], q)
        a = np.array(m, dtype=np.int64)
        assert intdet._width(intdet._band_profile(a)) == w
        assert det_mod(a, [q]) == [1]


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_mod_on_symmetric_dominant_bands(data):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes

    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    n = data.draw(st.integers(2, 90), label="order")
    w = data.draw(st.integers(0, (n - 2) // 2), label="half-bandwidth")
    bound = data.draw(st.sampled_from([1, 9, 2**20]), label="entry bound")
    zeros = data.draw(st.sampled_from([0.0, 0.5]), label="zero fraction")
    qs = primes(3)
    # diagonals at the dominance limit, or past it by a multiple of a prime
    # of the list, so that leading minors vanish modulo it now and then
    m = _dominant(_symmetric_band(rng, n, w, bound, zeros), 1)
    for i in range(n):
        m[i][i] += rng.choice((0, 0, 1, qs[rng.randrange(3)]))
    a = np.array(m, dtype=np.int64)
    assert intdet._band_profile(a) is not None
    assert det_mod(a, qs) == [_det_mod_reference(m, q) for q in qs]
    assert det_mod(a, []) == []
