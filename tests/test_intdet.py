import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elltowers.intdet import bareiss_det, det_int, det_mod, hadamard_bound_bits, multimodular_det


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


def test_dispatcher_threshold(monkeypatch):
    import elltowers.intdet as intdet

    rng = random.Random(1)
    for n in (6, intdet.BAREISS_THRESHOLD, intdet.BAREISS_THRESHOLD + 1):
        m = _random_matrix(rng, n)
        assert multimodular_det(m) == bareiss_det(m)
        engines = []
        monkeypatch.setattr(intdet, "bareiss_det", lambda rows: engines.append("bareiss") or 0)
        monkeypatch.setattr(intdet, "multimodular_det", lambda rows: engines.append("mm") or 0)
        det_int(m)
        monkeypatch.undo()
        assert engines == ["bareiss" if n <= intdet.BAREISS_THRESHOLD else "mm"]


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


def test_multimodular_large_entries():
    # entries big enough that a wrong bound or overflow would corrupt CRT
    rng = random.Random(5)
    m = [[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)]
    assert multimodular_det(m) == bareiss_det(m)


def test_multimodular_uses_the_fewest_primes_for_the_hadamard_bound(monkeypatch):
    import elltowers.intdet as intdet
    from elltowers.multimodular import primes_for_bound

    rng = random.Random(3)
    n = intdet.BAREISS_THRESHOLD + 1
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
    import elltowers.intdet as intdet

    rng = random.Random(23)
    n = intdet.BAREISS_THRESHOLD + 4
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
    import elltowers.intdet as intdet

    t = intdet.BAREISS_THRESHOLD
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


def test_int64_code_refuses_large_moduli():
    with pytest.raises(ValueError):
        det_mod(np.eye(2, dtype=np.int64), [(1 << 30) + 3])
