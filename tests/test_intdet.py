import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import elltowers.intdet as intdet
from elltowers import Multigraph, spanning_tree_count
from elltowers.graphs import reduced_laplacian
from elltowers.intdet import bareiss_det, det_int, det_mod, multimodular_det
from elltowers.multimodular import crt, primes, primes_for_bound, residues
from util import dense_bareiss_det, dense_bareiss_order, spanning_trees_bruteforce, sympy_det


def _random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _random_multigraph(rng, g, extra):
    """A random connected multigraph on g vertices: a random tree, extra
    random edges (loops among them), and parallel copies of a few."""
    edges = [(rng.randrange(i), i) for i in range(1, g)]
    edges += [(rng.randrange(g), rng.randrange(g)) for _ in range(extra)]
    edges += rng.sample(edges, min(len(edges), 3))
    return Multigraph.from_edge_list(g, edges)


def _envelope_det(lap):
    reach = intdet._reach(lap.first)
    return bareiss_det(lap.envelope(reach), reach)


# -- the oracle: dense pivoting Bareiss of any square matrix ---------------------

def test_known_small_determinants():
    assert dense_bareiss_det([]) == 1
    assert dense_bareiss_det([[7]]) == 7
    assert dense_bareiss_det([[1, 2], [3, 4]]) == -2
    assert dense_bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert dense_bareiss_det([[1, 2], [2, 4]]) == 0


def test_row_swap_sign():
    assert dense_bareiss_det([[0, 1], [1, 0]]) == -1
    assert dense_bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


# -- det_int and its two engines on reduced Laplacians ---------------------------

def test_engines_agree_on_random_matrices():
    # reduced Laplacians of random multigraphs, the one input of both engines
    rng = random.Random(7)
    for g in (2, 3, 5, 8, 12, 30):
        for _ in range(10):
            lap = reduced_laplacian(_random_multigraph(rng, g, rng.randint(0, 3 * g)))
            dense = lap.array().tolist()
            assert _envelope_det(lap) == multimodular_det(lap) == dense_bareiss_det(dense) > 0


def _band_graph(g, b):
    """Vertex i joined to i + 1 .. i + b: searched from vertex 0 in order,
    its reduced Laplacian has profile first[j] = max(0, j - b)."""
    return Multigraph.from_edge_list(g, [(i, j) for i in range(g) for j in range(i + 1, min(i + b + 1, g))])


def _band_work(n, b):
    """sum t_k**2 of the profile first[j] = max(0, j - b) of order n."""
    return sum(min(b, n - 1 - k) ** 2 for k in range(n))


def test_dispatcher_threshold(monkeypatch):
    def engines(lap):
        calls = []
        monkeypatch.setattr(intdet, "bareiss_det", lambda rows, reach: calls.append("bareiss") or 0)
        monkeypatch.setattr(intdet, "multimodular_det", lambda lap: calls.append("mm") or 0)
        det_int(lap)
        monkeypatch.undo()
        return calls

    # by envelope work: band graphs whose work per row is just within
    # BAREISS_WORK and just past it
    n = 200
    b = max(b for b in range(1, n) if _band_work(n, b) <= intdet.BAREISS_WORK * n)
    for width, engine in ((1, "bareiss"), (b, "bareiss"), (b + 1, "mm"), (2 * b, "mm")):
        lap = reduced_laplacian(_band_graph(n + 1, width))
        assert lap.first == [max(0, j - width) for j in range(n)]
        assert engines(lap) == [engine]
        assert det_int(lap) == _envelope_det(lap) == multimodular_det(lap)
    # a complete graph's minor has a dense profile, whose work per row is
    # (n - 1)(2n - 1) / 6
    dense = dense_bareiss_order()
    for g in (dense + 1, dense + 2):
        lap = reduced_laplacian(Multigraph.from_edge_list(g, [(i, j) for i in range(g) for j in range(i)]))
        assert engines(lap) == ["bareiss" if g == dense + 1 else "mm"]
        assert det_int(lap) == g ** (g - 2)


def test_det_mod_matches_exact():
    rng = random.Random(3)
    p = 1073741789  # prime below 2**30
    for g in (2, 3, 5, 8, 40):
        lap = reduced_laplacian(_random_multigraph(rng, g, 2 * g))
        a = lap.array()
        assert det_mod(a, [p], lap.first) == [dense_bareiss_det(a.tolist()) % p]
        assert det_mod(a, [], lap.first) == []


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_diagonal_bound_dominates_laplacian_minors(data):
    # the bound multimodular_det recombines against: |det| <= the product
    # of the diagonal, since a reduced Laplacian is positive semidefinite
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    g = data.draw(st.integers(2, 24), label="order")
    lap = reduced_laplacian(_random_multigraph(rng, g, data.draw(st.integers(0, 3 * g), label="extra edges")))
    dense = lap.array().tolist()
    assert [row[i] for i, row in enumerate(dense)] == lap.diagonal
    det = dense_bareiss_det(dense)
    assert 0 < det <= math.prod(lap.diagonal)  # a connected graph has a spanning tree
    assert multimodular_det(lap) == det


def test_multimodular_large_entries():
    # many parallel edges to the dropped vertex put diagonal entries up to
    # 10**12 on a random graph: a wrong bound or an overflow would corrupt
    # the CRT
    rng = random.Random(5)
    lap = reduced_laplacian(_random_multigraph(rng, 30, 60))
    lap = lap._replace(diagonal=[d + rng.randint(0, 10**12) for d in lap.diagonal])
    assert multimodular_det(lap) == _envelope_det(lap) == dense_bareiss_det(lap.array().tolist())


def _record_det_mod(monkeypatch):
    """The matrix, primes and profile of every det_mod call."""
    calls, real = [], intdet.det_mod
    monkeypatch.setattr(intdet, "det_mod",
                        lambda matrix, qs, first: calls.append((matrix, list(qs), first)) or real(matrix, qs, first))
    return calls


def test_multimodular_uses_the_fewest_primes_for_the_hadamard_bound(monkeypatch):
    # the product of the diagonal is the bound: the primes' product passes
    # twice it, and all but the last prime's does not
    rng = random.Random(3)
    calls = _record_det_mod(monkeypatch)
    for lap in (reduced_laplacian(_band_graph(101, 12)), reduced_laplacian(_random_multigraph(rng, 60, 30))):
        calls.clear()
        assert multimodular_det(lap) == _envelope_det(lap)
        used = [q for _, qs, _ in calls for q in qs]
        bound = math.prod(lap.diagonal)
        assert used == primes_for_bound(bound)
        assert math.prod(used[:-1]) <= 2 * bound < math.prod(used)


def _wheel(n):
    """The wheel, hub 0 and rim 1 .. n.  Its reduced Laplacian drops the
    hub: the rim's cycle, whose closing edge gives a profile of half-width
    n - 1, stored dense."""
    spokes = [(0, i) for i in range(1, n + 1)]
    return Multigraph.from_edge_list(n + 1, spokes + [(i, i % n + 1) for i in range(1, n + 1)])


def _wheel_trees(n):
    """W_n has L_{2n} - 2 spanning trees (L the Lucas numbers)."""
    a, b = 2, 1
    for _ in range(2 * n):
        a, b = b, a + b
    return a - 2


def test_multimodular_stacks_stay_below_the_entry_limit(monkeypatch):
    # an image in dense storage keeps n x n entries (the wheels), one in
    # band storage n x (2w + 1) (a band of half-width 40), and the stacks
    # are partitioned by those stored entries
    calls = _record_det_mod(monkeypatch)
    cases = [(reduced_laplacian(_wheel(n)), n, _wheel_trees(n)) for n in (40, 100, 182)]
    band = reduced_laplacian(_band_graph(201, 40))
    cases.append((band, 81, _envelope_det(band)))
    counts = []
    for lap, row_entries, det in cases:
        n = len(lap.first)
        assert min(n, 2 * intdet._width(lap.first) + 1) == row_entries
        calls.clear()
        assert multimodular_det(lap) == det
        stacks = [qs for _, qs, _ in calls]
        qs = primes_for_bound(math.prod(lap.diagonal))
        per_stack = max(1, intdet.STACK_ENTRIES // (n * row_entries))
        sizes = [len(s) for s in stacks]
        assert [q for s in stacks for q in s] == qs
        assert len(stacks) == -(-len(qs) // per_stack)
        assert max(sizes) <= per_stack and max(sizes) - min(sizes) <= 1
        counts.append((per_stack, len(stacks)))
    # several stacks in each storage, and several images to a band stack
    assert counts[2][1] > 1 and counts[3][0] > 1 and counts[3][1] > 1


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_int_matches_bareiss_across_the_threshold(data):
    # random multigraphs with parallel edges, from sparse to complete, of
    # orders on both sides of the largest dense profile Bareiss takes
    t = dense_bareiss_order()
    g = data.draw(st.one_of(st.integers(2, 7), st.integers(t - 1, t + 7)), label="vertices")
    density = data.draw(st.sampled_from([1.0, 0.5, 0.1]), label="edge density")
    copies = data.draw(st.sampled_from([1, 3]), label="most parallel copies")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    edges = [(rng.randrange(i), i) for i in range(1, g)]
    edges += [(i, j) for i in range(g) for j in range(i) if rng.random() < density
              for _ in range(rng.randint(1, copies))]
    lap = reduced_laplacian(Multigraph.from_edge_list(g, edges))
    event("Bareiss" if intdet._bareiss_serves(intdet._reach(lap.first)) else "multi-modular")
    assert det_int(lap) == dense_bareiss_det(lap.array().tolist()) == multimodular_det(lap)


def test_empty_and_singular_laplacians():
    # the minor of a one-vertex graph is empty, with determinant 1; a
    # vertex with no edge gives a zero row, so determinant 0
    empty = intdet.ReducedLaplacian([], [], [])
    isolated = intdet.ReducedLaplacian([0, 2, 1], [(1, 2)], [0, 1, 1])
    for lap, det in ((empty, 1), (isolated, 0)):
        assert det_int(lap) == multimodular_det(lap) == det
    assert spanning_tree_count(Multigraph.from_edge_list(1, [(0, 0)])) == 1


# -- det_mod: symmetric dominant matrices eliminated without swaps ----------------

def _det_mod_reference(m, qs):
    """What det_mod answers for the rows m, by plain row reduction over
    Python ints without swaps: det m modulo each q, or None when a pivot
    vanishes modulo some q before the last step."""
    images = []
    for q in qs:
        a = [[x % q for x in row] for row in m]
        n, det = len(a), 1
        for k in range(n):
            det = det * a[k][k] % q
            if k == n - 1:
                break
            if a[k][k] == 0:
                return None
            inv = pow(a[k][k], -1, q)
            for i in range(k + 1, n):
                f = a[i][k] * inv % q
                if f:
                    a[i] = [(x - f * y) % q for x, y in zip(a[i], a[k])]
        images.append(det)
    return images


def _profile(m):
    """The first nonzero column of each row of a list of rows (the
    diagonal's when there is none before it)."""
    return [next((j for j, x in enumerate(row[:i]) if x), i) for i, row in enumerate(m)]


def _dense_storage(m):
    """Does det_mod store m's images dense (2w + 1 >= n), not as a band?"""
    return 2 * intdet._width(_profile(m)) + 1 >= len(m)


def _det_mod(m, qs):
    """det_mod of a symmetric matrix given by its rows, with its profile."""
    return det_mod(np.array(m, dtype=np.int64), qs, _profile(m))


def _symmetric(m):
    """The upper triangle of m mirrored below a zero diagonal."""
    return [[m[min(i, j)][max(i, j)] if i != j else 0 for j in range(len(m))] for i in range(len(m))]


def _band(rng, n, lower, upper, cyclic, bound, zeros=0.0):
    """Random entries on the band lower below to upper above the diagonal,
    wrapping around the corners when cyclic; zeros elsewhere."""
    def inside(i, j):
        if cyclic:
            return (j - i) % n <= upper or (i - j) % n <= lower
        return -lower <= j - i <= upper
    return [[rng.randint(-bound, bound) if inside(i, j) and rng.random() >= zeros else 0
             for j in range(n)] for i in range(n)]


def _symmetric_band(rng, n, w, bound, zeros=0.0, cyclic=False):
    """_band's upper half of width w, with the corner that the lower band
    wraps into when cyclic, mirrored below a zero diagonal."""
    return _symmetric(_band(rng, n, w if cyclic else 0, w, cyclic, bound, zeros))


def _dominant(m, q):
    """m with each diagonal entry raised by a multiple of q until the matrix
    is diagonally dominant: the same image modulo q."""
    m = [row[:] for row in m]
    for i, row in enumerate(m):
        others = sum(map(abs, row)) - abs(row[i])
        row[i] += max(0, -(-(others - row[i]) // q)) * q
    return m


def _gram_image(n, q, up):
    """M = U^T U mod q, diagonally dominant, for U unit upper triangular with
    h = (q - 1) / 2 wherever up(k, j) (j > k) holds.  Eliminating M mod q
    without swaps gives pivots 1, and pivot rows and multipliers that are
    U's rows, all at h: each update subtracts h**2, the largest growth
    balanced residues allow, and det M = 1 mod q."""
    h = (q - 1) // 2
    upper = [[k] + [j for j in range(k + 1, n) if up(k, j)] for k in range(n)]
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        for i in upper[k]:
            for j in upper[k]:
                m[i][j] += (h if i > k else 1) * (h if j > k else 1)
    return _dominant([[(x + h) % q - h for x in row] for row in m], q)


def test_cyclic_band_with_corners_at_orders_past_several_lazy_boundaries():
    # a symmetric cyclic band: its corners give a profile of half-width
    # n - 1, so its images are stored dense
    rng = random.Random(37)
    qs = primes(3)
    for n in (64, 97, 131, 200):
        m = _dominant(_symmetric_band(rng, n, 3, 2**29, cyclic=True), 1)
        assert _dense_storage(m)
        assert _det_mod(m, qs) == _det_mod_reference(m, qs) == [dense_bareiss_det(m) % q for q in qs]
    # the elimination of a cyclic band fills its last rows and columns:
    # with every multiplier and pivot-row entry at h, the boxes reach the
    # corner at every step and the fill grows by h**2 per step
    for n in (64, 200):
        for q in qs[:2]:
            w = 3
            m = _gram_image(n, q, lambda k, j: j - k <= w or j >= n - w)
            got = _det_mod(m, qs)
            assert got == _det_mod_reference(m, qs)
            assert got[qs.index(q)] == 1


def test_lazy_reduction_covers_every_box_since_the_last():
    # an arrow whose last row and column get h**2 at every step except
    # step LAZY - 1: the reduction every LAZY steps must cover the arrow,
    # or it would be left 2 * LAZY - 1 updates deep, past int64
    n, hole = 2 * intdet.LAZY + 4, intdet.LAZY - 1
    for q in primes(2):
        m = _gram_image(n, q, lambda k, j: j == k + 1 or (j == n - 1 and k != hole))
        assert _dense_storage(m)
        assert _det_mod(m, [q]) == [1]


def test_large_boxes_update_in_slices_of_rows(monkeypatch):
    rng = random.Random(43)
    qs = primes(3)
    for entries in (1, 50, 500):
        monkeypatch.setattr(intdet, "UPDATE_ENTRIES", entries)
        m = _dominant(_symmetric(_random_matrix(rng, 40, -(2**29), 2**29)), 1)
        assert _det_mod(m, qs) == _det_mod_reference(m, qs) == [dense_bareiss_det(m) % q for q in qs]


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_mod_on_banded_and_cyclic_band_matrices(data):
    # a band's upper half, mirrored and made dominant; with entries 1 and
    # zeros a row may vanish, and det_mod answer None
    n = data.draw(st.integers(2, 100), label="order")
    lower = data.draw(st.integers(0, 6), label="lower band")
    upper = data.draw(st.integers(0, 6), label="upper band")
    cyclic = data.draw(st.booleans(), label="cyclic")
    bound = data.draw(st.sampled_from([1, 9, 2**29, 2**40]), label="entry bound")
    zeros = data.draw(st.sampled_from([0.0, 0.3]), label="zero fraction")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    m = _dominant(_symmetric(_band(rng, n, lower, upper, cyclic, bound, zeros)), 1)
    qs = primes(3)
    expected = _det_mod_reference(m, qs)
    event("a pivot vanishes" if expected is None else "images")
    assert _det_mod(m, qs) == expected


def test_int64_code_refuses_large_moduli():
    for bad in ((1 << 30) + 3, 1 << 30):
        with pytest.raises(ValueError):
            det_mod(np.eye(2, dtype=np.int64), [1073741789, bad], [0, 1])


def test_det_mod_images_of_int64_extremes():
    # int64 entries at the ends of the int64 range, reduced by residues
    rng = random.Random(23)
    qs = [1073741789, 1073741783]
    m = _symmetric(_random_matrix(rng, 12))
    for i in range(12):
        m[i][i] = rng.randint(1, 9)
    m[0][0] = 2**63 - 1
    m[3][5] = m[5][3] = -(2**63)
    m[7][2] = m[2][7] = 2**63 - 2**28
    expected = [dense_bareiss_det(m) % q for q in qs]
    assert _det_mod(m, qs) == _det_mod_reference(m, qs) == expected


def _record_bareiss_det(monkeypatch):
    """The order of every bareiss_det call, multimodular_det's fallbacks
    among them."""
    calls, real = [], intdet.bareiss_det
    monkeypatch.setattr(intdet, "bareiss_det", lambda rows, reach: calls.append(len(rows)) or real(rows, reach))
    return calls


def _leading_minors_vanish(rng, n, w, qs):
    """A symmetric dominant band of order n and half-width w whose leading
    entry vanishes mod qs[1] and whose leading 2 x 2 minor vanishes mod
    qs[2]: both images lose their pivot before the last step."""
    m = _dominant(_symmetric_band(rng, n, w, 5), 1)
    m[0][0] = qs[1]
    m[1][1] = m[0][1] ** 2 * pow(m[0][0], -1, qs[2]) % qs[2]
    m = _dominant(m, qs[2])
    assert (m[0][0] * m[1][1] - m[0][1] ** 2) % qs[2] == 0 and m[0][0] % qs[2]
    return m


def _last_pivot_vanishes(rng, n, w, q):
    """A symmetric dominant band of order n and half-width w whose
    determinant, and no leading minor of lower order, vanishes mod q."""
    m = _dominant(_symmetric_band(rng, n, w, 3), 1)
    # det is linear in the last diagonal entry: det = x * D + C, with D the
    # leading minor of order n - 1; pick x = -C / D mod q
    lead = dense_bareiss_det([row[:-1] for row in m[:-1]])
    m[-1][-1] = 0
    rest = dense_bareiss_det(m)
    m[-1][-1] = -rest * pow(lead, -1, q) % q
    return _dominant(m, q)


def _upper_band_gram(n, w, q):
    """_gram_image with h on the w diagonals above U's own: with w > LAZY,
    entries take LAZY updates of h**2 between reductions."""
    return _gram_image(n, q, lambda k, j: j - k <= w)


def _check_leading_minors_vanish(seed, w, dense):
    # det_mod answers None for the whole stack; recomputed alone, the
    # images modulo qs[1] and qs[2] answer None too, and the others their
    # residues
    qs = primes(4)
    m = _leading_minors_vanish(random.Random(seed), 30, w, qs)
    assert _dense_storage(m) == dense
    assert _det_mod(m, qs) is None
    det = dense_bareiss_det(m)
    assert [_det_mod(m, [q]) for q in qs] == [[det % qs[0]], None, None, [det % qs[3]]]
    others = [qs[0], qs[3]]
    assert _det_mod(m, others) == [det % q for q in others]


def test_band_images_whose_leading_minors_vanish_are_recomputed_alone():
    _check_leading_minors_vanish(53, 3, False)


def test_dense_images_whose_leading_minors_vanish_are_recomputed_alone():
    _check_leading_minors_vanish(54, 20, True)


def test_a_vanishing_modular_pivot_sends_multimodular_det_to_bareiss(monkeypatch):
    # the leading entry is the first prime that primes_for_bound draws, so
    # the first stack's leading pivot vanishes and envelope Bareiss answers
    q = primes(1)[0]
    lap = intdet.ReducedLaplacian([q, 3, 3, 2], [(0, 1), (0, 2), (1, 2), (2, 3)], [0, 0, 0, 2])
    assert primes_for_bound(math.prod(lap.diagonal))[0] == q
    dense = lap.array().tolist()
    assert lap.first == _profile(dense)
    calls = _record_bareiss_det(monkeypatch)
    assert multimodular_det(lap) == dense_bareiss_det(dense) == sympy_det(dense) > 0
    assert calls == [4]


def test_band_image_whose_last_pivot_vanishes_needs_no_fallback(monkeypatch):
    qs = primes(3)
    m = _last_pivot_vanishes(random.Random(59), 40, 4, qs[0])
    assert not _dense_storage(m)
    calls = _record_bareiss_det(monkeypatch)
    got = _det_mod(m, qs)
    assert got == _det_mod_reference(m, qs) and got[0] == 0 and all(got[1:])
    assert calls == []


def test_dense_image_whose_last_pivot_vanishes_needs_no_fallback(monkeypatch):
    qs = primes(3)
    m = _last_pivot_vanishes(random.Random(60), 40, 25, qs[0])
    assert _dense_storage(m)
    calls = _record_bareiss_det(monkeypatch)
    got = _det_mod(m, qs)
    assert got == _det_mod_reference(m, qs) and got[0] == 0 and all(got[1:])
    assert calls == []


def test_band_worst_case_magnitudes_between_lazy_reductions():
    w = intdet.LAZY + 2
    n = 2 * w + 10
    for q in primes(2):
        m = _upper_band_gram(n, w, q)
        assert intdet._width(_profile(m)) == w and not _dense_storage(m)
        assert _det_mod(m, [q]) == [1]


def test_dense_worst_case_magnitudes_between_lazy_reductions():
    w = intdet.LAZY + 2
    n = w + 10
    for q in primes(2):
        m = _upper_band_gram(n, w, q)
        assert intdet._width(_profile(m)) == w and _dense_storage(m)
        assert _det_mod(m, [q]) == [1]


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_det_mod_on_symmetric_dominant_bands(data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    n = data.draw(st.integers(2, 90), label="order")
    w = data.draw(st.integers(0, n - 1), label="half-bandwidth")
    bound = data.draw(st.sampled_from([1, 9, 2**20]), label="entry bound")
    zeros = data.draw(st.sampled_from([0.0, 0.5]), label="zero fraction")
    qs = primes(3)
    # diagonals at the dominance limit, or past it by a multiple of a prime
    # of the list, so that leading minors vanish modulo it now and then
    m = _dominant(_symmetric_band(rng, n, w, bound, zeros), 1)
    for i in range(n):
        m[i][i] += rng.choice((0, 0, 1, qs[rng.randrange(3)]))
    event("dense storage" if _dense_storage(m) else "band storage")
    expected = _det_mod_reference(m, qs)
    event("a pivot vanishes" if expected is None else "images")
    assert _det_mod(m, qs) == expected
    assert _det_mod(m, []) == []


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
    # K_8 x C_21: its breadth-first ordered reduced Laplacian has order 167,
    # half-bandwidth 16 and envelope work 235 per row, past BAREISS_WORK,
    # so det_mod takes it in band storage; its 17 primes share one stack,
    # where dense images would go four to a stack
    graph = _clique_ring(8, 21)
    calls = _record_det_mod(monkeypatch)
    assert spanning_tree_count(graph) == _clique_ring_trees(8, 21)
    ((matrix, used, first),) = calls
    assert matrix.shape == (167, 167) and intdet._width(first) == 16
    assert used == primes_for_bound(math.prod(np.diagonal(matrix).tolist()))
    assert intdet.STACK_ENTRIES // (167 * 167) < len(used)


# -- envelope Bareiss: reduced Laplacians without row swaps -----------------------

def _check_envelope(graph):
    """The envelope Bareiss value of graph's reduced Laplacian against the
    pivoting Bareiss value, sympy, det_int and multimodular_det, and its
    profile against the dense minor's."""
    lap = reduced_laplacian(graph)
    dense = lap.array().tolist()
    assert lap.first == _profile(dense)
    det = _envelope_det(lap)
    assert det == dense_bareiss_det(dense) == sympy_det(dense) == det_int(lap) == multimodular_det(lap) > 0
    return det


def test_envelope_grows_by_many_columns_in_one_step():
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
    assert dense_bareiss_det([row[:20] for row in lap.array().tolist()[:20]]) == 2**20
    assert _check_envelope(graph) == 2**20 * 13**11



@settings(deadline=None, max_examples=50)
@given(st.data())
def test_envelope_bareiss_on_random_multigraphs(data):
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    g = data.draw(st.integers(1, 56), label="order")
    extra = data.draw(st.sampled_from([0, 1, 2, 6]), label="extra edges per vertex")
    pendant = data.draw(st.integers(0, 30), label="pendant path")
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
    # det_int's route: envelope Bareiss, else det_mod's band or dense storage
    lap = reduced_laplacian(graph)
    if intdet._bareiss_serves(intdet._reach(lap.first)):
        event("Bareiss")
    else:
        event("band storage" if 2 * intdet._width(lap.first) + 1 < len(lap.first) else "dense storage")


# -- the shared prime pool and CRT ------------------------------------------------

def test_prime_pool_is_the_previous_prime_chain():
    import sympy

    chain, q = [], 1 << 30
    for _ in range(40):
        q = sympy.prevprime(q)
        chain.append(q)
    assert primes(40) == chain


def test_prime_pool_per_modulus():
    from elltowers.factorint import is_certified_prime

    for m in (4, 9, 625, 2401):
        qs = primes(25, m)
        assert qs == sorted(qs, reverse=True) and len(set(qs)) == 25
        assert all(q % m == 1 and q < 1 << 30 and is_certified_prime(q) for q in qs)
        # nothing skipped between the ceiling and the last prime handed out
        assert sum(is_certified_prime(c) for c in range(qs[-1], 1 << 30, m)) == 25


def test_crt_symmetric_representative():
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
