import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import elltowers.intdet as intdet
from elltowers import Multigraph, spanning_tree_count
from elltowers.analysis import Tower, default_mt_check_level
from elltowers.graphs import derived_graph, reduced_laplacian
from elltowers.intdet import bareiss_det, crt, det_int, det_mod, multimodular_det, primes, primes_for_bound
from elltowers.towerspec import build_assignment, parse_tower_spec
from util import (dense_bareiss_det, dense_bareiss_order, dense_laplacian, envelope, spanning_trees_bruteforce,
                  sympy_det)

ROOT = Path(__file__).resolve().parent.parent


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
    return bareiss_det(lap, intdet._reach(lap.first))


# -- the dense pivoting Bareiss oracle (util) ------------------------------------

def test_known_small_determinants():
    assert dense_bareiss_det([]) == 1
    assert dense_bareiss_det([[7]]) == 7
    assert dense_bareiss_det([[1, 2], [3, 4]]) == -2
    assert dense_bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert dense_bareiss_det([[1, 2], [2, 4]]) == 0


def test_row_swap_sign():
    assert dense_bareiss_det([[0, 1], [1, 0]]) == -1
    assert dense_bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_dense_bareiss_matches_sympy_with_row_swaps():
    # sparse rows put zeros on the pivots, so most eliminations swap; a
    # repeated row or column, or a row of zeros, makes a singular matrix
    rng = random.Random(27)
    singular = swapped = 0
    for _ in range(120):
        n = rng.randint(1, 9)
        m = [[rng.choice((0, 0, 0, rng.randint(-2**40, 2**40))) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            if rng.random() < 0.5:
                m[i] = list(m[j])
            else:
                for row in m:
                    row[i] = row[j]
        det = dense_bareiss_det(m)
        assert det == sympy_det(m)
        singular += det == 0
        swapped += m[0][0] == 0
    assert singular >= 20 and swapped >= 20


# -- det_int and its two engines on reduced Laplacians ---------------------------

def test_engines_agree_on_random_matrices():
    # reduced Laplacians of random multigraphs, the one input of both engines
    rng = random.Random(7)
    for g in (2, 3, 5, 8, 12, 30):
        for _ in range(10):
            lap = reduced_laplacian(_random_multigraph(rng, g, rng.randint(0, 3 * g)))
            dense = dense_laplacian(lap)
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
        monkeypatch.setattr(intdet, "bareiss_det", lambda lap, reach: calls.append("bareiss") or 0)
        monkeypatch.setattr(intdet, "multimodular_det", lambda lap: calls.append("mm") or 0)
        det_int(lap)
        monkeypatch.undo()
        return calls

    # by envelope work weighted by the slot width: band graphs whose
    # weighted work per row is just within BAREISS_WORK and just past it
    n = 200

    def weighted_work(b):
        lap = reduced_laplacian(_band_graph(n + 1, b))
        return (math.prod(lap.diagonal).bit_length() + 2) * _band_work(n, b)

    b = max(b for b in range(1, 40) if weighted_work(b) <= intdet.BAREISS_WORK * n)
    assert weighted_work(b + 1) > intdet.BAREISS_WORK * n
    for width, engine in ((1, "bareiss"), (b, "bareiss"), (b + 1, "mm"), (2 * b, "mm")):
        lap = reduced_laplacian(_band_graph(n + 1, width))
        assert lap.first == [max(0, j - width) for j in range(n)]
        assert engines(lap) == [engine]
        assert det_int(lap) == _envelope_det(lap) == multimodular_det(lap)
    # a complete graph's minor has a dense profile, whose work per row is
    # (n - 1)(2n - 1) / 6, and diagonal n
    dense = dense_bareiss_order()
    for g in (dense + 1, dense + 2):
        lap = reduced_laplacian(Multigraph.from_edge_list(g, [(i, j) for i in range(g) for j in range(i)]))
        assert engines(lap) == ["bareiss" if g == dense + 1 else "mm"]
        assert det_int(lap) == g ** (g - 2)


# the crossover as tabled in a warm process, where the modular engine's
# first-call cost was already paid
WARM_BAREISS_WORK = 25_000


def _weighted_work(lap):
    """The envelope work of a minor times its slot width, summed over its
    rows: det_int compares it with BAREISS_WORK times the order."""
    reach = intdet._reach(lap.first)
    return (math.prod(lap.diagonal).bit_length() + 2) * sum((r - k - 1) ** 2 for k, r in enumerate(reach))


def test_padic_deep_level_2_minor_takes_bareiss(monkeypatch):
    # an ell = 7 bouquet of padic_deep's [sqrt, padic, 1] shape: its
    # level-2 cover has an order-48 minor of weighted work 47,297 per row,
    # the most of any padic_deep minor (seeds 1-5), past the warm
    # crossover but within the cold one, so the modular engine, whose
    # first call a fresh process would pay, is never called
    doc = {"ell": 7, "precision": 3, "vertices": ["v1"], "edges": [
        {"tail": "v1", "head": "v1", "voltage": {"kind": "sqrt", "radicand": 974, "branch": 1}},
        {"tail": "v1", "head": "v1", "voltage": {"kind": "padic", "digits": [1, 2, 3]}},
        {"tail": "v1", "head": "v1", "voltage": "1"}]}
    va = build_assignment(parse_tower_spec(doc))
    lap = reduced_laplacian(derived_graph(va, 2))
    assert len(lap.diagonal) == 48
    assert WARM_BAREISS_WORK * 48 < _weighted_work(lap) <= intdet.BAREISS_WORK * 48
    det = multimodular_det(lap)

    def refuse(lap):
        raise AssertionError("the modular engine was called")

    monkeypatch.setattr(intdet, "multimodular_det", refuse)
    tower = Tower(va)  # matrix-tree checked to level 2 at ell = 7
    assert tower.mt_check_level == 2
    assert [tower.kappa(n) for n in range(4)][2] == det  # the matrix-tree theorem


def test_workload_minors_between_the_crossovers_agree(monkeypatch):
    # every distinct matrix-tree minor of the counting workloads (seeds
    # 1-3, rounds 0-2) that the warm crossover sent to the modular engine
    # and BAREISS_WORK keeps in Bareiss: both engines and the dense
    # pivoting oracle agree on it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    minors = {}
    for workload in ("padic_deep", "integral_deep", "cover_check"):
        for seed in (1, 2, 3):
            for ops in workloads.run_ops(workload, seed, 3):
                for op in ops:
                    va = build_assignment(parse_tower_spec(op.doc))
                    top = default_mt_check_level(va.ell) if op.mt_level is None else op.mt_level
                    for i in range(min(op.levels, top) + 1):
                        lap = reduced_laplacian(derived_graph(va, i))
                        minors[tuple(map(tuple, lap))] = lap
    between = [lap for lap in minors.values()
               if WARM_BAREISS_WORK * len(lap.diagonal) < _weighted_work(lap)
               <= intdet.BAREISS_WORK * len(lap.diagonal)]
    assert len(between) >= 30
    for lap in between:
        det = bareiss_det(lap, intdet._reach(lap.first))
        assert det == multimodular_det(lap) == dense_bareiss_det(dense_laplacian(lap)) > 0


def test_det_mod_matches_exact():
    rng = random.Random(3)
    p = 536870909  # the largest prime below 2**29
    for g in (2, 3, 5, 8, 40):
        lap = reduced_laplacian(_random_multigraph(rng, g, 2 * g))
        dense = dense_laplacian(lap)
        assert _det_mod(dense, [p]) == [dense_bareiss_det(dense) % p]
        assert _det_mod(dense, []) == []


def test_images_are_written_once_from_the_diagonal_and_edges(monkeypatch):
    # multimodular_det reads each minor's upper triangle straight off its
    # diagonal and edges, parallel ones adding up, into one int64 array of
    # (row, column, value) triples that every stack shares: narrow bands,
    # random multigraphs and the wheel, whose profile is dense
    rng = random.Random(11)
    calls = _record_det_mod(monkeypatch)
    laps = [reduced_laplacian(_random_multigraph(rng, g, 3 * g)) for g in (2, 9, 40, 70)]
    laps += [reduced_laplacian(_band_graph(g, b)) for g, b in ((60, 1), (90, 6), (120, 20))]
    laps.append(reduced_laplacian(_wheel(50)))
    for lap in laps:
        calls.clear()
        dense = dense_laplacian(lap)
        assert multimodular_det(lap) == dense_bareiss_det(dense)
        assert calls and all(entries is calls[0][0] for entries, _, _ in calls)
        entries = calls[0][0]
        assert entries.dtype == np.int64 and entries.shape[0] == 3
        assert sorted(map(tuple, entries.T.tolist())) == sorted(_upper(dense))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_diagonal_bound_dominates_laplacian_minors(data):
    # the bound multimodular_det recombines against: |det| <= the product
    # of the diagonal, since a reduced Laplacian is positive semidefinite
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    g = data.draw(st.integers(2, 24), label="order")
    lap = reduced_laplacian(_random_multigraph(rng, g, data.draw(st.integers(0, 3 * g), label="extra edges")))
    dense = dense_laplacian(lap)
    assert [row[i] for i, row in enumerate(dense)] == lap.diagonal
    det = dense_bareiss_det(dense)
    assert 0 < det <= math.prod(lap.diagonal)  # a connected graph has a spanning tree
    assert multimodular_det(lap) == det


def test_multimodular_large_entries():
    # many parallel edges to the dropped vertex put diagonal entries up to
    # 10**12 on a random graph, and then some at the top of the int64
    # range: a wrong bound or an overflow would corrupt the CRT
    rng = random.Random(5)
    lap = reduced_laplacian(_random_multigraph(rng, 30, 60))
    lap = lap._replace(diagonal=[d + rng.randint(0, 10**12) for d in lap.diagonal])
    assert multimodular_det(lap) == _envelope_det(lap) == dense_bareiss_det(dense_laplacian(lap))
    lap = lap._replace(diagonal=[2**63 - 1 if i % 7 == 0 else d for i, d in enumerate(lap.diagonal)])
    assert multimodular_det(lap) == _envelope_det(lap) == dense_bareiss_det(dense_laplacian(lap))


def _record_det_mod(monkeypatch):
    """The entries, primes and profile of every det_mod call."""
    calls, real = [], intdet.det_mod
    monkeypatch.setattr(intdet, "det_mod",
                        lambda entries, first, qs: calls.append((entries, list(qs), first)) or real(entries, first, qs))
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
    hub: the rim's cycle, whose closing edge gives a dense profile, of
    half-width n - 1."""
    spokes = [(0, i) for i in range(1, n + 1)]
    return Multigraph.from_edge_list(n + 1, spokes + [(i, i % n + 1) for i in range(1, n + 1)])


def _wheel_trees(n):
    """W_n has L_{2n} - 2 spanning trees (L the Lucas numbers)."""
    a, b = 2, 1
    for _ in range(2 * n):
        a, b = b, a + b
    return a - 2


def _check_window(first, m):
    """Every block of det_mod on the profile first holds its rows and
    columns k0 .. r - 1 in the window, and the entries that enter the
    window at a block (their column in entered .. r - 1, past every box
    so far) have their rows from k0 on, inside it; the block's multipliers
    and the trailing box's product together have no more entries than the
    window.  With m images the window keeps m side**2 entries, within
    WINDOW_ENTRIES whenever one image fits.  Returns the side."""
    n, reach = len(first), intdet._reach(first)
    side = intdet._window_side(reach)
    entered = 0
    for k0, k1, r in intdet._blocks(reach):
        assert k1 - k0 <= intdet.BLOCK <= 31 and r - k0 <= side and (k1 - k0 == intdet.BLOCK or k1 == n)
        assert all(k0 <= first[j] for j in range(entered, r))
        assert (k1 - k0) * (r - k0) + (r - k1) ** 2 <= side * side
        entered = r
    assert entered == n
    assert m * side * side <= intdet.WINDOW_ENTRIES or m == 1
    return side


def test_multimodular_stacks_stay_below_the_entry_limit(monkeypatch):
    # a window holds side**2 entries per image: the wheels' dense profiles
    # give side n, bands of half-width 40 side 56, and the primes are
    # split into stacks only as far as WINDOW_ENTRIES requires
    calls = _record_det_mod(monkeypatch)
    cases = [(reduced_laplacian(_wheel(n)), _wheel_trees(n)) for n in (40, 150, 182)]
    for g in (181, 201):
        band = reduced_laplacian(_band_graph(g, 40))
        cases.append((band, _envelope_det(band)))
    counts = []
    for lap, det in cases:
        calls.clear()
        assert multimodular_det(lap) == det
        stacks = [qs for _, qs, _ in calls]
        side = intdet._window_side(intdet._reach(lap.first))
        for qs in stacks:
            assert _check_window(lap.first, len(qs)) == side
        qs = primes_for_bound(math.prod(lap.diagonal))
        per_stack = max(1, intdet.WINDOW_ENTRIES // side**2)
        sizes = [len(s) for s in stacks]
        assert [q for s in stacks for q in s] == qs
        assert len(stacks) == -(-len(qs) // per_stack)
        assert max(sizes) <= per_stack and max(sizes) - min(sizes) <= 1
        counts.append((side, len(stacks)))
    # the wheels of orders 150 and 182 need several stacks; the band of
    # order 180 takes its 39 primes in one, the one of order 200 its 43 in
    # two, as a window of side 56 holds 41 images
    assert counts[0][1] == 1 and counts[1][1] > 1 and counts[2][1] > 1
    assert counts[3:] == [(intdet.BLOCK + 40, 1), (intdet.BLOCK + 40, 2)]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_det_mod_boxes_never_exceed_the_stack(data):
    # random profiles, from a diagonal to dense: each row j has the edge
    # (first[j], j) and the diagonal dominates; every block and every
    # entering entry lies in the window, whose entries the stacks keep
    # within WINDOW_ENTRIES
    n = data.draw(st.integers(1, 120), label="order")
    widest = data.draw(st.integers(0, n), label="widest row")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    first = [j - rng.randint(0, min(j, widest)) for j in range(n)]
    edges = [(f, j) for j, f in enumerate(first) if f < j]
    diagonal = [1] * n
    for i, j in edges:
        diagonal[i] += 1
        diagonal[j] += 1
    lap = intdet.ReducedLaplacian(diagonal, edges, first)
    calls = []
    real = intdet.det_mod
    intdet.det_mod = lambda entries, first, qs: calls.append(len(qs)) or real(entries, first, qs)
    try:
        assert multimodular_det(lap) == _envelope_det(lap)
    finally:
        intdet.det_mod = real
    event("one stack" if len(calls) == 1 else "several stacks")
    for m in calls:
        _check_window(first, m)


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
    event("Bareiss" if intdet._bareiss_serves(lap.diagonal, intdet._reach(lap.first)) else "multi-modular")
    assert det_int(lap) == dense_bareiss_det(dense_laplacian(lap)) == multimodular_det(lap)


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


def _width(m):
    """The half-bandwidth of a list of rows, max(i - first[i])."""
    return max((i - f for i, f in enumerate(_profile(m))), default=0)


def _upper(m):
    """The nonzero entries (i, j, m[i][j]) of the upper triangle of a
    list of rows, the diagonal's among them."""
    return [(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if j >= i and x]


def _det_mod(m, qs):
    """det_mod of a symmetric matrix given by its rows, with its profile."""
    return det_mod(np.array(_upper(m), dtype=np.int64).reshape(-1, 3).T, _profile(m), qs)


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


def test_cyclic_band_with_corners_at_orders_past_several_block_reductions():
    # a symmetric cyclic band: its corners give a profile of half-width
    # n - 1, so every block's rows reach the last column
    rng = random.Random(37)
    qs = primes(3)
    for n in (64, 97, 131, 200):
        m = _dominant(_symmetric_band(rng, n, 3, 2**29, cyclic=True), 1)
        assert _width(m) == n - 1
        assert _det_mod(m, qs) == _det_mod_reference(m, qs) == [dense_bareiss_det(m) % q for q in qs]
    # the elimination of a cyclic band fills its last rows and columns, so
    # every box reaches the corner: with the pivot rows at q - 1, each
    # block's product piles onto the entry (n - 2, n - 1)
    for n in (64, 200):
        for q in qs[:2]:
            m, det = _extreme_image(n, q, lambda k, j: j - k <= 3 or j >= n - 3, lambda k0, k1: (n - 2, n - 1))
            got = _det_mod(m, qs)
            assert got == _det_mod_reference(m, qs)
            assert got[qs.index(q)] == det


def _extreme_image(n, q, up, target):
    """A symmetric matrix, diagonally dominant, and its determinant mod q,
    built as L D L^T mod q so that det_mod's division-free elimination, on
    the blocks that intdet._blocks gives its profile, meets the largest
    int64 sums its bound allows.  The pivot p_k is q - 1 at the last step
    of each block and 1 at the others, and the pivot row u_k = p_k L[:, k]
    is q - 1 wherever up(k, j), j > k, but for two kinds of entry.  After
    a block k0 .. k1 - 1 of b steps, target(k0, k1) names an entry (i, j)
    of its box that every row of the block reaches; for the first block
    that names it, u_(k1 - 1) is 1 at column i, and u_i[j] is chosen so
    that the entry is q - 1 at the block's start.  Then the box scale R_b
    is q - 1, the weight of each u_k at row i, minus the product of the
    block's pivots after step k times u_k[i], is q - 1, and the entry sums
    b + 1 products (q - 1)**2: the most, once in each block whose entry
    is new, as an overflow there could cancel one in a later block."""
    first = [min([k for k in range(j) if up(k, j)] + [j]) for j in range(n)]
    blocks = intdet._blocks(intdet._reach(first))
    start = {k: k0 for k0, k1, _ in blocks for k in range(k0, k1)}
    ones, targets = {}, {}  # each entry is named for the first block only
    for k0, k1, r in blocks:
        if r > k1 and target(k0, k1) not in targets:
            targets[target(k0, k1)] = k0
            ones[k1 - 1] = target(k0, k1)[0]
    low = [[0] * n for _ in range(n)]  # L, unit lower triangular
    d, sigma, det = [], [1], 1
    for k in range(n):
        p = q - 1 if k + 1 == n or start.get(k + 1) == k + 1 else 1
        d.append(p * pow(sigma[k], -1, q) % q)  # p_k = sigma_k d_k
        det = det * d[k] % q
        sigma.append(sigma[k] * p % q)
        low[k][k] = 1
        for j in range(k + 1, n):
            if not up(k, j):
                continue
            u = q - 1
            if ones.get(k) == j:
                u = 1
            elif (k, j) in targets:
                # sigma_k0 S_k0[k, j] = -1, S_k0[k, j] the sum over h = k0 .. k of
                # L[k, h] d_h L[j, h], whose last term is u_k[j] / sigma_k
                k0 = targets[(k, j)]
                rest = sum(low[k][h] * d[h] * low[j][h] for h in range(k0, k))
                u = sigma[k] * (-pow(sigma[k0], -1, q) - rest) % q
            low[j][k] = u * p % q  # u_k[j] / p_k, as p_k is 1 or -1
    m = [[sum(low[i][k] * d[k] * low[j][k] for k in range(min(i, j) + 1)) % q for j in range(n)] for i in range(n)]
    return _dominant(m, q), det


def _check_extreme(monkeypatch, shape):
    # at BLOCK and at 31, the most that the int64 bound allows: 32 products
    # (q - 1)**2 < 2**58 stay below 2**63, and 33 pass it at these primes;
    # shape(b) is the order, the half-width, up and target
    for block in (intdet.BLOCK, 31):
        monkeypatch.setattr(intdet, "BLOCK", block)
        n, width, up, target = shape(block)
        for q in primes(2):
            m, det = _extreme_image(n, q, up, target)
            assert _width(m) == width
            assert _det_mod(m, [q]) == _det_mod_reference(m, [q]) == [det]


def test_block_reduction_covers_every_step_of_its_block(monkeypatch):
    # an arrow whose last two columns every pivot row reaches: each block's
    # one product piles its products onto the box's entry (n - 2, n - 1),
    # three blocks and a short one
    def arrow(b):
        n = 3 * b + 4
        return n, n - 1, lambda k, j: j == k + 1 or j >= n - 2, lambda k0, k1: (n - 2, n - 1)
    _check_extreme(monkeypatch, arrow)


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
    for bad in ((1 << 29) + 11, 1 << 29, 1073741789):
        with pytest.raises(ValueError):
            _det_mod([[1, 0], [0, 1]], [536870909, bad])


def test_det_mod_images_of_int64_extremes():
    # int64 entries at the ends of the int64 range, reduced modulo the
    # primes by det_mod itself: a random matrix, then a band of
    # half-width 2
    rng = random.Random(23)
    qs = [536870909, 536870879]  # the two largest primes below 2**29
    m = _symmetric(_random_matrix(rng, 12))
    for i in range(12):
        m[i][i] = rng.randint(1, 9)
    m[0][0] = 2**63 - 1
    m[3][5] = m[5][3] = -(2**63)
    m[7][2] = m[2][7] = 2**63 - 2**28
    band = _symmetric_band(rng, 12, 2, 9)
    for i in range(12):
        band[i][i] = rng.randint(1, 9)
    band[0][0] = 2**63 - 1
    band[3][5] = band[5][3] = -(2**63)
    band[9][8] = band[8][9] = 2**63 - 2**28
    assert _width(m) > 2 and _width(band) == 2
    for m in (m, band):
        expected = [dense_bareiss_det(m) % q for q in qs]
        assert _det_mod(m, qs) == _det_mod_reference(m, qs) == expected


def _record_bareiss_det(monkeypatch):
    """The order of every bareiss_det call, multimodular_det's fallbacks
    among them."""
    calls, real = [], intdet.bareiss_det
    monkeypatch.setattr(intdet, "bareiss_det", lambda lap, reach: calls.append(len(lap.diagonal)) or real(lap, reach))
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


def _check_leading_minors_vanish(seed, w):
    # det_mod answers None for the whole stack; recomputed alone, the
    # images modulo qs[1] and qs[2] answer None too, and the others their
    # residues
    qs = primes(4)
    m = _leading_minors_vanish(random.Random(seed), 30, w, qs)
    assert _width(m) == w
    assert _det_mod(m, qs) is None
    det = dense_bareiss_det(m)
    assert [_det_mod(m, [q]) for q in qs] == [[det % qs[0]], None, None, [det % qs[3]]]
    others = [qs[0], qs[3]]
    assert _det_mod(m, others) == [det % q for q in others]


def test_band_images_whose_leading_minors_vanish_are_recomputed_alone():
    _check_leading_minors_vanish(53, 3)


def test_dense_images_whose_leading_minors_vanish_are_recomputed_alone():
    _check_leading_minors_vanish(54, 20)


def test_a_vanishing_modular_pivot_sends_multimodular_det_to_bareiss(monkeypatch):
    # the leading entry is the first prime that primes_for_bound draws, so
    # the first stack's leading pivot vanishes and envelope Bareiss answers
    q = primes(1)[0]
    lap = intdet.ReducedLaplacian([q, 3, 3, 2], [(0, 1), (0, 2), (1, 2), (2, 3)], [0, 0, 0, 2])
    assert primes_for_bound(math.prod(lap.diagonal))[0] == q
    dense = dense_laplacian(lap)
    assert lap.first == _profile(dense)
    calls = _record_bareiss_det(monkeypatch)
    assert multimodular_det(lap) == dense_bareiss_det(dense) == sympy_det(dense) > 0
    assert calls == [4]


def test_band_image_whose_last_pivot_vanishes_needs_no_fallback(monkeypatch):
    qs = primes(3)
    m = _last_pivot_vanishes(random.Random(59), 40, 4, qs[0])
    assert _width(m) == 4
    calls = _record_bareiss_det(monkeypatch)
    got = _det_mod(m, qs)
    assert got == _det_mod_reference(m, qs) and got[0] == 0 and all(got[1:])
    assert calls == []


def test_dense_image_whose_last_pivot_vanishes_needs_no_fallback(monkeypatch):
    qs = primes(3)
    m = _last_pivot_vanishes(random.Random(60), 40, 25, qs[0])
    assert _width(m) == 25
    calls = _record_bareiss_det(monkeypatch)
    got = _det_mod(m, qs)
    assert got == _det_mod_reference(m, qs) and got[0] == 0 and all(got[1:])
    assert calls == []


def _band_shape(order):
    """A band of half-width b + 2 and order order(b): every row of a block
    reaches the box's first row and the two columns past it."""
    def shape(b):
        return order(b), b + 2, lambda k, j: j - k <= b + 2, lambda k0, k1: (k1, k1 + 1)
    return shape


def test_band_worst_case_magnitudes_between_block_reductions(monkeypatch):
    _check_extreme(monkeypatch, _band_shape(lambda b: 2 * b + 14))


def test_dense_worst_case_magnitudes_between_block_reductions(monkeypatch):
    # as wide as half its order and more
    _check_extreme(monkeypatch, _band_shape(lambda b: b + 12))


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
    event("narrow band" if 2 * _width(m) + 1 < n else "wide band")
    expected = _det_mod_reference(m, qs)
    event("a pivot vanishes" if expected is None else "images")
    assert _det_mod(m, qs) == expected
    assert _det_mod(m, []) == []


def test_det_mod_at_orders_around_the_block_boundaries():
    # orders one short of a block, a block, one past, and two blocks and
    # one step: the last block may be short, or hold the last step alone;
    # dense, banded and diagonal profiles, against the dense Bareiss value
    # and the plain row reduction
    rng = random.Random(61)
    qs = primes(3)
    b = intdet.BLOCK
    for n in (b - 1, b, b + 1, 2 * b + 1):
        for w in (0, 1, 3, n - 1):
            m = _dominant(_symmetric_band(rng, n, w, 2**20), 1)
            for i in range(n):
                m[i][i] += rng.randint(1, 9)
            expected = [dense_bareiss_det(m) % q for q in qs]
            assert _det_mod(m, qs) == _det_mod_reference(m, qs) == expected


def test_det_mod_takes_one_inverse_per_image(monkeypatch):
    # the elimination is division-free: no step inverts its pivot, and
    # each image takes one pow(x, -1, q), at the end; minors of many
    # blocks, a dense one, and one of order 1
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(intdet, "pow", counting_pow, raising=False)
    qs = primes(7)
    laps = [reduced_laplacian(_band_graph(101, 12)), reduced_laplacian(_wheel(60)), intdet.ReducedLaplacian([5], [], [0])]
    for lap in laps:
        calls.clear()
        det = dense_bareiss_det(dense_laplacian(lap))
        assert det_mod(intdet._upper_entries(lap), lap.first, qs) == [det % q for q in qs]
        inverses = [q for _, e, q in calls if e == -1]
        assert len(inverses) == len(set(inverses)) <= len(qs)


def test_multimodular_peak_memory_is_bounded_by_the_window():
    # a band of order 1,000 and half-width 2 with diagonal entries near
    # 10**6 takes 688 primes, in two stacks: its residues, 688 times its
    # 2,997 entries, would take 15.7 MB at once, but det_mod reduces each
    # block's entering entries as it writes them, so the peak stays within
    # the window and its temporaries, 2 WINDOW_ENTRIES int64 (module
    # docstring), and a third of that again for the entries and the rest
    import tracemalloc

    n, rng = 1000, random.Random(5)
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + 3, n))]
    lap = intdet.ReducedLaplacian([10**6 + rng.randrange(1000) for _ in range(n)], edges,
                                  [max(0, j - 2) for j in range(n)])
    qs = primes_for_bound(math.prod(lap.diagonal))  # the pool grows before the trace
    bound = 3 * 8 * intdet.WINDOW_ENTRIES
    assert len(qs) * (n + len(edges)) * 8 > 5 * bound
    tracemalloc.start()
    try:
        det = multimodular_det(lap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert det == _envelope_det(lap)
    assert peak <= bound


def _pivot_vanishes_at(lap, k, q):
    """lap with its diagonal entry k raised, by less than q, so that the
    leading minor of order k + 1 vanishes mod q: the minor stays
    diagonally dominant, so positive semidefinite."""
    dense = dense_laplacian(lap)
    lead = [row[: k + 1] for row in dense[: k + 1]]
    lead[k][k] = 0
    rest = dense_bareiss_det(lead)  # the minor is linear in entry k: x D + rest
    d = dense_bareiss_det([row[:k] for row in dense[:k]])
    x = -rest * pow(d, -1, q) % q
    diagonal = list(lap.diagonal)
    diagonal[k] += (x - diagonal[k]) % q
    return lap._replace(diagonal=diagonal)


def test_a_pivot_vanishing_mid_block_sends_multimodular_det_to_bareiss(monkeypatch):
    # a band of order 3 BLOCK: a pivot that vanishes modulo the first
    # prime mid-block, in the first block and in the second, ends det_mod
    # with None, and envelope Bareiss answers
    q = primes(1)[0]
    b = intdet.BLOCK
    band = reduced_laplacian(_band_graph(3 * b + 1, 5))
    for k in (b // 2, b + b // 2):
        lap = _pivot_vanishes_at(band, k, q)
        dense = dense_laplacian(lap)
        assert primes_for_bound(math.prod(lap.diagonal))[0] == q
        assert _det_mod(dense, [q]) is None and _det_mod_reference(dense, [q]) is None
        calls = _record_bareiss_det(monkeypatch)
        assert multimodular_det(lap) == dense_bareiss_det(dense) > 0
        assert calls == [3 * b]
        monkeypatch.undo()


def test_a_pivot_vanishing_at_the_last_step_is_an_image_0(monkeypatch):
    # the last step alone in its block (order 2 BLOCK + 1) and at the end
    # of a full block (order 2 BLOCK): the image is 0, with no fallback
    q = primes(1)[0]
    for n in (2 * intdet.BLOCK + 1, 2 * intdet.BLOCK):
        lap = _pivot_vanishes_at(reduced_laplacian(_band_graph(n + 1, 4)), n - 1, q)
        dense = dense_laplacian(lap)
        qs = primes_for_bound(math.prod(lap.diagonal))
        got = _det_mod(dense, qs)
        assert got == _det_mod_reference(dense, qs) and got[0] == 0 and all(got[1:])
        calls = _record_bareiss_det(monkeypatch)
        assert multimodular_det(lap) == dense_bareiss_det(dense) > 0
        assert calls == []
        monkeypatch.undo()


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
    # K_10 x C_15: its breadth-first ordered reduced Laplacian has order 149,
    # half-bandwidth 20 and envelope work 355 per row, past BAREISS_WORK;
    # its 18 primes share one window, of side at most BLOCK + 20 + 1,
    # where whole images would go five to a stack
    graph = _clique_ring(10, 15)
    calls = _record_det_mod(monkeypatch)
    assert spanning_tree_count(graph) == _clique_ring_trees(10, 15)
    ((_, used, first),) = calls
    assert len(first) == 149 and max(i - f for i, f in enumerate(first)) == 20
    assert used == primes_for_bound(math.prod(reduced_laplacian(graph).diagonal))
    assert _check_window(first, len(used)) <= intdet.BLOCK + 21
    assert intdet.WINDOW_ENTRIES // (149 * 149) < len(used)


# -- envelope Bareiss: reduced Laplacians without row swaps -----------------------

def _check_envelope(graph):
    """The envelope Bareiss value of graph's reduced Laplacian against the
    pivoting Bareiss value, sympy, det_int and multimodular_det, and its
    profile against the dense minor's."""
    lap = reduced_laplacian(graph)
    dense = dense_laplacian(lap)
    assert lap.first == _profile(dense)
    det = _envelope_det(lap)
    assert det == dense_bareiss_det(dense) == sympy_det(dense) == det_int(lap) == multimodular_det(lap) > 0
    return det


def test_envelope_grows_by_many_columns_in_one_step():
    # a clique on 0 .. 12 and a path 12 - 13 - ... - 32 of doubled edges:
    # searched from 0, the path is visited last, so it opens the minor, and
    # the other 11 rows of the clique all enter the box at the step of
    # vertex 12, after 20 pivots whose leading minor is 2**20, which those
    # rows are scaled by
    clique = [(u, w) for u in range(13) for w in range(u + 1, 13)]
    path = [(v, v + 1) for v in range(12, 32) for _ in range(2)]
    graph = Multigraph.from_edge_list(33, clique + path)
    lap = reduced_laplacian(graph)
    reach = intdet._reach(lap.first)
    assert reach[19:21] == [21, 32] and intdet._bareiss_serves(lap.diagonal, reach)
    assert dense_bareiss_det([row[:20] for row in dense_laplacian(lap)[:20]]) == 2**20
    assert _check_envelope(graph) == 2**20 * 13**11



def test_envelope_bareiss_on_profiles_whose_first_is_not_monotone():
    # a row enters the elimination at its first nonzero column, scaled once
    # by the pivot before it, and no step before updates it; in reverse
    # breadth-first order first need not grow with the row, and neither
    # does it on random profiles, each row j with the edge (first[j], j)
    rng = random.Random(71)
    laps = [reduced_laplacian(_random_multigraph(rng, g, rng.randint(0, 2 * g))) for g in range(3, 43)]
    for _ in range(40):
        n = rng.randint(2, 60)
        first = [j - rng.randint(0, min(j, rng.choice((2, 8, n)))) for j in range(n)]
        edges = [(f, j) for j, f in enumerate(first) if f < j]
        edges += [(rng.randint(first[j], j - 1), j) for j in range(n) if first[j] < j for _ in range(rng.randint(0, 2))]
        diagonal = [1] * n
        for i, j in edges:
            diagonal[i] += 1
            diagonal[j] += 1
        laps.append(intdet.ReducedLaplacian(diagonal, edges, first))
    unordered = 0
    for lap in laps:
        assert lap.first == _profile(dense_laplacian(lap))
        unordered += any(a > b for a, b in zip(lap.first, lap.first[1:]))
        assert _envelope_det(lap) == dense_bareiss_det(dense_laplacian(lap))
    assert unordered >= 60


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
    # det_int's route: envelope Bareiss, else det_mod
    lap = reduced_laplacian(graph)
    event("Bareiss" if intdet._bareiss_serves(lap.diagonal, intdet._reach(lap.first)) else "multi-modular")


# -- packed rows: wide slots, long rows, degenerate minors -----------------------

def _engines_agree(lap):
    """bareiss_det against dense_bareiss_det and multimodular_det."""
    det = _envelope_det(lap)
    assert det == dense_bareiss_det(dense_laplacian(lap)) == multimodular_det(lap)
    return det


def _heavy(rng, g, extra, most):
    """_random_multigraph with every edge repeated 1 .. most times."""
    base = _random_multigraph(rng, g, extra)
    return Multigraph.from_edge_list(g, [e for e in base.edges for _ in range(rng.randint(1, most))])


def test_packed_rows_with_wide_slots():
    # up to 40 parallel copies of each edge put diagonal entries past 50,
    # so the slots, as wide as the product of the diagonal, grow from 16
    # bits at order 2 to 407 bits at order 60
    rng = random.Random(29)
    for g in (3, 12, 40, 61):
        lap = reduced_laplacian(_heavy(rng, g, 2 * g, 40))
        assert max(lap.diagonal) >= 50
        assert _engines_agree(lap) > 0


def test_packed_rows_spanning_hundreds_of_slots():
    # the wheel's rim closes on the first row of its minor, so that row
    # spans all n columns and every row i the n - i columns from i on:
    # orders 60 and 70 against the dense oracle, 150 and 300 against the
    # Lucas-number count
    for n in (60, 70, 150, 300):
        lap = reduced_laplacian(_wheel(n))
        assert intdet._reach(lap.first) == [n] * n
        if n <= 70:
            assert _engines_agree(lap) == _wheel_trees(n)
        else:
            assert _envelope_det(lap) == multimodular_det(lap) == _wheel_trees(n)
    # and K_8 x C_21 at order 167, its rows 17 columns wide
    lap = reduced_laplacian(_clique_ring(8, 21))
    assert _envelope_det(lap) == _clique_ring_trees(8, 21)


def test_packed_rows_of_order_0_and_1():
    for lap, det in ((intdet.ReducedLaplacian([], [], []), 1), (intdet.ReducedLaplacian([5], [], [0]), 5)):
        assert _engines_agree(lap) == det
    assert spanning_tree_count(Multigraph.from_edge_list(2, [(0, 1)] * 3)) == 3


def test_a_disconnected_minor_ends_at_a_zero_pivot(monkeypatch):
    # rows 0 .. 9 a 10-cycle joined to nothing else and rows 10 .. 19 a
    # path hanging off the dropped vertex: the leading minors of orders 1
    # to 9 are positive and the one of order 10 vanishes, so Bareiss stops
    # at its tenth pivot; modulo every prime that pivot vanishes before the
    # last step too, so multimodular_det falls back to bareiss_det
    edges = [(i, i + 1) for i in range(9)] + [(0, 9)] + [(i, i + 1) for i in range(10, 19)]
    first = [0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 10] + list(range(10, 19))
    lap = intdet.ReducedLaplacian([2] * 19 + [1], edges, first)
    assert first == _profile(dense_laplacian(lap))
    assert dense_bareiss_det([row[:9] for row in dense_laplacian(lap)[:9]]) == 10
    calls = _record_bareiss_det(monkeypatch)
    assert _engines_agree(lap) == 0
    assert calls == [20]
    # a vertex with no edge between two joined by three parallel edges:
    # the diagonal product is 0, and so is the determinant
    lap = intdet.ReducedLaplacian([5, 0, 5], [(0, 2)] * 3, [0, 1, 0])
    assert _engines_agree(lap) == 0


def test_multimodular_falls_back_to_packed_rows_with_wide_slots(monkeypatch):
    # the leading diagonal entry raised to the first prime that
    # primes_for_bound draws (the minor stays positive semidefinite): the
    # first stack's leading pivot vanishes, and the packed body answers for
    # an order-40 minor of heavy parallel edges
    q = primes(1)[0]
    lap = reduced_laplacian(_heavy(random.Random(31), 41, 60, 20))
    lap = lap._replace(diagonal=[q] + lap.diagonal[1:])
    assert primes_for_bound(math.prod(lap.diagonal))[0] == q
    calls = _record_bareiss_det(monkeypatch)
    assert multimodular_det(lap) == dense_bareiss_det(dense_laplacian(lap)) > 0
    assert calls == [40]


def test_every_edge_lies_in_its_rows_envelope():
    # the packed row i holds columns i .. reach[i] - 1: the dense upper
    # triangle is zero past them
    rng = random.Random(41)
    for g in (2, 5, 20, 60):
        lap = reduced_laplacian(_random_multigraph(rng, g, 2 * g))
        reach = intdet._reach(lap.first)
        dense = dense_laplacian(lap)
        assert envelope(lap, reach) == [row[i:r] for i, (row, r) in enumerate(zip(dense, reach))]
        assert not any(x for row, r in zip(dense, reach) for x in row[r:])


# -- the shared prime pool and CRT ------------------------------------------------

def test_prime_pool_is_the_previous_prime_chain():
    import sympy

    chain, q = [], 1 << 29
    for _ in range(40):
        q = sympy.prevprime(q)
        chain.append(q)
    assert primes(40) == chain


def test_crt_symmetric_representative():
    rng = random.Random(2)
    for _ in range(50):
        x = rng.randint(-(10**80), 10**80)
        qs = primes_for_bound(10**80)
        assert crt([x % q for q in qs], qs) == x
    assert crt([0, 0], [5, 7]) == 0
    assert crt([34], [37]) == -3
