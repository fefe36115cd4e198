"""Exact determinants of reduced Laplacians, for the matrix-tree check.

det_int has one input: the ReducedLaplacian that
graphs.spanning_tree_count reads off a multigraph's edges, the
Laplacian less its last row and column, given by its diagonal, its
edges and its envelope profile.  It is symmetric with a dominant
nonnegative diagonal, hence positive semidefinite, so neither engine
swaps rows, and |det| is at most the product of its diagonal
(Hadamard's inequality for positive semidefinite matrices).  det_int
sends it to one of two exact engines by its envelope work, weighted by
the bits of that product (below):

* bareiss_det, fraction-free elimination (Bareiss 1968) inside the
  envelope, each row one Python integer packed straight from the edges.
* multimodular_det: one blocked, division-free elimination of the
  images modulo word-size primes (det_mod), all in one int64 window
  that slides down the envelope, recombined by CRT against the
  diagonal product.

Envelopes.  first[i] is the first nonzero column of row i of a
symmetric matrix (i when there is none), and reach[k] is one past the
last row whose first nonzero lies in a column <= k.  Elimination step k
then changes only the box of rows and columns k+1 .. reach[k]-1: no
fill falls outside the envelope, and the boxes come from the static
profile (George and Liu, Computer Solution of Large Sparse Positive
Definite Systems, 1981, ch. 4).  graphs.reduced_laplacian orders a
Laplacian by a breadth-first search, so its profile hugs the diagonal,
and reads first off the edges: first[j] is the least i of an edge
(i, j), i < j.

Envelope Bareiss.  After Bareiss step k, entry (i, j) of the trailing
block is the minor of the matrix on rows 0..k, i and columns 0..k, j,
and the pivot of step k is the leading principal minor d_k of order
k+1, so step k sets a_ij to (d_k a_ij - a_ik a_kj) / d_{k-1}, an exact
division.  bareiss_det applies that only inside the boxes, a whole row
at a time:

* Packed rows.  Only the upper triangle is kept, row i holding columns
  i .. reach[i]-1, as one signed-slot integer P_i = sum_j a_ij 2^(s(j-i))
  with s = bits(D) + 2, D the product of the diagonal.  A slot below
  2^(s-1) in absolute value is read back exactly: the low slot of P is
  ((P + 2^(s-1)) mod 2^s) - 2^(s-1), and (P + 2^(s-1)) >> s drops it,
  the borrow corrected.  The minors are symmetric in i and j, so the
  pivot row also serves as the pivot column (a_ik = a_ki): step k reads
  the pivot d_k off P_k and, for each row i = k+1 .. reach[k]-1 of its
  box, drops one more slot off the pivot row, leaving tail = sum_(j >= i)
  a_kj 2^(s(j-i)), aligned with P_i, whose low slot is m = a_ik; then
  P_i = (d_k P_i - m tail) / d_{k-1}.  The update is linear in the
  slots and d_{k-1} divides every slot of the numerator, so it divides
  the whole integer exactly, however far the slots of the product
  overflow into each other, and the quotient's slots are the new
  entries.  Slots past the box scale by d_k / d_{k-1}, as Bareiss
  scales them, since the pivot row is 0 there.
* The slots fit.  After each division every slot is a minor det A[I, J]
  of A, with |I| = |J|.  A is positive semidefinite, so its compound
  matrix of minors of that order is too, and Cauchy-Schwarz on it gives
  |det A[I, J]| <= sqrt(det A[I, I] det A[J, J]); by Hadamard's
  inequality det A[I, I] <= prod_(i in I) a_ii <= D, as every a_ii >= 1.
  So every slot is at most D < 2^(s-2) in absolute value.  A zero
  diagonal entry makes D = 0 and is a row of zeros (A is positive
  semidefinite): the determinant is 0 at once.
* Rows enter at their first column.  Row i has a_ih = 0 at every pivot
  h < first[i], so each such Bareiss step would only multiply it by
  d_h / d_{h-1}, which telescopes to d_{k-1} before step k = first[i].
  So bareiss_det leaves row i alone until step first[i], multiplies P_i
  then by the previous pivot d_{k-1} once (the pivot row k itself when
  first[k] = k), and from then on updates it whole at every step up to
  i, each of whose boxes holds it.  A row of step k's box with first[i]
  > k is skipped, though the pivot row still drops a slot for it, to
  stay aligned with the rows after it.
* No row swaps.  If a leading minor d_k vanishes, some x != 0 has
  A_k x = 0; then y = (x, 0) has y^T A y = 0, so A y = 0 (A is positive
  semidefinite) and det A = 0.  A zero pivot ends the elimination with
  determinant 0 (a disconnected graph).

Engine choice.  With t_k = reach[k] - k - 1 the side of step k's box,
the envelope work is sum t_k^2 / n, about the box entries per row that
an elimination updates.  A packed row's slots are s = bits(D) + 2 bits
wide, D the diagonal product, so Bareiss pays for each entry in
proportion to s, while the modular images cost little more per entry as
s grows.  det_int runs Bareiss while the work times s is at most
BAREISS_WORK, and multimodular_det above it.

The modular kernel.  det_mod(entries, first, qs) eliminates the images
of a symmetric matrix modulo each prime of qs at once, with the profile
its caller passes: no row swaps, the boxes of the envelope, the pivot
row serving as the pivot column, and no division.  It keeps the
trailing matrix as sigma S, S the Schur complement and sigma a scale
per image.  A step with pivot p = sigma d, d the pivot of S, and pivot
row u, the first row of sigma S, replaces the rest by p sigma S - u^T u
= sigma p S', S' the next Schur complement: sigma becomes sigma p, and
p vanishes exactly when d does.  The determinant, the product of the
d_k = p_k / sigma_k, is sigma_n over the product of sigma_0 ..
sigma_(n-1); det_mod folds both products block by block and takes one
inverse per image, at the end.  Modulo q a leading minor may vanish
although the integer one does not.  A pivot that vanishes at the last
step is an image 0; one that vanishes before it ends det_mod with None,
and multimodular_det then returns the envelope Bareiss value, exact
whatever its pivots.

Blocks.  det_mod takes the steps BLOCK at a time (delayed, blocked
reduction, as in Dumas, Giorgi and Pernet's FFLAS-FFPACK).  The boxes of
steps k0 .. k1 - 1 lie in rows and columns k0 + 1 .. r - 1, r =
reach[k1 - 1], as reach never falls.  With p_0 .. p_(b-1) the block's
pivots, u_0 .. u_(b-1) its pivot rows and R_p = p_0 ... p_(p-1), its
steps before p turn its row p into R_p times itself less the sum over k
< p of (p_(k+1) ... p_(p-1)) u_k[p] u_k, and the trailing box into R_b
times itself less the like sum over k < b.  So the block's own rows k0
.. k1 - 1 (its panel) go one at a time: row p takes its scale R_p and
the shares of the block's earlier pivot rows in one product, and is
reduced.  The trailing box, rows and columns k1 .. r - 1, waits: after
the block it is scaled by R_b in place, and one product W^T U of the
weighted pivot rows W with the pivot rows U, over columns k1 .. r - 1,
updates all of it; it is reduced once.  Each weight is minus the
product of the pivots after its step, so every term is added.  A row
is 0 past its step's reach, so each step's share of the product lies in
its own box, as one step at a time would have it.  A block tests its
pivots for 0 once, by R_b (by R_(b-1) when it holds the last step).

The window.  det_mod keeps the rows and columns k0 .. r - 1 of the
current block of every image, and nothing else, in one (m, S, S) int64
window, S the most that any block needs (_window_side).  Only the upper
triangle counts, as every row is read from its diagonal on.  After a
block the trailing box moves to the window's corner, where the next
block starts, and the columns that its boxes reach past r enter,
written straight from the entries times sigma, reduced as they are
written: no step has touched them, and each of their entries lies in
the window, since an entry (i, j), i <= j, with j past every box so far
has i >= first[j] >= k0.  No array holds every entry's residues at
once.  multimodular_det reads the upper triangle once off the diagonal
and edges, as (row, column, value) triples with parallel edges added
up, and splits its primes into stacks only as far as keeping m S^2
within WINDOW_ENTRIES needs (whenever one image fits); every
cover_check minor takes one stack.  A block of b steps keeps b (S - b) weighted entries per image,
and the trailing box's product has at most (S - b)^2 entries: det_mod's
temporaries hold no more than the window, as b S + (S - b)^2 <= S^2.

Word-size arithmetic.  The images are computed in numpy int64, which
is exact while every sum stays below 2**63.  Every residue lies in
[0, q), q < WORD_LIMIT = 2**29, so a product of two is at most
(q - 1)**2 < 2**58.  A panel entry is its scale times itself plus at
most BLOCK - 1 products, and a box entry its scale times itself plus
BLOCK products, all of them nonnegative; so for BLOCK <= 31 every sum
is below 32 * 2**58 = 2**63, and one np.remainder reduces it.  The
bound is tight: the tests drive a box entry to 32 (q - 1)**2 at BLOCK =
31, and one more product would pass 2**63 at the largest primes.
primes(count) hands out the largest primes q < WORD_LIMIT, in
decreasing order, from one pool that is built on first use and then
grown on demand, never at import; primes_for_bound picks the fewest
whose product passes twice a bound on |det|, and crt recombines the
images into the symmetric representative, so signs are recovered.

BAREISS_WORK is the measured crossover, timed cold: every CLI call and
every benchmark round is a fresh process, so each minor was timed as
the first determinant of a fresh process that had imported the program,
where the modular engine also pays its first-call costs (numpy's first
argsort, searchsorted and matmul, and the prime pool).  Microseconds per
row (2-core x86-64, shared, Python 3.11, numpy 2.4), medians of three
to eight such timings of each minor by each engine (eight between
15,000 and 150,000), by envelope work per row times the slot width, in
thousands.  Workload minors are the 325 distinct minors of order 31-255
in the rounds of seeds 1 and 2 of the padic_deep, integral_deep and
cover_check benchmarks; random minors are 60 breadth-first ordered
minors of order 23-55 of random multigraphs, a path and three random
edges per vertex.

    work x s    <10  10-  20-  30-  40-  50-  60-  80- 120- 200- 400-
                     20   30   40   50   60   80  120  200  400  920
    workload   160   44   27   17   16    7    9   10   13   12   10
      Bareiss    8   17   25   30   41   40   53   77  130  231  405
      multimod. 45   39   41   46   40   48   41   40   45   55   75
    random minors 2   17   13    8    3    6    9    2
      Bareiss   10   15   20   25   36   34   45   62
      multimod. 69   55   63   56   51   64   48   48

Cold, the workload minors tie between 40,000 and 60,000 and the random
ones between 60,000 and 80,000 (warm, the modular engine takes 25-35
microseconds per row up to 80,000).  Summed over the workload minors,
BAREISS_WORK = 50,000 takes 4.4% more time than the faster engine for
each minor (40,000 takes the least, 2.3%), and 14.1% more on the random
minors (75,000, 0.6%).  It keeps every padic_deep minor (weighted work
up to 47,297 over seeds 1-5) in Bareiss, where the modular engine's
first call would raise the process's peak RSS by 0.14 MB (the median
ru_maxrss rise) and Bareiss raises it by nothing.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .factorint import is_certified_prime

BAREISS_WORK = 50_000

WORD_LIMIT = 1 << 29

# det_mod's steps per block.  Residues lie in [0, q), q < 2**29, so a
# product of two is below 2**58, and a box entry sums its scaled self and
# BLOCK products between reductions: below 2**63 for any BLOCK <= 31
# (module docstring).  On the cover_check minors 16 to 31 took the same time
# within 3%, 8 took 14% more; 16 keeps the window smallest.
BLOCK = 16

# det_mod's windows hold at most WINDOW_ENTRIES entries, and its kept
# weighted pivot rows and the trailing box's product together at most as many
# again (module docstring), so a window and those temporaries take at
# most 2 MiB.  Every cover_check minor runs all its images in one window;
# on the widest (14 images, side 92) tracemalloc puts multimodular_det's
# peak at 2.4 MB, its entries and numpy's buffers included.
WINDOW_ENTRIES = 1 << 17

_pool: list[int] = []
_pool_lock = threading.Lock()


class ReducedLaplacian(NamedTuple):
    """The Laplacian of a multigraph on n + 1 vertices less its last row
    and column, by its edges: diagonal[i] is vertex i's valency without
    its loops, each edge between two of the first n vertices appears in
    edges once as (i, j) with i < j, and first is the envelope profile,
    first[j] the least i of an edge (i, j), else j."""

    diagonal: list[int]
    edges: list[tuple[int, int]]
    first: list[int]


def _reach(first: list[int]) -> list[int]:
    """reach[k] of a profile (module docstring): one past the last row
    whose first nonzero lies in a column <= k."""
    last = [0] * len(first)
    for r, f in enumerate(first):
        last[f] = r
    return [r + 1 for r in accumulate(last, max)]


def _bareiss_serves(diagonal: list[int], reach: list[int]) -> bool:
    """Is the envelope work of the profile with this reach, weighted by
    the slot width of this diagonal, at most BAREISS_WORK?"""
    slot = math.prod(diagonal).bit_length() + 2
    return slot * sum((r - k - 1) ** 2 for k, r in enumerate(reach)) <= BAREISS_WORK * len(reach)


def bareiss_det(lap: ReducedLaplacian, reach: list[int]) -> int:
    """Exact determinant of a reduced Laplacian by fraction-free
    elimination of its upper envelope, one packed integer per row, inside
    the boxes of reach (module docstring)."""
    bound = math.prod(lap.diagonal)
    if bound == 0:
        return 0  # a row of zeros
    s = bound.bit_length() + 2
    half, mask = 1 << (s - 1), (1 << s) - 1
    rows = list(lap.diagonal)
    for i, j in lap.edges:
        rows[i] -= 1 << s * (j - i)
    first = lap.first
    entering = [[] for _ in first]  # the rows whose first nonzero is column k
    for i, f in enumerate(first):
        entering[f].append(i)
    prev = 1
    for k, r in enumerate(reach):
        if prev != 1:
            for i in entering[k]:
                rows[i] *= prev
        low = rows[k] + half
        pivot = (low & mask) - half
        if pivot == 0:
            return 0
        for i in range(k + 1, r):
            tail = low >> s  # the pivot row from column i on
            low = tail + half
            if first[i] <= k:  # else a_ik = 0, and row i waits to enter
                m = (low & mask) - half
                rows[i] = (pivot * rows[i] - m * tail) // prev
        prev = pivot
    return prev


def check_word_prime(q: int) -> None:
    """Refuse a modulus outside the range where int64 arithmetic is exact."""
    if not 2 <= q < WORD_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-safe range [2, 2**29)")


def primes(count: int) -> list[int]:
    """The count largest odd primes q < WORD_LIMIT, in decreasing order."""
    with _pool_lock:
        q = _pool[-1] if _pool else WORD_LIMIT + 1
        while len(_pool) < count:
            q -= 2
            if q < 3:
                raise ArithmeticError(f"only {len(_pool)} odd primes below {WORD_LIMIT}, {count} needed")
            if is_certified_prime(q):
                _pool.append(q)
        return _pool[:count]


def primes_for_bound(bound: int) -> list[int]:
    """The fewest leading primes of the pool whose product exceeds 2 *
    bound: enough for crt to recover any integer of absolute value at
    most bound."""
    target = 2 * bound
    # every prime is below 2**29, so fewer than bit_length // 29 of them
    # fall short of target: the walk starts with that many
    qs = primes(target.bit_length() // 29)
    prod = math.prod(qs)
    while prod <= target:
        qs = primes(len(qs) + 1)
        prod *= qs[-1]
    return qs


def crt(values, moduli) -> int:
    """The x with |x| < prod(moduli) / 2 and x = values[k] mod moduli[k]
    (Garner's incremental form; the moduli are distinct primes)."""
    x, prod = 0, 1
    for r, q in zip(values, moduli, strict=True):
        t = (r - x % q) * pow(prod % q, -1, q) % q
        x += prod * t
        prod *= q
    return x - prod if x > prod // 2 else x


def _product(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The products modulo q of the rows of a, an (m, w) array of residues
    modulo the (m, 1) primes q, pairwise: an (m, 1) array."""
    while a.shape[1] > 1:
        h = a.shape[1] // 2
        pairs = a[:, :h] * a[:, h : 2 * h] % q
        a = np.concatenate((pairs, a[:, 2 * h :]), axis=1)
    return a


def _blocks(reach: list[int]) -> list[tuple[int, int, int]]:
    """The blocks (k0, k1, r) of det_mod on a profile with this reach:
    steps k0 .. k1 - 1, BLOCK of them but for the last, whose boxes all
    lie in rows and columns k0 + 1 .. r - 1, r = reach[k1 - 1]."""
    n = len(reach)
    return [(k0, min(k0 + BLOCK, n), reach[min(k0 + BLOCK, n) - 1]) for k0 in range(0, n, BLOCK)]


def _window_side(reach: list[int]) -> int:
    """The side of det_mod's window on a profile with this reach: the
    most rows and columns k0 .. r - 1 that a block holds."""
    return max((r - k0 for k0, _, r in _blocks(reach)), default=0)


def det_mod(entries: np.ndarray, first: list[int], qs) -> list[int] | None:
    """Determinants, in [0, q), modulo each prime q in qs (every q <
    2**29) of the symmetric matrix of order n = len(first) >= 1 with
    profile first whose upper triangle has the nonzero entries
    entries[2] at rows entries[0] <= columns entries[1], each position
    once, in a (3, E) int64 array: the blocked, division-free elimination
    of the module docstring, all images in one window, no row swaps.
    None when an image's pivot vanishes before the last step."""
    for q in qs:
        check_word_prime(q)
    n, m = len(first), len(qs)
    rows, cols, values = entries[:, np.argsort(entries[1], kind="stable")]
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    q3 = q[:, :, None]
    # the entries of columns c .. c' - 1 are values[start[c] : start[c']]
    start = np.searchsorted(cols, np.arange(n + 1)).tolist()
    reach = _reach(first)
    size = _window_side(reach)
    window = np.zeros((m, size, size), dtype=np.int64)
    # scale is sigma at the current block's start, the window holding sigma
    # times the Schur complement; den is the product of sigma over the steps
    scale, den = np.ones((m, 1), dtype=np.int64), np.ones((m, 1), dtype=np.int64)
    # at step p of a block g[:, 0] is R_p, the product of the block's pivots
    # so far, and g[:, k + 1], k < p, minus the product of those after step
    # k, the weight of u_k in row p; each block starts from 1 and -1
    unit = np.concatenate((np.ones((m, 1), dtype=np.int64), np.repeat(q - 1, BLOCK, axis=1)), axis=1)
    g = np.empty_like(unit)
    shares = np.empty((m, BLOCK), dtype=np.int64)
    scales = np.empty((m, BLOCK), dtype=np.int64)  # R_p at each step p
    entered = 0  # rows and columns k0 .. entered - 1 hold the trailing box
    for k0, k1, r in _blocks(reach):
        # columns entered .. r - 1 enter the window: zeros but for their
        # entries times sigma, as no step has touched them yet
        t, side, b = entered - k0, r - k0, k1 - k0
        window[:, :side, t:side] = 0
        i, j = rows[start[entered] : start[r]] - k0, cols[start[entered] : start[r]] - k0
        fresh = values[start[entered] : start[r]] % q
        fresh *= scale
        window[:, i, j] = np.remainder(fresh, q, out=fresh)
        entered = r
        # the block's steps on its panel, rows k0 .. k1 - 1: row p, times R_p,
        # takes the weighted shares of the pivot rows u_k, k < p, in one
        # product; the trailing box, rows and columns k1 .. r - 1, waits
        g[:] = unit
        for p in range(b):
            scales[:, p] = g[:, 0]
            if p:
                c = shares[:, : p + 1]
                np.multiply(g[:, 1 : p + 1], window[:, :p, p], out=c[:, :p])
                np.remainder(c[:, :p], q, out=c[:, :p])
                c[:, p] = g[:, 0]
                row = np.matmul(c[:, None, :], window[:, : p + 1, p:side])[:, 0]
                np.remainder(row, q, out=window[:, p, p:side])
            g[:, : p + 1] *= window[:, p, p : p + 1]
            np.remainder(g[:, : p + 1], q, out=g[:, : p + 1])
        # a pivot before the last step that vanishes: R_b, or R_(b - 1)
        # when the block holds the last step, vanishes with it
        if not (g[:, 0] if k1 < n else scales[:, b - 1]).all():
            return None
        den = den * _product(scales[:, :b] * scale % q, q) % q
        scale = scale * g[:, :1] % q
        # one rank-b product of the weighted pivot rows with the pivot rows
        # updates the trailing box, scaled by R_b in place, and its residues
        # move to the window's corner
        if side > b:
            weighted = g[:, 1 : b + 1, None] * window[:, :b, b:side]
            np.remainder(weighted, q3, out=weighted)
            box = np.matmul(weighted.transpose(0, 2, 1), window[:, :b, b:side])
            trailing = window[:, b:side, b:side]
            trailing *= g[:, :1, None]
            box += trailing
            np.remainder(box, q3, out=window[:, : side - b, : side - b])
    # the determinant is sigma_n over the product of sigma_k, k < n
    return [s * pow(d, -1, qk) % qk for s, d, qk in zip(scale[:, 0].tolist(), den[:, 0].tolist(), qs)]


def _upper_entries(lap: ReducedLaplacian) -> np.ndarray:
    """The nonzero entries of a reduced Laplacian's upper triangle in
    det_mod's form: the diagonal, and minus the number of edges (i, j),
    parallel ones adding up, at each (i, j)."""
    # a Counter, not np.unique, whose first call in a process raises its
    # peak RSS by 0.6-1.3 MB (numpy 2.4's hash tables)
    counts = Counter(lap.edges)
    diagonal = range(len(lap.diagonal))
    return np.array([[*diagonal, *(i for i, _ in counts)], [*diagonal, *(j for _, j in counts)],
                     [*lap.diagonal, *(-c for c in counts.values())]], dtype=np.int64)


def multimodular_det(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian from its images modulo the
    fewest primes whose product passes twice the diagonal product, a
    bound on |det|; by envelope Bareiss when a pivot vanishes modulo one
    of them before the last step (module docstring)."""
    n, bound = len(lap.diagonal), math.prod(lap.diagonal)
    if n == 0 or bound == 0:
        return bound  # the empty product, 1; or a row of zeros
    entries, reach = _upper_entries(lap), _reach(lap.first)
    qs = primes_for_bound(bound)
    # as few stacks as WINDOW_ENTRIES allows, of nearly equal size
    stacks = -(-len(qs) // max(1, WINDOW_ENTRIES // _window_side(reach) ** 2))
    dets = []
    for s in range(stacks):
        stack = det_mod(entries, lap.first, qs[s * len(qs) // stacks : (s + 1) * len(qs) // stacks])
        if stack is None:
            return bareiss_det(lap, reach)
        dets += stack
    return crt(dets, qs)


def det_int(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian: Bareiss up to
    BAREISS_WORK of envelope work per row times the slot width,
    multi-modular above (module docstring)."""
    reach = _reach(lap.first)
    if _bareiss_serves(lap.diagonal, reach):
        return bareiss_det(lap, reach)
    return multimodular_det(lap)
