"""Exact determinants of reduced Laplacians, for the matrix-tree check.

det_int has one input: the ReducedLaplacian that
graphs.spanning_tree_count reads off a multigraph's edges, the
Laplacian less its last row and column, given by its diagonal, its
edges and its envelope profile.  It is symmetric with a dominant
nonnegative diagonal, hence positive semidefinite, so neither engine
swaps rows, and |det| is at most the product of its diagonal
(Hadamard's inequality for positive semidefinite matrices).  det_int
sends it to one of two exact engines by its envelope work (below):

* bareiss_det, fraction-free elimination (Bareiss 1968) inside the
  envelope, each row one Python integer packed straight from the edges.
* multimodular_det: one elimination over a stack of images modulo
  word-size primes (det_mod), recombined by CRT against the diagonal
  product, of the int64 array built from the diagonal and the edges.

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
* Entering rows are scaled.  A row i that has been outside every box so
  far was never updated, but Bareiss would have: a_ih = 0 at every
  pivot h so far, so each step h only multiplied the row by d_h /
  d_{h-1}, which telescopes to d_{k-1} before step k.  So when row i
  enters the box at step k (reach[k-1] <= i < reach[k], the pivot row k
  among them when reach[k-1] = k), P_i is multiplied by the previous
  pivot d_{k-1} once, and from then on it is updated whole at every
  step, since reach never falls.
* No row swaps.  If a leading minor d_k vanishes, some x != 0 has
  A_k x = 0; then y = (x, 0) has y^T A y = 0, so A y = 0 (A is positive
  semidefinite) and det A = 0.  A zero pivot ends the elimination with
  determinant 0 (a disconnected graph).

Engine choice.  With t_k = reach[k] - k - 1 the side of step k's box,
the envelope work is sum t_k^2 / n, about the box entries per row that
an elimination updates.  det_int runs Bareiss up to BAREISS_WORK and
multimodular_det above it.

The modular kernel.  det_mod(images, qs, first) runs the loop of
envelope Bareiss on the images of a reduced Laplacian modulo each prime
of qs at once, with the profile its caller passes: no row swaps, step k
updates the box of its envelope in every image, and the pivot row
serves as the pivot column.  Modulo q a leading minor may vanish
although the integer one does not.  A pivot that vanishes at the last
step is an image 0; one that vanishes before it ends det_mod with None,
and multimodular_det then returns the envelope Bareiss value, exact
whatever its pivots.

One layout.  multimodular_det writes the matrix once, into an (n, L)
int64 array, by its half-bandwidth w = max(i - first[i]): row i holds
columns i - w .. i + w (L = 2w + 1, sheared) when 2w + 1 < n, and
columns 0 .. n - 1 (L = n) otherwise.  det_mod reduces it modulo the
primes of a stack into an (m, n, L) array and reads every image
through one (n, n) view (_square): entry (i, j) lies at i (L - 1) + j
+ w of a sheared image and at i L + j of an unsheared one.  In a
sheared image these are distinct for |i - j| <= w, which holds for
every entry the elimination reads or writes (every row i of step k's
box has first[i] <= k, so i - k <= w).  multimodular_det sizes its
stacks so that the m n L entries of a stack of m images stay within
STACK_ENTRIES whenever one image fits.  Step k's box has side t_k <=
n - 1, and t_k <= w < n/2 when sheared, so its t_k^2 entries per image
are at most n L, and fewer than n L / 2 when sheared: the product of a
box update, det_mod's one large temporary, never exceeds its stack.

Word-size arithmetic.  The images are computed in numpy int64, which
is exact while every residue is below WORD_LIMIT = 2**30 (LAZY, below,
bounds the growth between reductions).  Residues are balanced in
(-q/2, q/2]; the pivot row is reduced at each step, and the current box
every LAZY steps (delayed reduction, as in Dumas, Giorgi and Pernet's
FFLAS).  primes(count) hands out the largest primes q < WORD_LIMIT, in
decreasing order, from one pool that is built on first use and then
grown on demand, never at import; primes_for_bound picks the fewest
whose product passes twice a bound on |det|, and crt recombines the
images into the symmetric representative, so signs are recovered.

BAREISS_WORK is the measured crossover (2-core x86-64, shared, Python
3.11, numpy 2.4): microseconds per row, medians of five timings of
each minor by each engine, by envelope work per row.  Cover minors
are the distinct minors of order above 36 in rounds 0-2 of the
cover_check benchmark (seeds 1-3) and rounds 0-1 of padic_deep (seed
1), of orders 47-255; random minors are breadth-first ordered minors
of random multigraphs of order 24-56 and mean valency 8.

    work        <50  50- 100- 150- 200- 250- 300- 350- 400- 500- 700- 1000-
                     100  150  200  250  300  350  400  500  700 1000  4000
    cover minors 15   21   28   13   14    1    3    3   10   13    7   17
      Bareiss     3    8   10   12   18   13   22   34   42   70   86  279
      multimod.  22   23   23   24   26   24   29   29   33   41   44   96
    random minors           12   17   16   19   10    9   16   21
      Bareiss                6    8   11   14   17   22   28   35
      multimod.             20   22   24   24   26   28   30   32

The cover minors tie between 300 and 350 and the random ones between
400 and 500, so BAREISS_WORK is 300.  A packed row's slots are as wide
as the bits of the diagonal product, which grows with the order, so
Bareiss's cost per row grows with the work and the order together:
cover minors of order 48-63 gain up to work 320, those of order 107 and
above lose from about 200 on.  Summed over the cover minors, every
crossover from 200 to 400 gives the same time within 1%.

Any square matrix.  dense_bareiss_det eliminates a whole dense integer
matrix by the same fraction-free steps, swapping rows past zero pivots,
since its input need not be positive semidefinite: it is the integer
kernel of genpoly.determinant's route for integral voltage matrices,
which it evaluates at T = 2^w.
"""

from __future__ import annotations

import math
import threading
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .factorint import is_certified_prime

BAREISS_WORK = 300

WORD_LIMIT = 1 << 30

# Balanced residues have |r| <= q/2 < 2**29 for q < 2**30, so one rank-1
# update adds at most (q/2)**2 < 2**58 to an entry.  An entry reduced
# LAZY updates ago is at most q/2 + LAZY * (q/2)**2, below 2**63 while
# LAZY <= 31 (2**29 + 31 * 2**58 < 32 * 2**58); balancing it adds q/2
# once more, still below 2**63.
LAZY = 31

# det_mod stacks hold at most STACK_ENTRIES entries (two unsheared
# images of order 256, or 20 sheared images of order 255 and
# half-bandwidth 12), and a box update's product at most as many again
# (module docstring), so a stack and its per-step temporaries take at
# most 2 MiB.  Larger stacks run fewer, longer eliminations; 2**18
# entries was faster still on the cover_check benchmark but raised its
# peak memory by about 1 MiB.
STACK_ENTRIES = 1 << 17

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


def _width(first: list[int]) -> int:
    """The half-bandwidth of a profile, max(i - first[i])."""
    return max((i - f for i, f in enumerate(first)), default=0)


def _bareiss_serves(reach: list[int]) -> bool:
    """Is the envelope work of the profile with this reach at most
    BAREISS_WORK?"""
    return sum((r - k - 1) ** 2 for k, r in enumerate(reach)) <= BAREISS_WORK * len(reach)


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
    prev, entered = 1, 0  # the rows below entered have been in a box
    for k, r in enumerate(reach):
        if r > entered:
            if prev != 1:
                for i in range(max(entered, k), r):
                    rows[i] *= prev
            entered = r
        low = rows[k] + half
        pivot = (low & mask) - half
        if pivot == 0:
            return 0
        for i in range(k + 1, r):
            tail = low >> s  # the pivot row from column i on
            low = tail + half
            m = (low & mask) - half
            rows[i] = (pivot * rows[i] - m * tail) // prev
        prev = pivot
    return prev


def dense_bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of any square integer matrix by dense
    fraction-free elimination (Bareiss 1968), swapping rows past zero
    pivots: after step k every entry of the trailing block is a minor of
    order k + 2, so each division by the previous pivot is exact."""
    m = [list(map(int, r)) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, tail = m[k][k], m[k][k + 1 :]
        for i in range(k + 1, len(m)):
            row, mik = m[i], m[i][k]
            row[k + 1 :] = [(a * pivot - mik * b) // prev for a, b in zip(row[k + 1 :], tail)]
        prev = pivot
    return sign * m[-1][-1] if m else 1


def check_word_prime(q: int) -> None:
    """Refuse a modulus outside the range where int64 arithmetic is exact."""
    if not 2 <= q < WORD_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-safe range [2, 2**30)")


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
    # every prime is below 2**30, so fewer than bit_length // 30 of them
    # fall short of target: the walk starts with that many
    qs = primes(target.bit_length() // 30)
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


def _balance(a: np.ndarray, q: np.ndarray, half: np.ndarray) -> None:
    """Reduce a in place to its residues in (-q/2, q/2]."""
    a += half
    np.remainder(a, q, out=a)
    a -= half


def _square(stored: np.ndarray) -> np.ndarray:
    """The (..., n, n) view of images stored as an (..., n, L) array in
    det_mod's layout (module docstring): sheared when L < n."""
    *lead, n, length = stored.shape
    shear = length < n
    flat = stored.reshape(*lead, n * length)[..., length // 2 * shear :]
    step = stored.itemsize
    return np.lib.stride_tricks.as_strided(
        flat, shape=(*lead, n, n), strides=(*flat.strides[:-1], (length - shear) * step, step))


def det_mod(images: np.ndarray, qs, first: list[int]) -> list[int] | None:
    """Determinants of a reduced Laplacian of order n >= 1 with profile
    first, an (n, L) int64 array in the layout of the module docstring,
    modulo each prime q in qs (every q < 2**30), in [0, q): the kernel of
    the module docstring, no row swaps and step k confined to the box of
    rows and columns k + 1 .. reach[k] - 1.  None when an image's pivot
    vanishes before the last step."""
    for q in qs:
        check_word_prime(q)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    half = (q - 1) // 2
    q3, half3 = q[:, :, None], half[:, :, None]
    stack = images % q3
    _balance(stack, q3, half3)
    a = _square(stack)
    dets = [1] * len(qs)
    for k, r in enumerate(_reach(first)):
        row = a[:, k, k:r]
        _balance(row, q, half)
        pivots = row[:, 0].tolist()
        dets = [d * x % p for d, x, p in zip(dets, pivots, qs)]
        if k == len(first) - 1:
            break
        if 0 in pivots:
            return None
        box = a[:, k + 1 : r, k + 1 : r]
        if r > k + 1:
            # the balanced multipliers row / pivot, every pivot a unit
            inv = np.array([pow(x, -1, p) for x, p in zip(pivots, qs)], dtype=np.int64)
            factors = row[:, 1:] * inv[:, None]
            _balance(factors, q, half)
            box -= factors[:, :, None] * row[:, None, 1:]
        if (k + 1) % LAZY == 0:
            _balance(box, q3, half3)
    return dets


def multimodular_det(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian from its images modulo the
    fewest primes whose product passes twice the diagonal product, a
    bound on |det|; by envelope Bareiss when a pivot vanishes modulo one
    of them before the last step (module docstring)."""
    n, bound = len(lap.diagonal), math.prod(lap.diagonal)
    if n == 0 or bound == 0:
        return bound  # the empty product, 1; or a row of zeros
    length = 2 * _width(lap.first) + 1
    images = np.zeros((n, length if length < n else n), dtype=np.int64)
    a, diagonal = _square(images), np.arange(n)
    a[diagonal, diagonal] = lap.diagonal
    if lap.edges:
        # parallel edges add up
        i, j = np.array(lap.edges, dtype=np.intp).T
        np.subtract.at(a, (i, j), 1)
        np.subtract.at(a, (j, i), 1)
    qs = primes_for_bound(bound)
    # as few stacks as STACK_ENTRIES allows, of nearly equal size
    stacks = -(-len(qs) // max(1, STACK_ENTRIES // images.size))
    dets = []
    for s in range(stacks):
        stack = det_mod(images, qs[s * len(qs) // stacks : (s + 1) * len(qs) // stacks], lap.first)
        if stack is None:
            return bareiss_det(lap, _reach(lap.first))
        dets += stack
    return crt(dets, qs)


def det_int(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian: Bareiss up to
    BAREISS_WORK of envelope work per row, multi-modular above (module
    docstring)."""
    reach = _reach(lap.first)
    if _bareiss_serves(reach):
        return bareiss_det(lap, reach)
    return multimodular_det(lap)
