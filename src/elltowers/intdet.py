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
  envelope, read from the edges (ReducedLaplacian.envelope).
* multimodular_det: one elimination over a stack of images modulo
  word-size primes (det_mod), recombined by CRT against the diagonal
  product, of the int64 array built from the edges
  (ReducedLaplacian.array).

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
division.  bareiss_det applies that only inside the boxes:

* Only the upper triangle, row i holding columns i .. reach[i]-1: the
  minors are symmetric in i and j, so the pivot row also serves as the
  pivot column (a_ik = a_ki).
* Entering entries are scaled.  An entry whose column j has been
  outside every box so far was never updated, but Bareiss would have:
  the pivot rows so far are 0 in column j, so each step s only
  multiplied it by d_s / d_{s-1}, which telescopes to d_{k-1} before
  step k.  So when column j enters the box
  at step k (reach[k-1] <= j < reach[k]), its entries in rows k .. j
  are multiplied by the previous pivot d_{k-1} once, and from then on
  they are updated at every step, since reach never falls.
* No row swaps.  If a leading minor d_k vanishes, some x != 0 has
  A_k x = 0; then y = (x, 0) has y^T A y = 0, so A y = 0 (A is positive
  semidefinite) and det A = 0.  A zero pivot ends the elimination with
  determinant 0 (a disconnected graph).

Engine choice.  With t_k = reach[k] - k - 1 the side of step k's box,
the envelope work is sum t_k^2 / n, about the box entries per row that
an elimination updates.  det_int runs Bareiss up to BAREISS_WORK and
multimodular_det above it.

The modular kernel.  det_mod(matrix, qs, first) runs the loop of
envelope Bareiss on the images of a reduced Laplacian modulo each prime
of qs at once, with the profile its caller passes: no row swaps, step k
updates the box of its envelope in every image, and the pivot row
serves as the pivot column.  Modulo q a leading minor may vanish
although the integer one does not.  A pivot that vanishes at the last
step is an image 0; one that vanishes before it ends det_mod with None,
and multimodular_det then returns the envelope Bareiss value, exact
whatever its pivots.  Each image is read through one (m, n, n) view of
one of two storages, by its half-bandwidth w = max(i - first[i]):

* 2w + 1 < n: band storage, n rows of 2w + 1 entries, read through a
  sheared view;
* else dense, n x n.

multimodular_det sizes its stacks by the entries one image stores,
n min(n, 2w + 1), so that a stack holds at most STACK_ENTRIES.

Residues are balanced in (-q/2, q/2]; the pivot row is reduced at each
step, and the current box every LAZY steps (delayed reduction, as in
Dumas, Giorgi and Pernet's FFLAS).  A box's product is a temporary,
taken in slices of rows when the box is large, so a stack needs no
stack-sized buffer.

BAREISS_WORK is the measured crossover (2-core x86-64, shared, Python
3.11, numpy 2.4): microseconds per row, medians of five timings of
each minor by each engine, by envelope work per row.  Cover minors
are the distinct minors of order above 36 in rounds 0-2 of the
cover_check benchmark (seeds 1-3) and rounds 0-1 of padic_deep (seed
1); random minors are breadth-first ordered minors of random
multigraphs of order 24-56 and mean valency 8.

    work          <50  50- 100- 150- 200- 250- 400- 500- 700- 1000-
                       100  150  200  250  400  500  700 1000  4000
    cover minors    8    8   13   11    9    6   10   13    7    17
      Bareiss      14   35   41   57   64   95  117  140  189   369
      multimod.    54   55   53   57   55   65   76   84   85   187
    random minors             7    6    5   15    9    5    1
      Bareiss                23   30   37   70   74  173   96
      multimod.              33   35   37   52   52   86   55

The cover minors tie near 200 and the random ones between 200 and 250
(multimodular's cost per row barely grows with the width of a narrow
band, Bareiss's grows with the work), so BAREISS_WORK is 200.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .multimodular import check_word_prime, crt, primes_for_bound, residues

BAREISS_WORK = 200

# Balanced residues have |r| <= q/2 < 2**29 for q < 2**30, so one rank-1
# update adds at most (q/2)**2 < 2**58 to an entry.  An entry reduced
# LAZY updates ago is at most q/2 + LAZY * (q/2)**2, below 2**63 while
# LAZY <= 31 (2**29 + 31 * 2**58 < 32 * 2**58); balancing it adds q/2
# once more, still below 2**63.
LAZY = 31

# det_mod stacks hold at most STACK_ENTRIES stored entries (two 256 x 256
# dense images, or 20 band images of order 255 and half-bandwidth 12) and
# the product of one box update at most UPDATE_ENTRIES, so a stack and
# its per-step temporaries take about 1.25 MiB.  Larger stacks
# run fewer, longer eliminations; 2**18 entries was faster still on the
# cover_check benchmark but raised its peak memory by about 1 MiB.
STACK_ENTRIES = 1 << 17
UPDATE_ENTRIES = STACK_ENTRIES // 4


class ReducedLaplacian(NamedTuple):
    """The Laplacian of a multigraph on n + 1 vertices less its last row
    and column, by its edges: diagonal[i] is vertex i's valency without
    its loops, each edge between two of the first n vertices appears in
    edges once as (i, j) with i < j, and first is the envelope profile,
    first[j] the least i of an edge (i, j), else j."""

    diagonal: list[int]
    edges: list[tuple[int, int]]
    first: list[int]

    def envelope(self, reach: list[int]) -> list[list[int]]:
        """The upper envelope that bareiss_det eliminates: row i's entries
        in columns i .. reach[i] - 1, where every edge (i, j) lies."""
        rows = [[0] * (r - i) for i, r in enumerate(reach)]
        for row, d in zip(rows, self.diagonal):
            row[0] = d
        for i, j in self.edges:
            rows[i][j - i] -= 1
        return rows

    def array(self) -> np.ndarray:
        """The whole matrix, an int64 array."""
        a = np.diag(np.array(self.diagonal, dtype=np.int64))
        if self.edges:
            i, j = np.array(self.edges, dtype=np.intp).T
            np.subtract.at(a, (i, j), 1)
            np.subtract.at(a, (j, i), 1)
        return a


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


def bareiss_det(rows: list[list[int]], reach: list[int]) -> int:
    """Exact determinant of a reduced Laplacian by fraction-free
    elimination of its upper envelope rows (ReducedLaplacian.envelope),
    in place inside the boxes of reach (module docstring)."""
    prev, entered = 1, 0  # the columns below entered have been in a box
    for k, (pivot_row, r) in enumerate(zip(rows, reach)):
        if r > entered:
            if prev != 1:
                for i in range(k, r):
                    row, lo = rows[i], max(entered, i) - i
                    row[lo : r - i] = [x * prev for x in row[lo : r - i]]
            entered = r
        pivot = pivot_row[0]
        if pivot == 0:
            return 0
        for i in range(k + 1, r):
            m, row = pivot_row[i - k], rows[i]
            row[: r - i] = [(pivot * x - m * y) // prev for x, y in zip(row, pivot_row[i - k :])]
        prev = pivot
    return prev


def _balance(a: np.ndarray, q: np.ndarray, half: np.ndarray) -> None:
    """Reduce a in place to its residues in (-q/2, q/2]."""
    a += half
    np.remainder(a, q, out=a)
    a -= half


def _update(box: np.ndarray, factors: np.ndarray, pivot_row: np.ndarray) -> None:
    """box -= factors x pivot_row in every image, in slices of rows so that
    the product of a large box stays within UPDATE_ENTRIES."""
    pivot_row = pivot_row[:, None, :]
    rows = max(1, UPDATE_ENTRIES // max(1, pivot_row.size))  # no images: size 0
    for lo in range(0, box.shape[1], rows):
        box[:, lo : lo + rows] -= factors[:, lo : lo + rows, None] * pivot_row


def det_mod(matrix: np.ndarray, qs, first: list[int]) -> list[int] | None:
    """Determinants of a reduced Laplacian of order n >= 1, an int64 array
    (ReducedLaplacian.array) with profile first, modulo each prime q in
    qs (every q < 2**30), in [0, q): the kernel of the module docstring,
    no row swaps and step k confined to the box of rows and columns
    k + 1 .. reach[k] - 1, in band storage when 2w + 1 < n, else dense.
    None when an image's pivot vanishes before the last step."""
    for q in qs:
        check_word_prime(q)
    n, m, w = len(matrix), len(qs), _width(first)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    half = (q - 1) // 2
    q3, half3 = q[:, :, None], half[:, :, None]
    if 2 * w + 1 < n:
        # entry (i, j) of image k is stored[k, i, j - i + w], at
        # i * 2w + j + w in the image's n (2w + 1) entries: distinct for
        # |i - j| <= w, which holds for every entry the elimination reads
        # or writes.  The slots of columns j outside 0 .. n - 1 hold
        # copies of row i's end entries and are never read.
        i = np.arange(n)
        cols = (i[:, None] + np.arange(-w, w + 1)).clip(0, n - 1)
        stored = matrix[i[:, None], cols]
        del cols
        stored = residues(stored, q)
        step = stored.itemsize
        a = np.lib.stride_tricks.as_strided(
            stored.reshape(m, n * (2 * w + 1))[:, w:], shape=(m, n, n),
            strides=(stored.strides[0], 2 * w * step, step))
    else:
        stored = a = residues(matrix, q)
    _balance(stored, q3, half3)
    images = [1] * m
    for k, r in enumerate(_reach(first)):
        row = a[:, k, k:r]
        _balance(row, q, half)
        pivots = row[:, 0].tolist()
        images = [d * x % p for d, x, p in zip(images, pivots, qs)]
        if k == n - 1:
            break
        if 0 in pivots:
            return None
        if r > k + 1:
            # the balanced multipliers row / pivot, every pivot a unit
            inv = np.array([pow(x, -1, p) for x, p in zip(pivots, qs)], dtype=np.int64)
            factors = row[:, 1:] * inv[:, None]
            _balance(factors, q, half)
            _update(a[:, k + 1 : r, k + 1 : r], factors, row[:, 1:])
        if (k + 1) % LAZY == 0:
            _balance(a[:, k + 1 : r, k + 1 : r], q3, half3)
    return images


def multimodular_det(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian from its images modulo the
    fewest primes whose product passes twice the diagonal product, a
    bound on |det|; by envelope Bareiss when a pivot vanishes modulo one
    of them before the last step (module docstring)."""
    n, bound = len(lap.diagonal), math.prod(lap.diagonal)
    if n == 0 or bound == 0:
        return bound  # the empty product, 1; or a row of zeros
    matrix, qs = lap.array(), primes_for_bound(bound)
    # as few stacks as STACK_ENTRIES allows, of nearly equal size, counting
    # the entries det_mod stores per image
    stored = n * min(n, 2 * _width(lap.first) + 1)
    stacks = -(-len(qs) // max(1, STACK_ENTRIES // stored))
    images = []
    for s in range(stacks):
        stack = det_mod(matrix, qs[s * len(qs) // stacks : (s + 1) * len(qs) // stacks], lap.first)
        if stack is None:
            reach = _reach(lap.first)
            return bareiss_det(lap.envelope(reach), reach)
        images += stack
    return crt(images, qs)


def det_int(lap: ReducedLaplacian) -> int:
    """Exact determinant of a reduced Laplacian: Bareiss up to
    BAREISS_WORK of envelope work per row, multi-modular above (module
    docstring)."""
    reach = _reach(lap.first)
    if _bareiss_serves(reach):
        return bareiss_det(lap.envelope(reach), reach)
    return multimodular_det(lap)
