"""Exact determinants of integer matrices.

Two engines behind one dispatcher, both exact:

* fraction-free Bareiss elimination for orders up to BAREISS_THRESHOLD;
* multi-modular for larger orders: det_mod runs one Gaussian
  elimination over a stack of images modulo word-size primes, and the
  images are recombined by CRT against a Hadamard bound (the product of
  the diagonal for a reduced Laplacian, else the row norms).

det_mod(matrix, qs) picks one of two kernels from the matrix itself:

* _det_band, for an int64 matrix that is symmetric, diagonally dominant
  and of half-bandwidth w = max(i - first nonzero column of row i) with
  2w + 1 < n: a reduced Laplacian whose rows graphs orders by a
  breadth-first search (w = 2-74 on the order 47-255 minors that the
  cover_check benchmark sends to multimodular_det, seeds 1-3, first
  round).  Such a matrix is positive semidefinite, and positive
  definite when nonsingular, so every leading principal minor is
  positive and Gaussian elimination needs no row swap modulo q unless q
  divides one of them.  Each image is stored as n rows of
  2w + 1 entries (the band) and read through one sheared (m, n, n)
  view; step k updates the square box of rows and columns k+1 ..
  reach[k]-1, reach[k] being one past the last row whose first nonzero
  lies in a column <= k.  That is envelope (profile) elimination, as in
  George and Liu, Computer Solution of Large Sparse Positive Definite
  Systems (1981), ch. 4: no fill falls outside the envelope, and the
  boxes come from the matrix's static profile, computed once.  The
  Schur complements stay symmetric, so the pivot row also serves as the
  pivot column.  An image whose pivot vanishes before the last step (q
  divides a leading minor) is recomputed alone by det_stack; one that
  vanishes at the last step has determinant 0.
* det_stack, for every other matrix: dense Gaussian elimination over a
  stack of residue matrices, each image with its own prime, pivoting
  on each image's first nonzero row.  It also serves analysis's level
  norms, which build their stacks of multiplication matrices directly
  (det_mod reduces its matrix with multimodular.residues).

multimodular_det sizes its stacks by the entries one image stores, n *
(2w + 1) in band storage or n * n dense, so that a stack holds at most
STACK_ENTRIES: the 13-14 primes of a band minor of order 255 and small
w share one elimination, where dense images go two to a stack.

Residues are balanced in (-q/2, q/2]; the pivot row (and in det_stack
the pivot column) is reduced at each step, and every LAZY steps the
trailing block, in band storage its part inside the envelope, the
current box (delayed reduction, as in Dumas, Giorgi and Pernet's
FFLAS).  A box's product is a temporary, taken in slices of rows when
the box is large, so a stack needs no stack-sized buffer.

BAREISS_THRESHOLD is the measured crossover (2-core x86-64, shared,
Python 3.11, numpy 2.4; ms, medians of repeated timings).  On breadth-
first ordered Laplacian minors of random multigraphs of mean valency 4,
most of them too wide for band storage, the two engines tie near order
32 (three runs of five timings of 12 minors per order):

    order         24    28    32    36    40    48    63    127
    Bareiss      0.8   1.3   2.0   3.0   3.8   7.1  15.8  131
    multimodular 1.4   1.5   1.9   2.4   2.6   3.4   5.5   18

On the minors of the cover_check towers (seeds 1-8, all in band storage
from order 24 on), which the band kernel serves, Bareiss still wins at
order 35 (2.3 against 2.7) and loses from order 47 on (5.5 against 2.9
at 47, 11.0 against 4.0 at 63).  Covers are what the matrix-tree check
counts, so the threshold stays at 36.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .multimodular import check_word_prime, crt, integer_array, primes_for_bound, residues

BAREISS_THRESHOLD = 36

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


def bareiss_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _balance(a: np.ndarray, q: np.ndarray, half: np.ndarray) -> None:
    """Reduce a in place to its residues in (-q/2, q/2]."""
    a += half
    np.remainder(a, q, out=a)
    a -= half


def _dominant_symmetric(a: np.ndarray) -> bool:
    """Symmetric, with each diagonal entry at least the sum of the absolute
    values of the other entries of its row (so nonnegative)?  Exact: in
    int64 while no row sum can pass 2**62, else over Python ints."""
    n = len(a)
    if not np.array_equal(a, a.T):
        return False
    if a.dtype != object and not -(1 << 62) // n < a.min() <= a.max() < (1 << 62) // n:
        a = a.astype(object)
    return bool((2 * a.diagonal() >= np.abs(a).sum(axis=1)).all())


def _band_profile(a: np.ndarray) -> np.ndarray | None:
    """first[i], the first nonzero column of row i (its diagonal when the
    row vanishes), of an int64 matrix that det_mod eliminates in band
    storage (_det_band): symmetric, diagonally dominant, and of
    half-bandwidth w = max(i - first[i]) with 2w + 1 < n.  None for any
    other matrix, which det_mod eliminates dense (det_stack)."""
    n = len(a)
    if a.dtype != np.int64 or not _dominant_symmetric(a):
        return None
    first = ((a != 0) | np.eye(n, dtype=bool)).argmax(axis=1)
    return first if 2 * _width(first) + 1 < n else None


def _width(first: np.ndarray) -> int:
    """The half-bandwidth of a band profile."""
    return int((np.arange(len(first)) - first).max())


def det_mod(matrix: np.ndarray, qs) -> list[int]:
    """Determinants of a square integer matrix (int64, or object for
    entries past int64) modulo each prime q in qs (every q < 2**30), in
    [0, q), from one elimination over the stack of images: in band
    storage without pivoting (_det_band) for a narrow symmetric dominant
    matrix such as a reduced Laplacian, else dense (det_stack)."""
    for q in qs:
        check_word_prime(q)
    first = _band_profile(matrix)
    if first is None:
        return det_stack(residues(matrix, np.array(qs, dtype=np.int64)), qs)
    return _det_band(matrix, qs, first)


def _factors(col: np.ndarray, pivots: list[int], qs, q: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The balanced multipliers col / pivot of each image; an image whose
    pivot vanished gets multipliers 0."""
    inv = [pow(x, -1, p) if x else 0 for x, p in zip(pivots, qs)]
    factors = col * np.array(inv, dtype=np.int64).reshape(-1, 1)
    _balance(factors, q, half)
    return factors


def _update(box: np.ndarray, factors: np.ndarray, pivot_row: np.ndarray) -> None:
    """box -= factors x pivot_row in every image, in slices of rows so that
    the product of a large box stays within UPDATE_ENTRIES."""
    pivot_row = pivot_row[:, None, :]
    rows = max(1, UPDATE_ENTRIES // max(1, pivot_row.size))  # no images: size 0
    for lo in range(0, box.shape[1], rows):
        box[:, lo : lo + rows] -= factors[:, lo : lo + rows, None] * pivot_row


def _det_band(matrix: np.ndarray, qs, first: np.ndarray) -> list[int]:
    """det_mod of a matrix with band profile first (_band_profile), by the
    band kernel of the module docstring: no row swaps, n x (2w + 1)
    entries per image, and step k confined to the box of rows and columns
    k + 1 .. reach[k] - 1.  An image whose pivot vanishes before the last
    step is recomputed alone by det_stack."""
    n, m, w = len(matrix), len(qs), _width(first)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    half = (q - 1) // 2
    q3, half3 = q[:, :, None], half[:, :, None]
    i = np.arange(n)
    # entry (i, j) of image k is band[k, i, j - i + w], at i * 2w + j + w
    # in the image's n (2w + 1) entries: distinct for |i - j| <= w, which
    # holds for every entry the elimination reads or writes.  The slots of
    # columns j outside 0 .. n - 1 hold copies of row i's end entries and
    # are never read.
    cols = (i[:, None] + np.arange(-w, w + 1)).clip(0, n - 1)
    band = matrix[i[:, None], cols]
    del cols
    band = residues(band, q)
    _balance(band, q3, half3)
    step = band.itemsize
    a = np.lib.stride_tricks.as_strided(
        band.reshape(m, n * (2 * w + 1))[:, w:], shape=(m, n, n), strides=(band.strides[0], 2 * w * step, step))
    # reach[k]: one past the last row whose first nonzero is at or before k
    last = [0] * n
    for r, f in enumerate(first.tolist()):
        last[f] = r
    reach = [r + 1 for r in accumulate(last, max)]
    images, vanished = [1] * m, set()
    for k, r in enumerate(reach):
        row = a[:, k, k:r]
        _balance(row, q, half)
        pivots = row[:, 0].tolist()
        images = [d * x % p for d, x, p in zip(images, pivots, qs)]
        if k == n - 1:
            break
        if 0 in pivots:
            vanished.update(j for j, x in enumerate(pivots) if x == 0)
        if r > k + 1:
            _update(a[:, k + 1 : r, k + 1 : r], _factors(row[:, 1:], pivots, qs, q, half), row[:, 1:])
        if (k + 1) % LAZY == 0:
            _balance(a[:, k + 1 : r, k + 1 : r], q3, half3)
    del a, band, row  # before the fallbacks' dense images
    for j in sorted(vanished):
        images[j] = det_stack(residues(matrix, q[j]), qs[j : j + 1])[0]
    return images


def det_stack(a: np.ndarray, qs) -> list[int]:
    """Determinants of the images a[k] modulo qs[k], in [0, q), from one
    dense Gaussian elimination over the stack; a is an int64 (len(qs), n,
    n) array of residues, |a| < q < 2**30, overwritten.  Each image pivots
    on its own first nonzero row; an image whose column vanishes has
    determinant 0."""
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    half = (q - 1) // 2
    q3, half3 = q[:, :, None], half[:, :, None]
    n = a.shape[1]
    _balance(a, q3, half3)
    images = [1] * len(qs)
    for k in range(n):
        # column k below the diagonal is read only at this step, so its
        # residues go to a temporary
        col = a[:, k:, k] % q
        pivots = col[:, 0].tolist()
        if 0 in pivots:
            first = (col != 0).argmax(axis=1)
            idx = np.flatnonzero(first)
            piv = k + first[idx]
            rows_k = a[idx, k, k:]
            a[idx, k, k:] = a[idx, piv, k:]
            a[idx, piv, k:] = rows_k
            col[idx, 0] = col[idx, first[idx]]
            col[idx, first[idx]] = 0
            for i in idx.tolist():
                images[i] = -images[i]
            pivots = col[:, 0].tolist()
        images = [d * x % p for d, x, p in zip(images, pivots, qs)]
        if k == n - 1:
            break
        row = a[:, k, k + 1 :]
        _balance(row, q, half)
        _update(a[:, k + 1 :, k + 1 :], _factors(col[:, 1:], pivots, qs, q, half), row)
        if (k + 1) % LAZY == 0:
            _balance(a[:, k + 1 :, k + 1 :], q3, half3)
    return images


def hadamard_bound_bits(rows) -> int:
    """Bits of a Hadamard bound |det| < 2**bits for a square matrix (lists
    of rows, or an integer_array); 0 when a row vanishes,
    since then det = 0.  A symmetric matrix whose diagonal dominates its
    rows, such as a reduced Laplacian, is positive semidefinite, so
    |det| <= the product of its diagonal, never more than the row-norm
    bound.  Any other matrix has |det| <= sqrt(P), where P is the exact
    product of the squared row norms."""
    a = integer_array(rows)
    prod = 1
    if _dominant_symmetric(a):
        for x in a.diagonal().tolist():
            prod *= x
        return prod.bit_length()
    for row in a.tolist():
        prod *= sum(x * x for x in row)
    if prod == 0:
        return 0
    return (prod.bit_length() + 1) // 2


def multimodular_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    matrix = integer_array(rows)
    bound_bits = hadamard_bound_bits(matrix)
    if bound_bits == 0:
        return 0
    qs = primes_for_bound(1 << bound_bits)
    # as few stacks as STACK_ENTRIES allows, of nearly equal size, counting
    # the entries det_mod stores per image: n (2w + 1) in band storage
    first = _band_profile(matrix)
    stored = n * n if first is None else n * (2 * _width(first) + 1)
    stacks = -(-len(qs) // max(1, STACK_ENTRIES // stored))
    images = []
    for s in range(stacks):
        images += det_mod(matrix, qs[s * len(qs) // stacks : (s + 1) * len(qs) // stacks])
    return crt(images, qs)


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant; dispatches on size."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n <= BAREISS_THRESHOLD:
        return bareiss_det(rows)
    return multimodular_det(rows)
