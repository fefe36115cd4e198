"""Exact determinants of integer matrices.

Two engines behind one dispatcher, both exact:

* fraction-free Bareiss elimination for orders up to BAREISS_THRESHOLD;
* multi-modular for larger orders: det_mod runs one Gaussian
  elimination over a stack of images modulo word-size primes, and the
  images are recombined by CRT against a Hadamard bound (the product of
  the diagonal for a reduced Laplacian, else the row norms).

The elimination itself is det_stack, which takes a stack of residue
matrices, each image with its own prime: det_mod reduces one integer
matrix modulo a list of primes into such a stack (multimodular.residues,
which also serves the level norms), and analysis's level
norm builds its stacks of multiplication matrices directly.

det_stack is envelope (profile) elimination, as in George and Liu,
Computer Solution of Large Sparse Positive Definite Systems (1981),
ch. 4: step k updates only the box of rows k+1 .. r-1 and columns
k+1 .. c-1, where r - 1 is the last row with a nonzero in column k and
c - 1 the last column with a nonzero in row k, in any image.  A dense
matrix still gets its whole trailing block.  The envelope is narrow when
the rows are ordered by a breadth-first search, as graphs orders the
Laplacian: on the Laplacian minors of order 35-255 that the cover_check
benchmark checks (seeds 1-2, first round), the boxes hold 5.4% of the
entries a dense elimination touches.

Residues are balanced in (-q/2, q/2]; the pivot column and row are
reduced at each step, and every LAZY steps the union of the boxes
updated since the last reduction (delayed reduction, as in Dumas, Giorgi
and Pernet's FFLAS).  A box's product is a temporary, taken in slices
of rows when the box is large, so a stack needs no stack-sized buffer.

BAREISS_THRESHOLD is the measured crossover on breadth-first ordered
Laplacian minors of random multigraphs of mean valency 4 (2-core x86-64,
Python 3.11, numpy 2.4; ms, medians of repeated timings of 8-16 minors
per order):

    order         24    28    32    36    40    48    63    127
    Bareiss      0.6   1.0   1.5   2.1   2.9   5.4  11.7  102
    multimodular 1.1   1.5   1.7   2.1   2.4   3.2   4.5   17
"""

from __future__ import annotations

import numpy as np

from .multimodular import check_word_prime, crt, integer_array, primes_for_bound, residues

BAREISS_THRESHOLD = 36

# Balanced residues have |r| <= q/2 < 2**29 for q < 2**30, so one rank-1
# update adds at most (q/2)**2 < 2**58 to an entry.  An entry reduced
# LAZY updates ago is at most q/2 + LAZY * (q/2)**2, below 2**63 while
# LAZY <= 31 (2**29 + 31 * 2**58 < 32 * 2**58); balancing it adds q/2
# once more, still below 2**63.
LAZY = 31

# det_mod stacks hold at most STACK_ENTRIES entries (two 256 x 256
# images) and the product of one box update at most UPDATE_ENTRIES, so a
# stack and its per-step temporaries take about 1.25 MiB.  Larger stacks
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


def _last_nonzero(mask: np.ndarray) -> int:
    """One past the last index where mask holds; 0 when it holds nowhere."""
    hits = mask.nonzero()[0]
    return int(hits[-1]) + 1 if len(hits) else 0


def det_mod(matrix: np.ndarray, qs) -> list[int]:
    """Determinants of a square integer matrix (int64, or object for
    entries past int64) modulo each prime q in qs (every q < 2**30), in
    [0, q), from one elimination over the stack of images (det_stack)."""
    for q in qs:
        check_word_prime(q)
    return det_stack(residues(matrix, np.array(qs, dtype=np.int64)), qs)


def det_stack(a: np.ndarray, qs) -> list[int]:
    """Determinants of the images a[k] modulo qs[k], in [0, q), from one
    elimination over the stack; a is an int64 (len(qs), n, n) array of
    residues, |a| < q < 2**30, overwritten.  Each image pivots on its own
    first nonzero row; an image whose column vanishes has determinant 0.
    Step k updates only the box of rows below k down to the last nonzero
    of column k, and columns right of k up to the last nonzero of row k,
    in any image."""
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    half = (q - 1) // 2
    q3, half3 = q[:, :, None], half[:, :, None]
    n = a.shape[1]
    _balance(a, q3, half3)
    images = [1] * len(qs)
    # the union of the boxes updated since the last reduction lies in
    # rows [k + 1, bottom) and columns [k + 1, right)
    bottom = right = 0
    for k in range(n):
        # column k below the diagonal is read only at this step, so its
        # residues go to a temporary
        col = a[:, k:, k] % q
        nonzero = col != 0
        # taken before the swaps, so that the row an image swaps down
        # (and the updates it carries) stays inside the box
        r = k + _last_nonzero(nonzero.any(axis=0))
        pivots = col[:, 0].tolist()
        if 0 in pivots:
            first = nonzero.argmax(axis=1)
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
        c = k + 1 + _last_nonzero((row != 0).any(axis=0))
        if r > k + 1 and c > k + 1:
            # a vanished image (pivot 0) gets multipliers 0; its image is 0 already
            inv = [pow(x, -1, p) if x else 0 for x, p in zip(pivots, qs)]
            factors = col[:, 1 : r - k] * np.array(inv, dtype=np.int64).reshape(-1, 1)
            _balance(factors, q, half)
            # in slices of rows, so that the product of a large box (a
            # dense matrix) stays within UPDATE_ENTRIES
            box, pivot_row = a[:, k + 1 : r, k + 1 : c], row[:, None, : c - k - 1]
            rows = max(1, UPDATE_ENTRIES // pivot_row.size)
            for lo in range(0, r - k - 1, rows):
                box[:, lo : lo + rows] -= factors[:, lo : lo + rows, None] * pivot_row
            bottom, right = max(bottom, r), max(right, c)
        if (k + 1) % LAZY == 0:
            _balance(a[:, k + 1 : bottom, k + 1 : right], q3, half3)
            bottom = right = 0
    return images


def _dominant_symmetric(rows: list[list[int]]) -> bool:
    """Symmetric, with each diagonal entry at least the sum of the absolute
    values of the other entries of its row (so nonnegative)?"""
    return (all(2 * row[i] >= sum(map(abs, row)) for i, row in enumerate(rows))
            and all(col == tuple(row) for row, col in zip(rows, zip(*rows))))


def hadamard_bound_bits(rows: list[list[int]]) -> int:
    """Bits of a Hadamard bound |det| < 2**bits; 0 when a row vanishes,
    since then det = 0.  A symmetric matrix whose diagonal dominates its
    rows, such as a reduced Laplacian, is positive semidefinite, so
    |det| <= the product of its diagonal, never more than the row-norm
    bound.  Any other matrix has |det| <= sqrt(P), where P is the exact
    product of the squared row norms."""
    prod = 1
    if _dominant_symmetric(rows):
        for i, row in enumerate(rows):
            prod *= row[i]
        return prod.bit_length()
    for row in rows:
        prod *= sum(x * x for x in row)
    if prod == 0:
        return 0
    return (prod.bit_length() + 1) // 2


def multimodular_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    bound_bits = hadamard_bound_bits(rows)
    if bound_bits == 0:
        return 0
    qs = primes_for_bound(1 << bound_bits)
    matrix = integer_array(rows)
    # as few stacks as STACK_ENTRIES allows, of nearly equal size
    stacks = -(-len(qs) // max(1, STACK_ENTRIES // (n * n)))
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
