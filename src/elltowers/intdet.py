"""Exact determinants of integer matrices.

Two engines behind one dispatcher, both exact:

* fraction-free Bareiss elimination for orders up to BAREISS_THRESHOLD;
* multi-modular for larger orders: det_mod runs one Gaussian
  elimination over a stack of images modulo word-size primes, with
  residues balanced in (-q/2, q/2], only the pivot column and row
  reduced at each step and the trailing block reduced every LAZY rank-1
  updates (delayed reduction, as in Dumas, Giorgi and Pernet's FFLAS);
  the images are recombined by CRT against the Hadamard bound.

BAREISS_THRESHOLD is the measured crossover on Laplacian minors of
random multigraphs of mean valency 4 (2-core x86-64, Python 3.11, numpy
2.4): Bareiss against the stacks takes 1.7 against 2.1 ms at order 31,
2.6 against 2.5 ms at 35, 15 against 7.6 ms at 63 and 153 against 55 ms
at 127.
"""

from __future__ import annotations

import numpy as np

from .multimodular import check_word_prime, crt, primes_for_bound

BAREISS_THRESHOLD = 32

# Balanced residues have |r| <= q/2 < 2**29 for q < 2**30, so one rank-1
# update adds at most (q/2)**2 < 2**58 to an entry.  An entry reduced
# LAZY updates ago is at most q/2 + LAZY * (q/2)**2, below 2**63 while
# LAZY <= 31 (2**29 + 31 * 2**58 < 32 * 2**58); balancing it adds q/2
# once more, still below 2**63.
LAZY = 31

# det_mod stacks hold at most this many entries (one 256 x 256 image),
# so that the stack and its update buffer stay small.
STACK_ENTRIES = 1 << 16


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


def det_mod(matrix: np.ndarray, qs) -> list[int]:
    """Determinants of a square integer matrix (int64, or object for
    entries past int64) modulo each prime q in qs (every q < 2**30), in
    [0, q), from one elimination over the stack of images.  Each image
    pivots on its own first nonzero row; an image whose column vanishes
    has determinant 0."""
    for q in qs:
        check_word_prime(q)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1, 1)
    half = (q - 1) // 2
    n = matrix.shape[0]
    a = np.empty((len(qs), n, n), dtype=np.int64)
    for image, p in zip(a, qs):
        image[...] = matrix % p
    _balance(a, q, half)
    images, buf = np.ones_like(q), np.empty_like(a)
    for k in range(n):
        col = a[:, k:, k : k + 1]
        _balance(col, q, half)
        first = (col[:, :, 0] != 0).argmax(axis=1)
        if first.any():
            idx = np.flatnonzero(first)
            piv = k + first[idx]
            rows_k = a[idx, k, k:]
            a[idx, k, k:] = a[idx, piv, k:]
            a[idx, piv, k:] = rows_k
            images[idx] *= -1
        pivots = a[:, k : k + 1, k : k + 1]
        images = images * pivots % q
        if k == n - 1:
            break
        row = a[:, k : k + 1, k + 1 :]
        _balance(row, q, half)
        # a vanished image (pivot 0) gets multipliers 0; its image is 0 already
        inv = [pow(x, -1, p) if x else 0 for x, p in zip(pivots.ravel().tolist(), qs)]
        factors = a[:, k + 1 :, k : k + 1] * np.array(inv, dtype=np.int64).reshape(-1, 1, 1)
        _balance(factors, q, half)
        update = buf[:, k + 1 :, k + 1 :]
        np.multiply(factors, row, out=update)
        trailing = a[:, k + 1 :, k + 1 :]
        trailing -= update
        if (k + 1) % LAZY == 0:
            _balance(trailing, q, half)
    return [int(d) for d in images.ravel()]


def hadamard_bound_bits(rows: list[list[int]]) -> int:
    """Bits of the Hadamard bound: |det| <= sqrt(P) < 2**bits, where P is
    the exact product of the squared row norms; 0 when a row vanishes,
    since then det = 0."""
    prod = 1
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
    try:
        matrix = np.array(rows, dtype=np.int64)
    except OverflowError:
        matrix = np.array(rows, dtype=object)
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
