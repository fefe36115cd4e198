"""Exact determinants of integer matrices.

Two engines behind one dispatcher:

* fraction-free Bareiss elimination (exact in Z, cubic with growing
  entries) for matrices up to BAREISS_THRESHOLD;
* multi-modular: the determinant mod many word-size primes via vectorized
  Gaussian elimination, recombined by remaindering against a Hadamard
  bound, for everything larger (primes and CRT from multimodular).
  Level-4 covers need minors in the 600s with results hundreds of
  digits long, far past where Bareiss is usable.

Both paths are exact; the threshold only trades constant factors.
"""

from __future__ import annotations

import numpy as np

from .multimodular import check_word_prime, crt, primes_for_bound

BAREISS_THRESHOLD = 120


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


def det_mod(matrix: np.ndarray, p: int) -> int:
    """Determinant of an int64 matrix mod p (p < 2**30)."""
    check_word_prime(p)
    a = np.mod(matrix, p).astype(np.int64)
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det % p
        pivot = int(a[k, k])
        det = det * pivot % p
        if k + 1 < n:
            inv = pow(pivot, -1, p)
            factors = a[k + 1 :, k] * inv % p
            a[k + 1 :, k:] = (a[k + 1 :, k:] - np.outer(factors, a[k, k:])) % p
    return det


def hadamard_bound_bits(rows: list[list[int]]) -> int:
    """Bits of the Hadamard bound prod_i ||row_i||_2 on |det|.

    Uses bit_length as a safe upper estimate of log2, so the bound is
    never undershot even for entries past float range.
    """
    bits = 0.0
    for row in rows:
        s = sum(x * x for x in row)
        if s == 0:
            return 0
        bits += s.bit_length() / 2
    return int(bits) + 2


def multimodular_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    bound_bits = hadamard_bound_bits(rows)
    if bound_bits == 0:
        return 0
    qs = primes_for_bound(1 << bound_bits)
    images = [det_mod(np.array([[x % q for x in row] for row in rows], dtype=np.int64), q)
              for q in qs]
    return crt(images, qs)


def det_int(rows: list[list[int]], bareiss_threshold: int | None = None) -> int:
    """Exact determinant; dispatches on size."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    limit = BAREISS_THRESHOLD if bareiss_threshold is None else bareiss_threshold
    if n <= limit:
        return bareiss_det(rows)
    return multimodular_det(rows)
