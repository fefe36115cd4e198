"""Word-size primes and Chinese remaindering for intdet's multi-modular
determinant of reduced Laplacians.

The images are computed in numpy int64, which is exact while every
residue is below WORD_LIMIT = 2**30: a product of two residues stays
below 2**60, and a sum of up to 2**33 reduced products below 2**63.

primes(count) hands out the largest primes q < WORD_LIMIT, in
decreasing order, from one pool that is built on first use and then
grown on demand, never at import.  crt recombines the images into the
symmetric representative, so signs are recovered as long as the
primes' product exceeds twice the absolute value (primes_for_bound
picks that many).  residues(values, q) reduces an int64 array modulo
each prime of a block.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .factorint import is_certified_prime

WORD_LIMIT = 1 << 30

_pool: list[int] = []
_pool_lock = threading.Lock()


def check_word_prime(q: int) -> None:
    """Refuse a modulus outside the range where int64 arithmetic is exact."""
    if not 2 <= q < WORD_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-safe range [2, 2**30)")


def residues(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The int64 array values modulo each prime of q (an int64 array, flat
    or a column), as an int64 array of shape (len(q), *values.shape) with
    entries in [0, q)."""
    return values % q.reshape(-1, *(1,) * values.ndim)


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


def crt(residues, moduli) -> int:
    """The x with |x| < prod(moduli) / 2 and x = residues[k] mod moduli[k]
    (Garner's incremental form; the moduli are distinct primes)."""
    x, prod = 0, 1
    for r, q in zip(residues, moduli, strict=True):
        t = (r - x % q) * pow(prod % q, -1, q) % q
        x += prod * t
        prod *= q
    return x - prod if x > prod // 2 else x
