"""Word-size primes and Chinese remaindering for the multi-modular engines.

Two engines compute an exact integer from its images modulo many
primes: intdet's determinant of reduced Laplacians and the level
norm of ell-adic towers with ell >= 5 in analysis (integral towers, and
every tower with ell = 2 or 3, take theirs over Z by Graeffe steps, and
draw no prime).  Both work in numpy int64,
which is exact while every residue is below WORD_LIMIT = 2**30: a
product of two residues stays below 2**60, and a sum of up to 2**33
reduced products below 2**63.

primes(count, modulus) hands out the largest primes q < PRIME_CEILING
with q = 1 (mod modulus), in decreasing order; the pool of each modulus
is built on first use and then grown on demand, never at import.  The
determinants draw on the pool of modulus 1, every prime below the
ceiling; the level norms of ell-adic towers with ell >= 5, which need
the ell^i-th roots of unity in F_q, draw on the pools of q = 1 (mod
ell^i).  Those pools run out at deep levels (at 5^7 for the radicands
11 and 19), and PrimePoolExhaustedError then says how many primes were
needed and how many exist.  crt
recombines the images into the symmetric representative, so signs are
recovered as long as the primes' product exceeds twice the absolute
value (primes_for_bound picks that many).

residues(values, q) is both engines' one reduction of an array of
integers modulo each prime of a block.  A reduced Laplacian is an int64
array; the coefficients of an ell-adic level norm may lie past int64,
and stay exact there (integer_array), so neither engine has an overflow
path of its own.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .factorint import is_certified_prime

WORD_LIMIT = 1 << 30
PRIME_CEILING = WORD_LIMIT

_pools: dict[tuple[int, int], list[int]] = {}
_pool_lock = threading.Lock()


class PrimePoolExhaustedError(ArithmeticError):
    """Too few primes q = 1 (mod modulus) below the ceiling for the
    requested bound; no value is returned.  A stated limit of the
    ell-adic level norms for ell >= 5, which the CLI reports as a domain
    failure (exit 1), not as a fault of the tool."""


def check_word_prime(q: int) -> None:
    """Refuse a modulus outside the range where int64 arithmetic is exact."""
    if not 2 <= q < WORD_LIMIT:
        raise ValueError(f"modulus {q} is outside the int64-safe range [2, 2**30)")


def integer_array(values) -> np.ndarray:
    """values as an int64 array, or as an object array of Python ints
    when some entry lies past int64 (where numpy would pick uint64 or
    float64)."""
    a = np.asarray(values)
    return a if a.dtype in (np.int64, object) else np.array(values, dtype=object)


def residues(values, q: np.ndarray) -> np.ndarray:
    """The integers values modulo each prime of q (an int64 array, flat
    or a column), as an int64 array of shape (len(q), *np.shape(values))
    with entries in [0, q)."""
    a = integer_array(values)
    return (a % q.reshape(-1, *(1,) * a.ndim)).astype(np.int64, copy=False)


def primes(count: int, modulus: int = 1) -> list[int]:
    """The count largest odd primes q < PRIME_CEILING with q = 1 (mod
    modulus), in decreasing order.  A prime that is 1 mod ell^j is also
    1 mod every lower power of ell, but each modulus keeps its own pool
    so that every level gets the largest primes available to it."""
    ceiling = PRIME_CEILING
    # odd q = 1 (mod modulus) is q = 1 (mod lcm(2, modulus))
    step = modulus if modulus % 2 == 0 else 2 * modulus
    with _pool_lock:
        pool = _pools.setdefault((ceiling, modulus), [])
        q = pool[-1] if pool else ceiling - 1 - (ceiling - 2) % step + step
        while len(pool) < count:
            q -= step
            if q < 3:
                raise PrimePoolExhaustedError(
                    f"only {len(pool)} primes = 1 (mod {modulus}) below {ceiling}, "
                    f"{count} needed"
                )
            if is_certified_prime(q):
                pool.append(q)
        return pool[:count]


def primes_for_bound(bound: int, modulus: int = 1) -> list[int]:
    """The fewest leading primes of the modulus's pool whose product
    exceeds 2 * bound: enough for crt to recover any integer of absolute
    value at most bound."""
    target = 2 * bound
    # every prime is below 2**30, so fewer than bit_length // 30 of them
    # fall short of target: the walk starts with that many
    qs = primes(target.bit_length() // 30, modulus)
    prod = math.prod(qs)
    while prod <= target:
        qs = primes(len(qs) + 1, modulus)
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
