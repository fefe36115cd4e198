"""Root levels of an integral tower over F_p by a ladder of powers of T.

Write U = T^b f for the determinant polynomial f of an integral voltage
assignment, and let p != ell be prime.  Level i of the tower has a root
mod p when U mod p vanishes at a primitive ell^i-th root of unity over
F_p.  T^(ell^i) - 1 is separable mod p, so deg gcd(U, T^(ell^i) - 1)
over F_p counts the distinct ell^i-th roots of unity among U's roots,
and level i has a root exactly when that degree exceeds the one at
level i - 1.

The ladder walks S_i = T^(ell^i) mod (U, p) as S_(i-1)^ell, and
gcd(U, T^(ell^i) - 1) = gcd(U, S_i - 1).  A level costs O(log ell)
products of degree below deg(U mod p) and one gcd of that degree: no
cyclotomic polynomial Phi_(ell^i) is built, so the level and ell may be
as large as the caller likes.  Everything is exact, in Python integers,
for every p.

Polynomials over F_p are lists of coefficients in [0, p), lowest degree
first, with no trailing zeros; the zero polynomial is the empty list.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


def root_levels(u: Sequence[int], p: int, ell: int, levels: range) -> tuple[int, ...]:
    """The levels i in `levels` (all >= 1) at which the integer
    polynomial u (its coefficients, lowest degree first) mod p vanishes
    at a primitive ell^i-th root of unity over F_p, for a prime p !=
    ell.  An empty range, or u constant mod p, gives none; u = 0 mod p
    raises ValueError, as every level would be a root level."""
    if p == ell:
        raise ValueError("the ladder needs p != ell, where T^(ell^i) - 1 is separable mod p")
    modulus = _trim(u, p)
    if not modulus:
        raise ValueError(f"the polynomial vanishes mod {p}")
    if len(modulus) < 2 or not levels:
        return ()
    found, before = [], 0
    for i, s in zip(range(levels.stop), ladder(modulus, p, ell)):
        ones = _gcd_degree(modulus, _sub_one(s, p), p)
        if i in levels and ones > before:
            found.append(i)
        before = ones
    return tuple(found)


def ladder(u: list[int], p: int, ell: int) -> Iterator[list[int]]:
    """S_0, S_1, ...: S_i = T^(ell^i) mod (u, p), for u over F_p of
    degree >= 1."""
    s = _rem([0, 1], u, p)
    while True:
        yield s
        s = _pow_mod(s, ell, u, p)


def _trim(coeffs, p: int) -> list[int]:
    c = [x % p for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return c


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, b nonzero with its top coefficient a unit."""
    r, d = list(a), len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(r) - 1, d - 1, -1):
        top = r[k] * inv % p
        if top:
            for j in range(d):
                r[k - d + j] -= top * b[j]
    return _trim(r[:d], p)


def _mul_mod(a: list[int], b: list[int], u: list[int], p: int) -> list[int]:
    """a b mod (u, p)."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _rem(prod, u, p)


def _pow_mod(a: list[int], e: int, u: list[int], p: int) -> list[int]:
    """a^e mod (u, p), e >= 1, by squaring from the top bit of e."""
    out = a
    for bit in bin(e)[3:]:
        out = _mul_mod(out, out, u, p)
        if bit == "1":
            out = _mul_mod(out, a, u, p)
    return out


def _sub_one(a: list[int], p: int) -> list[int]:
    return _trim([(a[0] if a else 0) - 1, *a[1:]], p)


def _gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """deg gcd(a, b) over F_p, for a nonzero a; gcd(a, 0) = a."""
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) - 1
