"""Dense integer polynomials: cyclotomics, resultants, mod-p reductions.

Coefficients are arbitrary-precision integers stored lowest degree
first; the zero polynomial is the empty tuple.  Division by a monic
polynomial (divmod_by_monic) stays inside Z[T]; it is the one division
behind Phi_d, which comes from one recursion on the least prime of d
down to Phi_1 = T - 1, and behind omega.strip_cyclotomics.  Resultants
are computed by the subresultant polynomial remainder sequence
(fraction-free, exact; no floating point anywhere).  Level norms do not
go through it: analysis.level_norm computes them (Graeffe root-powering
for integral towers, evaluation modulo word primes for ell-adic ones),
and Tower.level_norm uses resultant only to cross-check that engine at
the matrix-tree-checked levels.  real_form rewrites a polynomial in
y = T + q/T, the variable of the real subfield for q = 1.
Reductions mod p use numpy int64 arrays, which is safe for p below
2**30.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .factorint import is_probable_prime, perfect_power


class ZeroPolynomialError(ValueError):
    """Operation undefined for the zero polynomial."""


def _strip(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(int(x) for x in c)


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]  # ascending, no trailing zeros

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @classmethod
    def from_pairs(cls, pairs) -> "IntPoly":
        """Build from (exponent, coefficient) pairs."""
        pairs = list(pairs)
        if not pairs:
            return cls(())
        out = [0] * (max(e for e, _ in pairs) + 1)
        for e, c in pairs:
            out[e] += c
        return cls(tuple(out))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def scale(self, k: int) -> "IntPoly":
        if k == 0:
            return IntPoly(())
        return IntPoly(tuple(k * c for c in self.coeffs))

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        c = self.content()
        if c <= 1:
            return self
        return IntPoly(tuple(x // c for x in self.coeffs))

    def divmod_by_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Division by a monic divisor; stays inside Z[T]."""
        if divisor.is_zero or divisor.leading != 1:
            raise ValueError("divisor must be monic")
        r = list(self.coeffs)
        d = divisor.degree
        if d == 0:
            return self, IntPoly(())
        q = [0] * max(len(r) - d, 0)
        terms = [(i, c) for i, c in enumerate(divisor.coeffs[:d]) if c]
        for k in range(len(r) - d - 1, -1, -1):
            top = r[d + k]
            if top:
                q[k] = top
                for i, c in terms:
                    r[k + i] -= top * c
        return IntPoly(tuple(q)), IntPoly(tuple(r[:d]))

    def exact_div_monic(self, divisor: "IntPoly") -> "IntPoly":
        q, r = self.divmod_by_monic(divisor)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def mod_array(self, p: int) -> np.ndarray:
        """Coefficients mod p as an int64 array (ascending, unstripped)."""
        return np.array([c % p for c in self.coeffs], dtype=np.int64)

    def degree_mod(self, p: int) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] % p:
                return i
        return -1

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                mono = "T" if e == 1 else f"T^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, monic of degree phi(d).

    Phi_1 = T - 1; for d = p m with p the least prime of d,
    Phi_d(T) = Phi_m(T^p) when p divides m, else Phi_m(T^p) / Phi_m(T).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return IntPoly((-1, 1))
    p = _smallest_prime_factor(d)
    m = d // p
    inner = cyclotomic(m)
    coeffs = [0] * (inner.degree * p + 1)
    coeffs[::p] = inner.coeffs
    lifted = IntPoly(tuple(coeffs))  # Phi_m(T^p)
    return lifted if m % p == 0 else lifted.exact_div_monic(inner)


def cyclotomic_value(d: int, a: int) -> int:
    """Phi_d(a) for an integer a >= 2 (every Phi_m(a) > 0), by the
    recursion of cyclotomic on values, building no Phi_d."""
    if d == 1:
        return a - 1
    p = _smallest_prime_factor(d)
    m = d // p
    lifted = cyclotomic_value(m, a**p)
    return lifted if m % p == 0 else lifted // cyclotomic_value(m, a)


def _dickson_coefficients(q: int = 1) -> Iterator[list[int]]:
    """D_0, D_1, ... as coefficient lists, D_e(T + q/T) = T^e + q^e T^-e:
    D_0 = 2, D_1 = x and D_(e+1) = x D_e - q D_(e-1)."""
    prev, cur = [2], [0, 1]
    yield prev
    while True:
        yield cur
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= q * c
        prev, cur = cur, nxt


def real_form(u: IntPoly, q: int = 1) -> IntPoly:
    """V with U(T) = T^b V(T + q/T), for U of degree 2b with u_(b-e) =
    q^e u_(b+e) (palindromic for q = 1): T^-b U = u_b + sum_(e >= 1)
    u_(b+e) (T^e + q^e T^-e), so V = u_b + sum u_(b+e) D_e, of degree b
    with lc(U).  real_form(Phi_m) is Psi_m, the minimal polynomial of
    zeta_m + 1/zeta_m, for m > 2."""
    b = u.degree // 2
    v = [0] * (b + 1)
    v[0] = u.coeffs[b]
    for e, d in zip(range(1, b + 1), islice(_dickson_coefficients(q), 1, None)):
        c = u.coeffs[b + e]
        for k, x in enumerate(d):
            v[k] += c * x
    return IntPoly(tuple(v))


def _smallest_prime_factor(n: int) -> int:
    """The least prime factor of n >= 2.  A prime, or a power of one (the
    orders ell^i of the level cyclotomics), is recognised before trial
    division, which would take sqrt(ell) steps on a large prime ell."""
    if n % 2 == 0:
        return 2
    power = perfect_power(n)
    root = power[0] if power else n
    if is_probable_prime(root):
        return root
    q = 3
    while q * q <= n:
        if n % q == 0:
            return q
        q += 2
    return n


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """rem(lc(b)^(deg a - deg b + 1) * a, b) over Z, list coefficients."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lead
        if top:
            for i in range(db + 1):
                r[k + i] -= top * b[i]
        r.pop()  # position db + k is now zero
    while r and r[-1] == 0:
        r.pop()
    return r


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("subresultant bookkeeping produced an inexact division")
    return q


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b), exact, via the subresultant remainder sequence.

    Multiplicative in each argument; Res(a, b) = prod of b over the
    roots of a when a is monic.
    """
    if a.is_zero or b.is_zero:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    ca, cb = a.content(), b.content()
    pa, pb = list(a.primitive_part().coeffs), list(b.primitive_part().coeffs)
    da, db = len(pa) - 1, len(pb) - 1
    sign = 1
    if da < db:
        if da % 2 and db % 2:
            sign = -sign
        pa, pb, da, db = pb, pa, db, da
        ca, cb = cb, ca
    t = ca**db * cb**da
    if db == 0:
        return sign * t * pb[0] ** da

    g = h = 1
    while True:
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        rem = _pseudo_rem(pa, pb)
        if not rem:
            return 0  # nonconstant common factor
        denom = g * h**delta
        pa, da = pb, db
        pb = [_exact_div(x, denom) for x in rem]
        db = len(pb) - 1
        g = pa[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_div(g**delta, h ** (delta - 1))
        if db == 0:
            res = pb[0] ** da if da <= 1 else _exact_div(pb[0] ** da, h ** (da - 1))
            return sign * t * res


# ---------------------------------------------------------------------------
# polynomials over F_p (numpy int64; p < 2**30)
# ---------------------------------------------------------------------------

def _strip_mod(arr: np.ndarray) -> np.ndarray:
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return arr[:0]
    return arr[: int(nz[-1]) + 1]


def poly_mod_rem(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod b over F_p; arrays ascending, b nonzero."""
    a = _strip_mod(np.mod(a, p))
    b = _strip_mod(np.mod(b, p))
    if b.size == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.size - 1
    if db == 0:
        return a[:0]
    inv = pow(int(b[-1]), -1, p)
    r = a.copy()
    for k in range(r.size - 1 - db, -1, -1):
        top = int(r[db + k]) * inv % p
        if top:
            r[k : k + db + 1] = (r[k : k + db + 1] - top * b) % p
    return _strip_mod(r[:db])


def poly_mod_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd over F_p."""
    a = _strip_mod(np.mod(a, p))
    b = _strip_mod(np.mod(b, p))
    while b.size:
        a, b = b, poly_mod_rem(a, b, p)
    if a.size:
        a = a * pow(int(a[-1]), -1, p) % p
    return a
