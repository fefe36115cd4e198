"""Polynomials with integer coefficients and ell-adic exponents.

An element sum_a c_a * T^a with a ranging over Z_ell is represented at
working precision N by its exponent residues in [0, ell**N); exponent
arithmetic is addition mod ell**N.  Evaluation at an ell^n-th root of
unity (n <= N) only sees exponents mod ell^n, so this truncation is
faithful for everything computed here.

A tower has one ring: every GenPoly of a run is built at the voltage
assignment's ell and precision, from integer exponent residues, and sum
and product refuse operands of another ring instead of re-aligning them.

Whether an exponent "is an integer" is a declaration carried over from
the input voltages, never inferred from a residue: a truncated ell-adic
number with small digits is still not an integer.  Only declared-integral
polynomials can be lifted to honest Laurent polynomials (integerize).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .factorint import ord_p
from .graphs import VoltageAssignment
from .intpoly import IntPoly, ZeroPolynomialError
from .padics import PrecisionError


class NonIntegralExponentError(ValueError):
    """Integer-polynomial view requested for declared ell-adic exponents."""


@dataclass(frozen=True)
class GenPoly:
    ell: int
    precision: int
    terms: tuple[tuple[int, int], ...]  # (exponent residue, coefficient), sorted
    integral: bool = False

    def __post_init__(self):
        mod = self.modulus
        acc: dict[int, int] = {}
        for e, c in self.terms:
            if c:
                key = e % mod
                acc[key] = acc.get(key, 0) + c
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in acc.items() if c))
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ell: int, precision: int, integral: bool = True) -> "GenPoly":
        return cls(ell, precision, (), integral)

    @classmethod
    def constant(cls, ell: int, precision: int, c: int, integral: bool = True) -> "GenPoly":
        return cls(ell, precision, ((0, c),), integral)

    @classmethod
    def monomial(cls, ell: int, precision: int, exponent: int, coeff: int = 1,
                 integral: bool = False) -> "GenPoly":
        return cls(ell, precision, ((exponent, coeff),), integral)

    # -- structure ----------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.ell**self.precision

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> list[int]:
        return [c for _, c in self.terms]

    def _ring(self, other: "GenPoly") -> int:
        """The shared exponent modulus; refuses an operand of another ring."""
        if (self.ell, self.precision) != (other.ell, other.precision):
            raise ValueError("GenPoly operands of different rings")
        return self.modulus

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "GenPoly") -> "GenPoly":
        self._ring(other)
        return GenPoly(self.ell, self.precision, self.terms + other.terms,
                       self.integral and other.integral)

    def __neg__(self) -> "GenPoly":
        return GenPoly(self.ell, self.precision,
                       tuple((e, -c) for e, c in self.terms), self.integral)

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        mod = self._ring(other)
        acc: dict[int, int] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = (ea + eb) % mod
                acc[e] = acc.get(e, 0) + ca * cb
        return GenPoly(self.ell, self.precision, tuple(acc.items()),
                       self.integral and other.integral)

    def divide_coefficients(self, k: int) -> "GenPoly":
        if any(c % k for _, c in self.terms):
            raise ValueError(f"{k} does not divide every coefficient")
        return GenPoly(self.ell, self.precision,
                       tuple((e, c // k) for e, c in self.terms), self.integral)

    # -- lifting and reduction ----------------------------------------------

    def lift_exponent(self, e: int) -> int:
        """Signed integer exponent from its residue, by minimal absolute
        value.  Requires the declared-integral flag, and refuses lifts in
        the outer half of the safe range (wraparound risk)."""
        if not self.integral:
            raise NonIntegralExponentError("exponents were not declared integral")
        mod = self.modulus
        lifted = e if e <= mod // 2 else e - mod
        if abs(lifted) > mod // 4:
            raise PrecisionError("exponent too close to the truncation modulus to lift")
        return lifted

    def reduce_level(self, n: int) -> IntPoly:
        """Image under T^a -> T^(a mod ell^n), as a dense integer polynomial
        of degree < ell^n.  Evaluating it at any ell^n-th root of unity
        agrees with evaluating the generalized polynomial itself."""
        return IntPoly.from_pairs(self.level_terms(n))

    def level_terms(self, n: int) -> list[tuple[int, int]]:
        """The terms (a mod ell^n, c), unmerged: the sparse form of
        reduce_level(n)."""
        if n < 0:
            raise ValueError("level must be >= 0")
        if n > self.precision and not self.integral:
            raise PrecisionError(
                f"exponents known mod {self.ell}^{self.precision}, level {n} requested"
            )
        m = self.ell**n
        if n <= self.precision:
            return [(e % m, c) for e, c in self.terms]
        return [(self.lift_exponent(e) % m, c) for e, c in self.terms]

    def integerize(self) -> tuple[IntPoly, int]:
        """(U, b) with U = T^b * f as an honest integer polynomial.

        For the determinant polynomial of a voltage matrix the support is
        symmetric, so U is palindromic of degree 2b and U(0) != 0.
        """
        if self.is_zero:
            return IntPoly(()), 0
        lifted = [(self.lift_exponent(e), c) for e, c in self.terms]
        b = -min(e for e, _ in lifted)
        return IntPoly.from_pairs((e + b, c) for e, c in lifted), b

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms:
            if self.integral:
                e = self.lift_exponent(e)
            parts.append(f"{c}*T^{e}" if e else str(c))
        return " + ".join(parts).replace("+ -", "- ")


def mu_invariant(f: GenPoly, p: int) -> tuple[int, GenPoly]:
    """(mu, g): mu is the minimal p-adic valuation over the coefficients
    and f = p^mu * g with mu(g) = 0."""
    if f.is_zero:
        raise ZeroPolynomialError("mu of the zero polynomial")
    mu = min(ord_p(c, p) for _, c in f.terms)
    return mu, f.divide_coefficients(p**mu)


# ---------------------------------------------------------------------------
# matrices of generalized polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenPolyMatrix:
    entries: tuple[tuple[GenPoly, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)


def voltage_matrix(va: VoltageAssignment) -> GenPolyMatrix:
    """The g x g matrix D - sum_s (T^alpha(s) at inc(s)) - (T^-alpha(s)
    at the reversed incidence); D is the valency matrix.  Its determinant
    is the generalized polynomial driving every level norm."""
    graph = va.graph
    g = graph.num_vertices
    n = va.precision
    ell = va.ell
    zero = GenPoly.zero(ell, n, va.is_integral)
    rows = [[zero for _ in range(g)] for _ in range(g)]
    for i in range(g):
        rows[i][i] = GenPoly.constant(ell, n, graph.valency(i), va.is_integral)
    for idx, (t, h) in enumerate(graph.edges):
        r = va.voltages[idx].residue
        fwd = GenPoly.monomial(ell, n, r, -1, va.is_integral)
        bwd = GenPoly.monomial(ell, n, -r, -1, va.is_integral)
        rows[t][h] = rows[t][h] + fwd
        rows[h][t] = rows[h][t] + bwd
    return GenPolyMatrix(tuple(tuple(row) for row in rows))


def determinant(m: GenPolyMatrix) -> GenPoly:
    """Exact determinant by Berkowitz's division-free algorithm, valid
    over any commutative ring.  The result is fixed by T -> 1/T for
    voltage matrices."""
    entries = m.entries
    n = m.size
    if n == 0:
        raise ValueError("empty matrix")
    sample = entries[0][0]
    one = GenPoly.constant(sample.ell, sample.precision, 1, True)

    def dot(row, v):  # row[:len(v)] . v
        return reduce(add, map(mul, row, v))

    # entering step i, vec is the characteristic polynomial of the leading i x i block
    vec = [one, -entries[0][0]]
    for i in range(1, n):
        s, v = [], [entries[j][i] for j in range(i)]
        for _ in range(i):
            s.append(dot(entries[i], v))
            v = [dot(entries[r], v) for r in range(i)]
        toep = [one, -entries[i][i]] + [-x for x in s]
        vec = [dot(toep[k::-1], vec) for k in range(i + 2)]
    return -vec[n] if n % 2 else vec[n]
