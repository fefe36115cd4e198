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

import math
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .factorint import ord_p
from .graphs import VoltageAssignment
from .intpoly import IntPoly, ZeroPolynomialError, pack, unpack
from .padics import PrecisionError


class NonIntegralExponentError(ValueError):
    """Integer-polynomial view requested for declared ell-adic exponents."""


class LevelTooDeepError(ValueError):
    """A polynomial no engine can index, its degree past sys.maxsize: a
    level i's norm modulus Phi_(ell^i), of degree phi(ell^i), and its
    cover, or U = T^b f at integral voltages of that size."""


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
        symmetric, so U is palindromic of degree 2b and U(0) != 0.  A U
        of degree past sys.maxsize raises LevelTooDeepError.
        """
        if self.is_zero:
            return IntPoly(()), 0
        lifted = [(self.lift_exponent(e), c) for e, c in self.terms]
        b = -min(e for e, _ in lifted)
        degree = max(e for e, _ in lifted) + b
        if degree > sys.maxsize:
            raise LevelTooDeepError(f"U = T^b f has degree {degree}, past the {sys.maxsize} "
                                    f"that any engine can index")
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
        if len({(x.ell, x.precision) for row in self.entries for x in row}) > 1:
            raise ValueError("GenPoly entries of different rings")

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


# The packed route runs while the exponents a determinant can have fill
# at least one of its slots in SLOTS_PER_TERM.  Multiplying the voltages
# of cycle-and-chord bases of 4-24 vertices by k leaves the kernel's time
# over GenPoly alone and multiplies the packed slots by k.  Timed on a
# 2-core x86-64 with Python 3.11, best of 5, with one slot in 8 filled
# the packed route was the faster at every size (16 vertices: 0.059 s
# against 0.241 s; 24: 0.66 s against 1.98 s); with one in 16 its lead
# shrank as the base grew, to a tie at 24 vertices (1.75 s against
# 1.85 s), and with one in 32 it lost from 12 vertices on.
SLOTS_PER_TERM = 8


def determinant(m: GenPolyMatrix) -> GenPoly:
    """Exact determinant by one kernel, Berkowitz's division-free
    algorithm (_berkowitz), valid over any commutative ring.  A matrix
    whose entries are all declared integral hands it one packed integer
    matrix (_kronecker_determinant), unless its exponents are too sparse
    for packed slots; any other hands it the GenPoly entries themselves.
    Both give the same GenPoly.  The result is fixed by T -> 1/T for
    voltage matrices."""
    if m.size == 0:
        raise ValueError("empty matrix")
    if all(x.integral for row in m.entries for x in row):
        f = _kronecker_determinant(m)
        if f is not None:
            return f
    sample = m.entries[0][0]
    return _berkowitz(m.entries, GenPoly.constant(sample.ell, sample.precision, 1))


def _kronecker_determinant(m: GenPolyMatrix) -> GenPoly | None:
    """det M(T) for declared-integral entries, by Kronecker substitution
    (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4), or None
    when the exponents it can have fill fewer than one packed slot in
    SLOTS_PER_TERM (_fills_slots).

    Each exponent residue e is read as its representative in (-q/2, q/2],
    q = ell^N, so M(T) becomes a Laurent matrix that maps onto M under
    T^a -> T^(a mod q), a ring map; its determinant maps onto det M.  Row
    i, times T^(-s_i) with s_i its least exponent, is an honest
    polynomial row of degree at most d_i, so P(T) = T^(-s) det M(T), s =
    sum s_i, is a polynomial of degree at most sum d_i.  One integer
    determinant (_berkowitz over the integers, which takes no pivot, so
    a leading minor of M(2^w) may vanish) gives P(2^w), and its w-bit
    signed slots are P's coefficients (intpoly.unpack) once every |P_k| <
    2^(w-1).  GenPoly reduces the exponents of T^s P mod q.  Any integer
    lift of the residues would map back onto det M; these keep the
    degrees least, and need no guard against wraparound
    (GenPoly.lift_exponent's, which refuses residues near q/2).

    The slot bound.  P_k = (1/2 pi) int_0^(2 pi) P(e^(it)) e^(-ikt) dt, so
    |P_k| <= max_(|z| = 1) |P(z)| = max_(|z| = 1) |det M(z)|, as |z^s| =
    1.  On |z| = 1 each entry has |m_ij(z)| <= ||m_ij||_1, so Hadamard's
    inequality, |det A| <= prod_i ||row_i(A)||_2, bounds that maximum by
    H = prod_i sqrt(sum_j ||m_ij||_1^2).  With H^2 < 2^h (h the bits of
    the integer H^2), |P_k| <= H < 2^ceil(h/2), and w = ceil(h/2) + 1
    suffices."""
    sample = m.entries[0][0]
    q = sample.modulus
    rows = [[[(e if 2 * e <= q else e - q, c) for e, c in x.terms] for x in row] for row in m.entries]
    supports = [{e for terms in row for e, _ in terms} for row in rows]
    if not all(supports):
        return GenPoly.zero(sample.ell, sample.precision)  # a row of zeros
    lows = [min(s) for s in supports]
    degree = sum(max(s) for s in supports) - sum(lows)
    if not _fills_slots(supports, degree + 1):
        return None
    square_bound = math.prod(sum(sum(abs(c) for _, c in terms) ** 2 for terms in row) for row in rows)
    w = (square_bound.bit_length() + 1) // 2 + 1
    values = [[pack(((e - low, c) for e, c in terms), w) for terms in row]
              for row, low in zip(rows, lows)]
    coeffs, shift = unpack(_berkowitz(values, 1), w, degree + 1), sum(lows)
    return GenPoly(sample.ell, sample.precision, tuple((k + shift, c) for k, c in enumerate(coeffs)), True)


def _fills_slots(supports: list[set[int]], slots: int) -> bool:
    """Do the sums of one exponent from each row's support, which hold
    every exponent of the determinant, number at least slots /
    SLOTS_PER_TERM?  Adding a row never shrinks the set of sums, so the
    count stops as soon as it gets there."""
    sums = {0}
    for support in supports:
        sums = {a + b for a in sums for b in support}
        if len(sums) * SLOTS_PER_TERM >= slots:
            return True
    return False


def _berkowitz(rows, one):
    """det of a nonempty square matrix, given by its rows, over any
    commutative ring with unit one, by Berkowitz's division-free
    algorithm (Berkowitz 1984), in O(n^4) ring products and no pivot.
    Its rings here: GenPoly, for matrices with ell-adic entries, whose
    exponents are residues up to ell^N, too many for packed slots, and
    for integral ones whose exponents are as sparse; and the integers,
    for the packed matrices of _kronecker_determinant.

    Step i extends the characteristic polynomial of the leading i x i
    block A to that of the leading (i + 1) x (i + 1) one, through the
    products R A^k C, k < i, of row i's part R and column i's part C
    (a Toeplitz matrix times the old polynomial)."""
    n = len(rows)

    def dot(row, v):  # row[:len(v)] . v
        return reduce(add, map(mul, row, v))

    # entering step i, vec is the characteristic polynomial of the leading i x i block
    vec = [one, -rows[0][0]]
    for i in range(1, n):
        row, v = rows[i], [rows[j][i] for j in range(i)]
        s = [dot(row, v)]
        for _ in range(i - 1):
            v = [dot(rows[r], v) for r in range(i)]
            s.append(dot(row, v))
        toep = [one, -row[i]] + [-x for x in s]
        vec = [dot(toep[k::-1], vec) for k in range(i + 2)]
    return -vec[n] if n % 2 else vec[n]
