"""Valuation analysis of spanning-tree counts along a tower.

The engine room.  For a voltage assignment with determinant polynomial
f, the level-i norm is

    N_i = Res(Phi_{ell^i}, f reduced at level i)
        = product of f over the primitive ell^i-th roots of unity,

and the product identity  ell^n * kappa_n = kappa_0 * N_1 * ... * N_n
recovers every spanning-tree count in the tower from the norms alone,
one level at a time: kappa_n = kappa_(n-1) * N_n / ell.

N_i is computed multi-modularly.  f is fixed by T -> 1/T, so N_i =
M_i^2 for ell^i > 2, where M_i is the norm from the real subfield
Q(zeta)^+ (Washington, GTM 83, ch. 2 and 8); level_norm returns M_i,
recovered with its sign by CRT once the primes' product exceeds
2 * ||f_i||_1^(phi(ell^i)/2), and Tower squares it.  With f = V(T + 1/T),
M_i = Res(Psi_(ell^i), V) for Psi_(ell^i) the minimal polynomial of
zeta + 1/zeta.  Integral towers take it as a determinant in F_q[x]/(V),
for any word prime q not dividing lc(V), once phi(ell^i)/2 reaches
RING_THRESHOLD (_ring_norm); ell-adic towers and lower levels evaluate
f at the roots of unity of F_q, for primes q = 1 (mod ell^i)
(_evaluation_norm).
Up to mt_check_level, every N_i is recomputed by the subresultant
sequence and every kappa_n by the matrix-tree theorem on the actual
cover; a disagreement raises ArithmeticError.

For a prime p != ell the valuation ord_p(kappa_n) obeys

    ord_p(kappa_n) = mu * ell^n + nu        for n >= n0,

where p^mu is the content of f, and n0 is the last level at which f/p^mu
still vanishes at a primitive ell^i-th root of unity mod p, plus one.
For integral voltages the root search is certified: no roots can occur
once the inertia degree f_i of p (its order mod ell^i) exceeds
deg(U mod p).  One sweep gives every f_i: f_1 from the factorisation of
ell - 1, then f_(i+1) in {f_i, ell f_i} from one pow per level.  The
sweep yields n1, the first rootless level, which bounds the search, and
r, the eventual number of primes above p; the per-prime report reads n1
and the closed-form log bound off the search.  For genuinely ell-adic
voltages no effective bound is available, so n0 is reported empirically
up to the stored precision and flagged as such.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .factorint import factor_kappa, ord_p
from .genpoly import GenPoly, determinant, mu_invariant, voltage_matrix
from .graphs import VoltageAssignment, derived_graph, spanning_tree_count, tower_problems
from .intdet import det_stack
from .intpoly import IntPoly, cyclotomic, dickson, poly_mod_gcd, real_form, resultant
from .multimodular import check_word_prime, crt, primes_for_bound, residues


class PrimeEqualsEllError(ValueError):
    """p = ell has its own (Iwasawa-type) law; use the ell-part fit."""


class InconclusiveError(RuntimeError):
    """Root search hit the precision ceiling while roots were still
    appearing; no stabilization level can be reported."""


class DisconnectedTowerError(ValueError):
    pass


class InsufficientDataError(ValueError):
    pass


def default_mt_check_level(ell: int) -> int:
    """How far up the tower matrix-tree determinants double-check the
    resultant route by default; covers grow like ell^n."""
    return {2: 5, 3: 3}.get(ell, 2)


# ---------------------------------------------------------------------------
# splitting data of p in the ell-power cyclotomic tower
# ---------------------------------------------------------------------------

# Rho steps for factoring q - 1 in multiplicative_order, outside any
# --budget-ms: every ell of the corpus, the demos and the golden specs
# (and 10^20 + 39) needs none, and 10^5 steps take about 0.2 s on a
# 115-bit cofactor that they cannot split.
ORDER_RHO_ITERATIONS = 10**5


def multiplicative_order(a: int, q: int) -> int:
    """The order of a mod the prime q, from the factorisation of q - 1
    with at most ORDER_RHO_ITERATIONS rho steps."""
    if a % q == 0:
        raise ValueError(f"{a} is not a unit mod {q}")
    group = factor_kappa(q - 1, rho_iterations=ORDER_RHO_ITERATIONS)
    if not group.complete:
        # a multiple of the order would certify rootless levels too early
        raise ArithmeticError(
            f"cannot certify the order of {a} mod {q}: {q - 1} leaves "
            f"the unfactored cofactor {group.cofactor}"
        )
    order = q - 1
    for r, _ in group.factors:
        while order % r == 0 and pow(a, order // r, q) == 1:
            order //= r
    return order


def inertia_degrees(p: int, ell: int) -> Iterator[int]:
    """f_1, f_2, ...: f_i is the order of p mod ell^i, the inertia degree
    of p != ell in Q(zeta_{ell^i}).  The kernel of (Z/ell^(i+1))^* ->
    (Z/ell^i)^* has order ell, so f_(i+1) is f_i when p^(f_i) = 1 (mod
    ell^(i+1)) and ell * f_i otherwise (Washington, GTM 83, ch. 2): only
    f_1 needs a factorisation, each later level costs one pow."""
    f, modulus = multiplicative_order(p, ell), ell
    while True:
        yield f
        modulus *= ell
        if pow(p, f, modulus) != 1:
            f *= ell


def splitting(p: int, ell: int, dbar: int) -> tuple[int, int]:
    """(n1, r) from one sweep of the inertia degrees.

    n1 is the first level whose f_i exceeds dbar = deg(U mod p): a root
    at a primitive ell^i-th root of unity forces an irreducible factor of
    Phi_{ell^i} mod p, of degree f_i, into U mod p, and f_i never falls,
    so no level from n1 on carries roots.  r = phi(ell^i) / f_i is the
    eventual number of primes above p: once f_(i+1) = ell * f_i (for
    ell = 2, from i = 2 on: f_2 = 2 f_1 whenever p = 3 mod 4), the orders
    grow by ell at every level, and so does phi(ell^i) = (ell-1) ell^(i-1).
    """
    n1 = r = None
    for i, (f, lifted) in enumerate(pairwise(inertia_degrees(p, ell)), start=1):
        if n1 is None and f > dbar:
            n1 = i
        if r is None and lifted > f and (ell > 2 or i > 1):
            r = (ell - 1) * ell ** (i - 1) // f
        if n1 is not None and r is not None:
            return n1, r


# ---------------------------------------------------------------------------
# level norms and the tower orchestration
# ---------------------------------------------------------------------------

# Integral level norms take the ring route once h = phi(ell^i)/2 reaches
# RING_THRESHOLD, and the evaluation route below it: the ring pays a
# fixed cost per level (the Dickson steps and a b-step elimination), the
# evaluation route work proportional to h^2.  Measured on integral_deep
# towers (2-core x86-64, Python 3.11, numpy 2.4; ms per level, best of
# three); a larger b moves the crossover up:
#
#     ell, level, b    2,8,5  3,5,4  2,9,5  3,6,4  2,10,5  3,7,4  7,4,4
#     h                   64     81    128    243     256    729   1029
#     ring              0.54   0.49   0.69   0.86    1.17   1.79   3.55
#     evaluation        0.29   0.33   0.70   1.26    1.92   7.22  12.4
#
#     ell, level, b    2,9,7  3,6,10  2,10,7  3,7,10
#     ring              1.38    3.52    1.94   11.2
#     evaluation        0.77    2.66    2.08   23.0
RING_THRESHOLD = 128


def level_norm(f: GenPoly, i: int) -> int:
    """M_i, the norm of f from the real subfield Q(zeta_m)^+, m = ell^i:
    f is fixed by T -> 1/T (every voltage determinant is), so f(zeta^k)
    = f(zeta^-k) and N_i = M_i^2 for m > 2, with M_i the product of f
    over k in (Z/m)^*/{+-1}.  For m = 2 it returns N_1 = f(-1) itself,
    and M_0 = 1 by convention.  A non-symmetric f raises ValueError.

    |f(zeta^k)| <= ||f_i||_1 for f_i = f.reduce_level(i), so word-size
    primes are taken until their product exceeds 2 ||f_i||_1^h, h =
    phi(m)/2, and CRT gives M_i with its sign.  Integral exponents take
    the images from F_q[x]/(V) once h reaches RING_THRESHOLD (_ring_norm);
    ell-adic ones, and lower levels, from the roots of unity of F_q
    (_evaluation_norm).  Tower.level_norm cross-checks N_i against the
    subresultant at every matrix-tree-checked level."""
    if i == 0:
        return 1
    coeff, modulus = dict(f.terms), f.modulus
    if any(coeff.get(-e % modulus) != c for e, c in f.terms):
        raise ValueError("level norms need f fixed by T -> 1/T, as every voltage determinant is")
    reduced = f.reduce_level(i)
    if reduced.is_zero:
        return 0
    m = f.ell**i
    if m == 2:
        return reduced(-1)
    h = (f.ell - 1) * m // f.ell // 2
    bound = sum(map(abs, reduced.coeffs)) ** h
    if f.integral and h >= RING_THRESHOLD:
        return _ring_norm(real_form(f.integerize()[0]), f.ell, i, h, bound)
    return _evaluation_norm(reduced, f.ell, m, h, bound)


# Largest number of int64 entries in the stacks and temporaries of one
# block of primes.  On padic_deep, blocks of 2**16 entries raised the
# peak memory by about 0.3 MiB, and blocks of 2**14 ran about 10% slower.
_NORM_BLOCK = 1 << 15


def _ring_norm(v: IntPoly, ell: int, i: int, h: int, bound: int) -> int:
    """M_i = Res(Psi_m, V) for f = V(T + 1/T), where Psi_m =
    real_form(Phi_m), monic of degree h, has the roots zeta^k + zeta^-k.
    So M_i = (-1)^(hb) lc(V)^h det, where det is the determinant of
    Psi_m(x) acting on F_q[x]/(V), b = deg V, for word primes q not
    dividing lc(V): no root of unity is needed, so any such q qualifies.
    Psi_m(x) comes from x by Dickson steps: Phi_(ell^i)(T) =
    Phi_(ell^j)(T^(ell^(i-j))) gives Psi_(ell^i) = Psi_(ell^j)(y) for
    y = D_ell(D_ell(...D_ell(x))), i - j steps, from j = 1 (j = 2 for
    ell = 2).  The b x b images of a block of primes are one stack for
    intdet.det_stack."""
    b, lead = v.degree, v.leading
    if b == 0:
        return lead**h
    qs = primes_for_bound(bound, avoid=lead)
    base = 2 if ell == 2 else 1
    outer, step = real_form(cyclotomic(ell**base)), dickson(ell)
    sign = -1 if h * b % 2 else 1
    per_block = max(1, _NORM_BLOCK // (2 * b * b))
    images = []
    for s in range(0, len(qs), per_block):
        block = qs[s : s + per_block]
        ring = _QuotientRing(v, block)
        y = ring.x()
        for _ in range(i - base):
            y = ring.evaluate(step, y)
        dets = det_stack(ring.multiplication_matrix(ring.evaluate(outer, y)), block)
        images += [sign * det * pow(lead, h, q) % q for det, q in zip(dets, block)]
    return crt(images, qs)


class _QuotientRing:
    """F_q[x]/(g) for every prime q of a block at once (q not dividing
    lc(g), q < 2**30).  An element is an int64 (primes, d) array of
    residues in [0, q), the coefficients of 1, x, ..., x^(d-1), d = deg g."""

    def __init__(self, g: IntPoly, qs):
        self.q = np.array(qs, dtype=np.int64).reshape(-1, 1)
        self.d = g.degree
        inv = np.array([pow(g.leading, -1, q) for q in qs], dtype=np.int64).reshape(-1, 1)
        # x^d = sum_j tail[j] x^j, with tail = -g[:d] / lc(g)
        self.tail = -residues(g.coeffs[:-1], self.q) * inv % self.q
        # rows x^(d + k) for k < d - 1, which fold a product back into degree < d
        fold = [self.tail]
        for _ in range(self.d - 2):
            fold.append(self.times_x(fold[-1]))
        self.fold = np.stack(fold, axis=1) if self.d > 1 else None

    def x(self) -> np.ndarray:
        """x mod g."""
        one = np.zeros((self.q.size, self.d), dtype=np.int64)
        one[:, 0] = 1
        return self.times_x(one)

    def times_x(self, a: np.ndarray) -> np.ndarray:
        out = a[:, -1:] * self.tail
        out[:, 1:] += a[:, :-1]
        return out % self.q

    def mul(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        n, d = a.shape
        q3 = self.q[:, :, None]
        # row j of the skewed outer product holds a_j c shifted by j, so
        # its column sums are the coefficients of the product
        skew = np.zeros((n, d, 2 * d), dtype=np.int64)
        skew[:, :, :d] = a[:, :, None] * c[:, None, :] % q3
        prod = skew.reshape(n, -1)[:, : d * (2 * d - 1)].reshape(n, d, 2 * d - 1).sum(axis=1)
        out = prod[:, :d]
        if d > 1:
            high = prod[:, d:] % self.q
            out += (high[:, :, None] * self.fold % q3).sum(axis=1)
        return out % self.q

    def evaluate(self, p: IntPoly, y: np.ndarray) -> np.ndarray:
        """p(y) by Horner's rule, for p of degree >= 1."""
        coeffs = residues(p.coeffs, self.q)
        acc = y * coeffs[:, -1:] % self.q
        acc[:, 0] += coeffs[:, -2]
        for k in range(len(p.coeffs) - 3, -1, -1):
            acc = self.mul(acc % self.q, y)
            acc[:, 0] += coeffs[:, k]
        return acc % self.q

    def multiplication_matrix(self, y: np.ndarray) -> np.ndarray:
        """The stack of d x d matrices of multiplication by y: row j is
        y x^j."""
        rows = [y]
        for _ in range(self.d - 1):
            rows.append(self.times_x(rows[-1]))
        return np.stack(rows, axis=1)


def _evaluation_norm(reduced: IntPoly, ell: int, m: int, h: int, bound: int) -> int:
    """M_i from the roots of unity of F_q, for word primes q = 1 (mod m):
    M_i mod q is the product of f_i(zeta^k) over the units k <= m/2.  The
    exponent table e k mod m is built once per level; each block of primes
    shares one array of root powers."""
    terms = [(e, c) for e, c in enumerate(reduced.coeffs) if c]
    units = np.array([k for k in range(1, m // 2 + 1) if k % ell], dtype=np.int64)
    idx = np.outer(np.array([e for e, _ in terms], dtype=np.int64), units) % m
    coeffs = [c for _, c in terms]
    qs = primes_for_bound(bound, m)
    per_block = max(1, _NORM_BLOCK // max(idx.size, m))
    images = []
    for s in range(0, len(qs), per_block):
        images += _evaluation_block(idx, coeffs, qs[s : s + per_block], ell, m)
    return crt(images, qs)


def _evaluation_block(idx: np.ndarray, coeffs: list[int], qs, ell: int, m: int) -> list[int]:
    """prod_k sum_e c_e zeta^(e k) mod q for every q of the block, zeta of
    exact order m in F_q; idx holds the exponents e k mod m."""
    for q in qs:
        check_word_prime(q)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    q3 = q[:, :, None]
    table = _root_powers(ell, m, qs)
    cq = residues(coeffs, q)
    vals = 0
    rows = max(1, _NORM_BLOCK // (len(qs) * idx.shape[1]))
    for s in range(0, idx.shape[0], rows):
        terms = table[:, idx[s : s + rows]]
        terms *= cq[:, s : s + rows, None]
        terms %= q3
        vals = (vals + terms.sum(axis=1)) % q
    while vals.shape[1] > 1:  # pairwise product tree
        half = vals.shape[1] // 2
        head = vals[:, :half] * vals[:, half : 2 * half] % q
        if vals.shape[1] % 2:
            head[:, :1] = head[:, :1] * vals[:, -1:] % q
        vals = head
    return vals[:, 0].tolist()


def _root_powers(ell: int, m: int, qs) -> np.ndarray:
    """zeta^j mod q for j < m, one row per q, zeta of exact order m = ell^i
    in F_q, by doubling: row[s : 2s] = row[:s] * zeta^s."""
    steps = []  # zeta^(2^k) for every q, k < log2(m)
    for q in qs:
        g = 2
        while True:
            zeta = pow(g, (q - 1) // m, q)
            if pow(zeta, m // ell, q) != 1:
                break
            g += 1
        powers = [zeta]
        while 1 << len(powers) < m:
            powers.append(powers[-1] * powers[-1] % q)
        steps.append(powers)
    steps = np.array(steps, dtype=np.int64)
    q = np.array(qs, dtype=np.int64).reshape(-1, 1)
    table = np.empty((len(qs), m), dtype=np.int64)
    table[:, 0] = 1
    for k in range(steps.shape[1]):
        step = 1 << k
        n = min(step, m - step)
        table[:, step : step + n] = table[:, :n] * steps[:, k : k + 1] % q
    return table


class Tower:
    """An abelian ell-tower over a fixed voltage assignment.

    Caches the determinant polynomial, level norms and spanning-tree
    counts.  kappa_n = kappa_(n-1) * N_n / ell, the product identity
    taken one level at a time (multi-modular level norms); up to
    mt_check_level the subresultant sequence re-derives each norm and
    matrix-tree counting of the actual derived graph each kappa_n.  All
    state is written once per level; instances are safe to share between
    threads.
    """

    def __init__(self, va: VoltageAssignment, mt_check_level: int | None = None):
        self.va = va
        self.ell = va.ell
        self.mt_check_level = (default_mt_check_level(va.ell)
                               if mt_check_level is None else mt_check_level)
        problems = tower_problems(va)
        if problems:
            raise DisconnectedTowerError("; ".join(problems))
        self.f = determinant(voltage_matrix(va))
        self.kappa_base = spanning_tree_count(va.graph)
        self._norms: dict[int, int] = {0: 1}
        self._kappas: dict[int, int] = {0: self.kappa_base}

    def real_norm(self, i: int) -> int:
        """M_i from the multi-modular engine (level_norm), with
        N_i = M_i^norm_power(i).  At levels up to mt_check_level N_i is
        also recomputed by the subresultant route."""
        if i not in self._norms:
            root = level_norm(self.f, i)
            if root == 0:
                raise DisconnectedTowerError(f"level {i} norm vanishes")
            if i <= self.mt_check_level:
                n = root ** self.norm_power(i)
                check = resultant(cyclotomic(self.ell**i), self.f.reduce_level(i))
                if check != n:
                    raise ArithmeticError(
                        f"level-norm cross-check failed at level {i}: "
                        f"multi-modular {n} != subresultant {check}"
                    )
            self._norms[i] = root
        return self._norms[i]

    def level_norm(self, i: int) -> int:
        """N_i = Res(Phi_(ell^i), f_i)."""
        return self.real_norm(i) ** self.norm_power(i)

    def norm_power(self, i: int) -> int:
        """e with N_i = M_i^e: 2 for ell^i > 2, and 1 for ell^i = 2."""
        return 2 if self.ell**i > 2 else 1

    def kappa(self, n: int) -> int:
        """Exact number of spanning trees of the level-n cover."""
        if n < 0:
            raise ValueError("level must be >= 0")
        # the cached levels are 0..len - 1: every fill runs upward from there
        for i in range(len(self._kappas), n + 1):
            prod = self._kappas[i - 1] * self.level_norm(i)
            kappa, rem = divmod(prod, self.ell)
            if rem or kappa <= 0:
                raise ArithmeticError(
                    f"product identity failed at level {i}: {prod} vs {self.ell}"
                )
            if i <= self.mt_check_level:
                direct = spanning_tree_count(derived_graph(self.va, i))
                if direct != kappa:
                    raise ArithmeticError(
                        f"matrix-tree cross-check failed at level {i}: "
                        f"{direct} != {kappa}"
                    )
            self._kappas[i] = kappa
        return self._kappas[n]

    def ord_ell_sequence(self, depth: int) -> list[int]:
        return [ord_p(self.kappa(n), self.ell) for n in range(depth + 1)]


# ---------------------------------------------------------------------------
# the stabilization level n0 and its certified bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class N0Search:
    n0: int
    certified: bool
    root_levels: tuple[int, ...]
    searched_to: int
    n1: int | None
    log_bound: float | None


def _has_primitive_root(g: GenPoly, p: int, i: int) -> bool:
    """Does g mod p vanish at some primitive ell^i-th root of unity over
    the residue tower?  Tested as gcd(g at level i, Phi_{ell^i}) != 1
    over F_p."""
    reduced = g.reduce_level(i)
    phi = cyclotomic(g.ell**i)
    gcd = poly_mod_gcd(reduced.mod_array(p), phi.mod_array(p), p)
    return gcd.size != 1


def n0_search(g: GenPoly, p: int) -> N0Search:
    """Smallest n0 with no primitive ell^i-th-root zero of g mod p for any
    i >= n0.  Requires mu_p(g) = 0.

    Integral exponents: certified, searched below n1, the first level
    whose inertia degree exceeds dbar = deg(U mod p) (splitting), so the
    search space is finite.  The search also gives the closed-form
    bound log_ell(r ell dbar / (ell - 1)), r the eventual number of
    primes above p.

    Non-integral: searched up to the stored precision; empirical, and
    inconclusive if the top level still has roots.
    """
    ell = g.ell
    if g.is_zero or all(c % p == 0 for c in g.coefficients()):
        raise ValueError("mu(g) must be 0")
    n1 = log_bound = None
    if g.integral:
        u, _ = g.integerize()
        dbar = u.degree_mod(p)
        if dbar < 0:
            raise ValueError("mu(g) must be 0")
        n1, r = splitting(p, ell, dbar)
        log_bound = 0.0 if dbar == 0 else math.log(r * ell * dbar / (ell - 1), ell)
        top = n1 - 1
    else:
        top = g.precision
        if top < 1:
            raise ValueError("need at least one level to search")
    roots = tuple(i for i in range(1, top + 1) if _has_primitive_root(g, p, i))
    if n1 is None and roots and roots[-1] == top:
        raise InconclusiveError(
            f"roots persist at the top searchable level {top}; "
            "raise the voltage precision for a stabilization estimate"
        )
    return N0Search(max(roots) + 1 if roots else 1, n1 is not None, roots, top, n1, log_bound)


# ---------------------------------------------------------------------------
# per-prime analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeAnalysisReport:
    p: int
    ell: int
    mu: int
    n0: int
    certified: bool
    root_levels: tuple[int, ...]
    nu: int | None
    observed: tuple[int, ...]
    predicted: tuple[int, ...]
    divides_any: bool
    n1: int | None = None
    log_bound: float | None = None
    closed_form_from: int | None = None

    def closed_form(self) -> str | None:
        """Rendering of ord_p(kappa_n) = mu*ell^n + nu on its valid range."""
        if self.nu is None:
            return None
        start = self.closed_form_from if self.closed_form_from is not None else self.n0
        if self.mu == 0:
            return f"ord_{self.p}(kappa_n) = {self.nu} for n >= {start}"
        head = f"{self.ell}^n" if self.mu == 1 else f"{self.mu}*{self.ell}^n"
        if self.nu == 0:
            return f"ord_{self.p}(kappa_n) = {head} for n >= {start}"
        tail = f"+ {self.nu}" if self.nu > 0 else f"- {-self.nu}"
        return f"ord_{self.p}(kappa_n) = {head} {tail} for n >= {start}"


def analyze_prime(tower: Tower, p: int, depth: int) -> PrimeAnalysisReport:
    """Full valuation report for one prime p != ell.

    nu is computed exactly from the level norms below n0, never fitted;
    predicted valuations below n0 are the exact per-level norm sums.
    """
    ell = tower.ell
    if p == ell:
        raise PrimeEqualsEllError("use the ell-part Iwasawa fit for p = ell")
    mu, g = mu_invariant(tower.f, p)
    search = n0_search(g, p)
    n0 = search.n0

    base_ord = ord_p(tower.kappa_base, p)
    norm_ords = [ord_p(tower.level_norm(i), p) for i in range(1, depth + 1)]
    observed = tuple(ord_p(tower.kappa(n), p) for n in range(depth + 1))

    nu = None
    if n0 <= depth:
        nu = base_ord + sum(norm_ords[:n0]) - mu * ell**n0

    predicted = []
    for n in range(depth + 1):
        if nu is not None and n >= n0:
            predicted.append(mu * ell**n + nu)
        else:
            predicted.append(base_ord + sum(norm_ords[:n]))
    predicted = tuple(predicted)

    closed_from = None
    if nu is not None:
        closed_from = n0
        while closed_from > 1 and predicted[closed_from - 1] == mu * ell ** (closed_from - 1) + nu:
            closed_from -= 1

    divides_any = mu > 0 or base_ord > 0 or bool(search.root_levels)

    # the bounds hold for f itself only when mu = 0; otherwise ord_p grows
    n1, log_bound = (search.n1, search.log_bound) if mu == 0 else (None, None)

    return PrimeAnalysisReport(
        p=p, ell=ell, mu=mu, n0=n0, certified=search.certified,
        root_levels=search.root_levels, nu=nu, observed=observed,
        predicted=predicted, divides_any=divides_any,
        n1=n1, log_bound=log_bound, closed_form_from=closed_from,
    )


# ---------------------------------------------------------------------------
# the ell-part: empirical Iwasawa fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllFit:
    found: bool
    mu: int | None = None
    lam: int | None = None
    nu: int | None = None
    onset: int | None = None


def iwasawa_fit_ell(values, ell: int) -> EllFit:
    """Least-onset exact fit ord_ell(kappa_n) = mu*ell^n + lam*n + nu.

    values[n] is ord_ell(kappa_n) for n = 0..len-1.  The fit must hold
    exactly on every point from the onset to the end, with at least
    three points, integer parameters and mu, lam >= 0.
    """
    vals = list(values)
    if len(vals) < 4:
        raise InsufficientDataError("need valuations at four levels or more")
    last = len(vals) - 1
    for onset in range(1, last - 1):
        y0, y1, y2 = vals[onset], vals[onset + 1], vals[onset + 2]
        d2 = (y2 - y1) - (y1 - y0)
        denom = ell**onset * (ell - 1) ** 2
        if d2 % denom:
            continue
        mu = d2 // denom
        lam = (y1 - y0) - mu * ell**onset * (ell - 1)
        nu = y0 - mu * ell**onset - lam * onset
        if mu < 0 or lam < 0:
            continue
        if all(vals[n] == mu * ell**n + lam * n + nu for n in range(onset, last + 1)):
            return EllFit(True, mu, lam, nu, onset)
    return EllFit(False)
