"""Valuation analysis of spanning-tree counts along a tower.

The engine room.  For a voltage assignment with determinant polynomial
f, the level-i norm is

    N_i = Res(Phi_{ell^i}, f reduced at level i)
        = product of f over the primitive ell^i-th roots of unity,

and the product identity  ell^n * kappa_n = kappa_0 * N_1 * ... * N_n
recovers every spanning-tree count in the tower from the norms alone.

N_i is computed multi-modularly (level_norm): modulo primes
q = 1 (mod ell^i) below 2**30 the roots of unity lie in F_q.  Since f
is fixed by T -> 1/T, N_i = M_i^2 for ell^i > 2, where M_i is the norm
from the real subfield Q(zeta)^+; M_i is recovered with its sign by CRT
once the primes' product exceeds 2 * ||f_i||_1^(phi(ell^i)/2).  Up to
mt_check_level, every N_i is recomputed by the subresultant sequence
and every kappa_n by the matrix-tree theorem on the actual cover; a
disagreement raises ArithmeticError.

For a prime p != ell the valuation ord_p(kappa_n) obeys

    ord_p(kappa_n) = mu * ell^n + nu        for n >= n0,

where p^mu is the content of f, and n0 is the last level at which f/p^mu
still vanishes at a primitive ell^i-th root of unity mod p, plus one.
For integral voltages the root search is certified: no roots can occur
once the multiplicative order of p mod ell^i exceeds deg(U mod p).  For
genuinely ell-adic voltages no effective bound is available, so n0 is
reported empirically up to the stored precision and flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factorint import factor_kappa, ord_p
from .genpoly import GenPoly, determinant, mu_invariant, voltage_matrix
from .graphs import (
    VoltageAssignment,
    cover_connected_by_voltages,
    derived_graph,
    spanning_tree_count,
    validate,
)
from .intpoly import IntPoly, cyclotomic, euler_phi, poly_mod_gcd, resultant
from .multimodular import check_word_prime, crt, primes_for_bound


class PrimeEqualsEllError(ValueError):
    """p = ell has its own (Iwasawa-type) law; use the ell-part fit."""


class InconclusiveError(RuntimeError):
    """Root search hit the precision ceiling while roots were still
    appearing; no stabilization level can be reported."""


class InapplicableError(ValueError):
    """Stabilization bounds need mu_p = 0 and integral exponents."""


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

def multiplicative_order(a: int, modulus: int) -> int:
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    group = euler_phi(modulus)
    order = group
    # complete: after trial division to 10**6, rho splits whatever is left
    # of any group order small enough for euler_phi to reach
    for q, _ in factor_kappa(group).factors:
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def inertia_degree(p: int, ell: int, i: int) -> tuple[int, int]:
    """(f_i, r_i): the multiplicative order of p mod ell^i and the number
    of primes above p in the ell^i-th cyclotomic field, f_i * r_i = phi."""
    if p == ell:
        raise PrimeEqualsEllError("inertia data is for p != ell")
    if i < 1:
        raise ValueError("level must be >= 1")
    f = multiplicative_order(p, ell**i)
    return f, euler_phi(ell**i) // f


def eventual_prime_count(p: int, ell: int) -> int:
    """r with exactly r primes above p in Q(zeta_{ell^i}) for all large i."""
    if p == ell:
        raise PrimeEqualsEllError("p must differ from ell")
    floor = 3 if ell == 2 else 2
    prev = multiplicative_order(p, ell)
    i = 1
    while True:
        i += 1
        cur = multiplicative_order(p, ell**i)
        if i > floor and cur == ell * prev:
            # orders now grow by ell each level, so r_i is constant
            return euler_phi(ell**i) // cur
        prev = cur


# ---------------------------------------------------------------------------
# level norms and the tower orchestration
# ---------------------------------------------------------------------------

def level_norm(f: GenPoly, i: int) -> int:
    """N_i: the product of f over the primitive ell^i-th roots of unity,
    i.e. Res(Phi_{ell^i}, f_i) with f_i = f.reduce_level(i).  N_0 is 1
    by convention.

    Multi-modular: for m = ell^i and word-size primes q = 1 (mod m),
    F_q holds the primitive m-th roots zeta^k, so N_i mod q is a product
    of values f_i(zeta^k).  When f_i is fixed by T -> 1/T (every voltage
    determinant is), f_i(zeta^-k) = f_i(zeta^k) and N_i = M_i^2 for
    m > 2, where M_i, the norm from the real subfield, is the product
    over k in (Z/m)^*/{+-1}.  |f_i(zeta^k)| <= ||f_i||_1, so primes are
    taken until their product exceeds 2 * ||f_i||_1^(phi(m)/2); CRT then
    gives M_i with its sign.  Otherwise the product runs over all units
    with bound ||f_i||_1^phi(m) and is N_i itself.  For m = 2,
    N_1 = f_1(-1).  Tower.level_norm cross-checks against the
    subresultant at every matrix-tree-checked level."""
    if i == 0:
        return 1
    reduced = f.reduce_level(i)
    if reduced.is_zero:
        return 0
    m = f.ell**i
    if m == 2:
        return reduced(-1)
    terms = [(e, c) for e, c in enumerate(reduced.coeffs) if c]
    coeff = dict(terms)
    symmetric = all(coeff.get(-e % m) == c for e, c in terms)
    top = m // 2 if symmetric else m - 1
    units = np.array([k for k in range(1, top + 1) if k % f.ell], dtype=np.int64)
    bound = sum(abs(c) for _, c in terms) ** units.size
    qs = primes_for_bound(bound, m)
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    images = [_norm_mod(exps, [c % q for _, c in terms], units, f.ell, m, q) for q in qs]
    norm = crt(images, qs)
    return norm * norm if symmetric else norm


# Largest (terms x roots) block the norm evaluates at once, in int64 entries.
_NORM_BLOCK = 1 << 16


def _norm_mod(exps: np.ndarray, coeffs: list[int], units: np.ndarray,
              ell: int, m: int, q: int) -> int:
    """prod_k sum_e c_e zeta^(e k) mod q over k in units, for zeta of
    exact order m in F_q (q = 1 mod m, q < 2**30)."""
    check_word_prime(q)
    table = _root_powers(ell, m, q)
    cq = np.array(coeffs, dtype=np.int64)
    vals = np.zeros(units.size, dtype=np.int64)
    rows = max(1, _NORM_BLOCK // units.size)
    for s in range(0, exps.size, rows):
        idx = np.outer(exps[s : s + rows], units) % m
        vals += (table[idx] * cq[s : s + rows, None] % q).sum(axis=0) % q
        vals %= q
    while vals.size > 1:  # pairwise product tree
        half = vals.size // 2
        head = vals[:half] * vals[half : 2 * half] % q
        if vals.size % 2:
            head[0] = head[0] * vals[-1] % q
        vals = head
    return int(vals[0])


def _root_powers(ell: int, m: int, q: int) -> np.ndarray:
    """zeta^j mod q for j < m, zeta of exact order m = ell^i in F_q."""
    g = 2
    while True:
        zeta = pow(g, (q - 1) // m, q)
        if pow(zeta, m // ell, q) != 1:
            break
        g += 1
    table = np.empty(m, dtype=np.int64)
    table[0] = 1
    step, power = 1, zeta
    while step < m:
        n = min(step, m - step)
        table[step : step + n] = table[:n] * power % q
        step, power = 2 * step, power * power % q
    return table


class Tower:
    """An abelian ell-tower over a fixed voltage assignment.

    Caches the determinant polynomial, level norms, their running
    products and spanning-tree counts.  kappa_n comes from the product
    identity (multi-modular level norms); up to mt_check_level the
    subresultant sequence re-derives each norm and matrix-tree counting
    of the actual derived graph each kappa_n.  All state is write-once;
    instances are safe to share between threads.
    """

    def __init__(self, va: VoltageAssignment, mt_check_level: int | None = None):
        self.va = va
        self.ell = va.ell
        self.mt_check_level = (default_mt_check_level(va.ell)
                               if mt_check_level is None else mt_check_level)
        report = validate(va.graph)
        if not report.ok:
            raise DisconnectedTowerError("; ".join(report.problems))
        if not cover_connected_by_voltages(va, 1):
            raise DisconnectedTowerError(
                "cycle voltages do not generate Z/ell: covers are disconnected"
            )
        self.f = determinant(voltage_matrix(va))
        self.kappa_base = spanning_tree_count(va.graph)
        self._norms: dict[int, int] = {0: 1}
        self._products: dict[int, int] = {0: self.kappa_base}
        self._kappas: dict[int, int] = {0: self.kappa_base}

    @property
    def is_integral(self) -> bool:
        return self.va.is_integral

    def level_norm(self, i: int) -> int:
        """N_i from the multi-modular engine; at levels up to
        mt_check_level also recomputed by the subresultant route."""
        if i not in self._norms:
            n = level_norm(self.f, i)
            if n == 0:
                raise DisconnectedTowerError(f"level {i} norm vanishes")
            if i <= self.mt_check_level:
                check = resultant(cyclotomic(self.ell**i), self.f.reduce_level(i))
                if check != n:
                    raise ArithmeticError(
                        f"level-norm cross-check failed at level {i}: "
                        f"multi-modular {n} != subresultant {check}"
                    )
            self._norms[i] = n
        return self._norms[i]

    def norm_product(self, n: int) -> int:
        """kappa_0 * N_1 * ... * N_n (= ell^n * kappa_n), each level built
        on the product below it."""
        if n < 0:
            raise ValueError("level must be >= 0")
        top = n
        while top not in self._products:
            top -= 1
        for i in range(top + 1, n + 1):
            self._products[i] = self._products[i - 1] * self.level_norm(i)
        return self._products[n]

    def kappa(self, n: int) -> int:
        """Exact number of spanning trees of the level-n cover."""
        if n not in self._kappas:
            prod = self.norm_product(n)
            scale = self.ell**n
            kappa, rem = divmod(prod, scale)
            if rem or kappa <= 0:
                raise ArithmeticError(
                    f"product identity failed at level {n}: {prod} vs {scale}"
                )
            if n <= self.mt_check_level:
                direct = spanning_tree_count(derived_graph(self.va, n))
                if direct != kappa:
                    raise ArithmeticError(
                        f"matrix-tree cross-check failed at level {n}: "
                        f"{direct} != {kappa}"
                    )
            self._kappas[n] = kappa
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


def _has_primitive_root(g: GenPoly, p: int, i: int) -> bool:
    """Does g mod p vanish at some primitive ell^i-th root of unity over
    the residue tower?  Tested as gcd(g at level i, Phi_{ell^i}) != 1
    over F_p."""
    reduced = g.reduce_level(i)
    phi = cyclotomic(g.ell**i)
    gcd = poly_mod_gcd(reduced.mod_array(p), phi.mod_array(p), p)
    return gcd.size != 1


def _first_rootless_level(p: int, ell: int, dbar: int) -> int:
    """First level i whose inertia degree f_i exceeds dbar = deg(U mod p).
    A root at a primitive ell^i-th root of unity forces an irreducible
    factor of Phi_{ell^i} mod p, of degree f_i, into U mod p, and f_i
    never falls as i grows, so no level from here on carries roots."""
    i = 1
    while inertia_degree(p, ell, i)[0] <= dbar:
        i += 1
    return i


def n0_search(g: GenPoly, p: int) -> N0Search:
    """Smallest n0 with no primitive ell^i-th-root zero of g mod p for any
    i >= n0.  Requires mu_p(g) = 0.

    Integral exponents: certified, searched below the first level whose
    inertia degree exceeds deg(U mod p), so the search space is finite.

    Non-integral: searched up to the stored precision; empirical, and
    inconclusive if the top level still has roots.
    """
    ell = g.ell
    if g.is_zero or all(c % p == 0 for c in g.coefficients()):
        raise ValueError("mu(g) must be 0")
    if g.integral:
        u, _ = g.integerize()
        dbar = u.degree_mod(p)
        if dbar < 0:
            raise ValueError("mu(g) must be 0")
        limit = _first_rootless_level(p, ell, dbar)
        roots = tuple(i for i in range(1, limit) if _has_primitive_root(g, p, i))
        return N0Search(max(roots) + 1 if roots else 1, True, roots, limit - 1)

    top = g.precision
    if top < 1:
        raise ValueError("need at least one level to search")
    roots = tuple(i for i in range(1, top + 1) if _has_primitive_root(g, p, i))
    if roots and roots[-1] == top:
        raise InconclusiveError(
            f"roots persist at the top searchable level {top}; "
            "raise the voltage precision for a stabilization estimate"
        )
    return N0Search(max(roots) + 1 if roots else 1, False, roots, top)


@dataclass(frozen=True)
class StabilizationBounds:
    n1: int
    log_bound: float
    eventual_primes: int


def stabilization_bounds(u: IntPoly, p: int, ell: int) -> StabilizationBounds:
    """Certified constancy bounds for ord_p(kappa_n) when mu_p = 0 and the
    exponents are integral: n1 is the first level whose inertia degree
    exceeds deg(U mod p); the closed-form log bound uses the eventual
    number r of primes above p."""
    if u.is_zero:
        raise InapplicableError("zero polynomial")
    dbar = u.degree_mod(p)
    if dbar < 0:
        raise InapplicableError(f"mu_{p} > 0: ord_{p}(kappa_n) is unbounded")
    n1 = _first_rootless_level(p, ell, dbar)
    r = eventual_prime_count(p, ell)
    log_bound = 0.0 if dbar == 0 else math.log(r * ell * dbar / (ell - 1), ell)
    return StabilizationBounds(n1, log_bound, r)


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

    n1 = log_bound = None
    if tower.is_integral and mu == 0:
        u, _ = tower.f.integerize()
        bounds = stabilization_bounds(u, p, ell)
        n1, log_bound = bounds.n1, bounds.log_bound

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
