"""Valuation analysis of spanning-tree counts along a tower.

The engine room.  For a voltage assignment with determinant polynomial
f, the level-i norm is

    N_i = Res(Phi_{ell^i}, f reduced at level i)
        = product of f over the primitive ell^i-th roots of unity,

and the product identity  ell^n * kappa_n = kappa_0 * N_1 * ... * N_n
recovers every spanning-tree count in the tower from the norms alone,
one level at a time: kappa_n = kappa_(n-1) * N_n / ell.

f is fixed by T -> 1/T, so N_i = M_i^2 for ell^i > 2, where M_i is the
norm from the real subfield Q(zeta)^+ (Washington, GTM 83, ch. 2 and
8); level_norm returns M_i with its sign, and Tower squares it.  It
is exact over Z, and no prime is drawn: every tower takes norm steps
down the cyclotomic tower, each element packed into one integer.
Up to mt_check_level, every N_i is recomputed by the subresultant
sequence and every kappa_n by the matrix-tree theorem on the actual
cover; a disagreement raises ArithmeticError.

For a prime p != ell the valuation ord_p(kappa_n) obeys

    ord_p(kappa_n) = mu * ell^n + nu        for n >= n0,

where p^mu is the content of f, and n0 is the last level at which f/p^mu
still vanishes at a primitive ell^i-th root of unity mod p, plus one.
For integral voltages the root search is certified: no roots can occur
once the inertia degree f_i of p (its order mod ell^i) exceeds dbar =
deg(U mod p).  One sweep gives every f_i up to n1, the first rootless
level: f_1 as the least k <= dbar with p^k = 1 (mod ell), from at most
dbar products mod ell, then f_(i+1) in {f_i, ell f_i} from one pow per
level.  n1 bounds the search, and the per-prime report reads it off.
The levels below n1 up to the report's depth are decided by a gcd over
F_p in int64 (intpoly.poly_mod_gcd, exact for p < 2^30), the one use
left of those helpers; the levels above the depth by rootladder, a
ladder of powers T^(ell^i) mod (U, p) in exact integers.  For genuinely
ell-adic voltages no effective bound is available, so n0 is reported
empirically up to the stored precision and flagged as such; level i
has a root there exactly when ord_p(N_i) > mu phi(ell^i) on the
tower's own norms, for every p.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .factorint import ord_p
from .genpoly import GenPoly, LevelTooDeepError, determinant, mu_invariant, voltage_matrix
from .graphs import VoltageAssignment, derived_graph, spanning_tree_count, tower_problems
from .intpoly import IntPoly, cyclotomic, pack, poly_mod_gcd, real_form, repunit, resultant, unpack
from .padics import PrecisionError
from .rootladder import root_levels as ladder_root_levels


class PrimeEqualsEllError(ValueError):
    """p = ell has its own (Iwasawa-type) law; use the ell-part fit."""


class InconclusiveError(RuntimeError):
    """Root search hit the precision ceiling while roots were still
    appearing; no stabilization level can be reported."""


class DisconnectedTowerError(ValueError):
    pass


class InsufficientDataError(ValueError):
    pass


def check_levels(va: VoltageAssignment, levels: int) -> None:
    """Refuse levels 1..levels of va's tower before any work if one of
    them is too deep for any engine (level i's norm takes Phi_(ell^i), of
    degree phi(ell^i), and its cover has more vertices still) or, for
    ell-adic voltages, past their precision, as GenPoly.level_terms
    would at the first such level."""
    ell = va.ell
    for i in range(1, levels + 1):
        phi = (ell - 1) * ell ** (i - 1)
        if phi > sys.maxsize:
            raise LevelTooDeepError(f"level {i} needs phi({ell}^{i}) = {phi} entries, past the "
                                    f"{sys.maxsize} that any engine can index")
    if not va.is_integral and levels > va.precision:
        raise PrecisionError(f"exponents known mod {ell}^{va.precision}, "
                             f"level {va.precision + 1} requested")


MT_CHECK_LEVELS, MT_CHECK_LEVEL_ELSE = {2: 5, 3: 3}, 2


def default_mt_check_level(ell: int) -> int:
    """How far up the tower matrix-tree determinants double-check the
    resultant route by default: MT_CHECK_LEVELS by ell, else
    MT_CHECK_LEVEL_ELSE; covers grow like ell^n."""
    return MT_CHECK_LEVELS.get(ell, MT_CHECK_LEVEL_ELSE)


# ---------------------------------------------------------------------------
# splitting data of p in the ell-power cyclotomic tower
# ---------------------------------------------------------------------------

def splitting(p: int, ell: int, dbar: int) -> int:
    """n1, the first level whose f_i exceeds dbar = deg(U mod p), where
    f_i is the order of p mod ell^i, the inertia degree of p in
    Q(zeta_{ell^i}): a root at a primitive ell^i-th root of unity forces
    an irreducible factor of Phi_{ell^i} mod p, of degree f_i, into U mod
    p, and f_i never falls, so no level from n1 on carries roots.

    f_1 is the least k <= dbar with p^k = 1 (mod ell), from at most dbar
    products mod ell; if there is none, f_1 > dbar and n1 = 1.  The
    kernel of (Z/ell^(i+1))^* -> (Z/ell^i)^* has order ell, so f_(i+1)
    is f_i when p^(f_i) = 1 (mod ell^(i+1)) and ell f_i otherwise
    (Washington, GTM 83, ch. 2): each later level costs one pow.  The
    closed-form bound on the eventual prime count r above p certifies no
    level more, so it is not kept: n1 <= floor(log_ell(r ell dbar /
    (ell - 1))) + 1 always.
    """
    residue = p % ell
    if residue == 0:
        raise ValueError(f"{p} is not a unit mod {ell}")
    power, f = residue, 1
    while power != 1:
        if f >= dbar:
            return 1
        power, f = power * residue % ell, f + 1
    n1, modulus = 1, ell
    while f <= dbar:
        modulus *= ell
        if pow(p, f, modulus) != 1:
            f *= ell
        n1 += 1
    return n1


# ---------------------------------------------------------------------------
# level norms and the tower orchestration
# ---------------------------------------------------------------------------

def level_norm(f: GenPoly, i: int) -> int:
    """M_i, the norm of f from the real subfield Q(zeta_m)^+, m = ell^i:
    f is fixed by T -> 1/T (every voltage determinant is), so f(zeta^k)
    = f(zeta^-k) and N_i = M_i^2 for m > 2, with M_i the product of f
    over k in (Z/m)^*/{+-1}.  For m = 2 it returns N_1 = f(-1) itself,
    and M_0 = 1 by convention.  A non-symmetric f raises ValueError.

    Every tower takes M_i by norm steps down the cyclotomic tower, from
    f's terms (e mod ell^i, c) (_adic_norm), sized by their own 1-norm,
    and from U = T^b f for an integral f whose lifted exponents span
    fewer than phi(ell^i) (_integral_norm): a wider U would be built
    densely only to be folded, and at a voltage of 10^30 it could not be
    built at all.  Tower cross-checks N_i against the subresultant up to
    mt_check_level."""
    if i < 0:
        raise ValueError("level must be >= 0")
    if i == 0:
        return 1
    coeff, modulus = dict(f.terms), f.modulus
    if any(coeff.get(-e % modulus) != c for e, c in f.terms):
        raise ValueError("level norms need f fixed by T -> 1/T, as every voltage determinant is")
    ell = f.ell
    if ell**i == 2:
        return sum(-c if e % 2 else c for e, c in f.level_terms(i))
    if f.integral:
        span = 2 * max((f.lift_exponent(e) for e, _ in f.terms), default=0)  # deg U, f symmetric
        if span < (ell - 1) * ell ** (i - 1):
            return _integral_norm(*f.integerize(), ell, i)
    return _adic_norm(f.level_terms(i), ell, i)  # PrecisionError past the precision


# Norm steps (Washington, GTM 83, ch. 2).  An element of Z[zeta_(ell^j)]
# is a polynomial U in T, read at zeta.  The conjugates of U(zeta) over
# Q(zeta_(ell^(j-1))) are U(zeta omega^t), so its norm there is
# U'(zeta^ell) for the Graeffe step U'(T^ell) = prod_(t < ell) U(omega^t
# T) (Pan, SIAM Review 39, 1997; _norm_step).  The steps stop at
# Q(sqrt(-1)) for ell = 2 and at Q(omega) for odd ell.  Their Galois
# group, {k = 1 mod 4} or {k = 1 mod ell}, meets {+-1} only in 1, so the
# last element is the norm of the real f(zeta) from Q(zeta)^+ to the
# real subfield of Q(sqrt(-1)) or Q(omega): M_i is the last element
# itself for ell <= 3, and its norm from Q(omega)^+ for ell >= 5
# (_read).  A nonzero irrational part raises ArithmeticError.  The norm
# from Q(omega)^+ of a real y has two engines of equal value: Galois
# doubling (_real_norm), O(log ell) products of elements of (ell + 1)/2
# components, and Res(Psi_ell, Y) for y = Y(omega + 1/omega)
# (_psi_norm), a subresultant sequence from Psi_ell, of degree (ell -
# 1)/2, against Y, whose degree is y's top component.  A folded step
# takes Galois doubling, whose products it reduces as it goes.  Every
# unfolded element, of an integral or an ell-adic tower, at an unfolded
# step or at the last read, takes one rule by ell (_exact_norm): Galois
# doubling below RESULTANT_ELL, the resultant from there on.
#
# Each element is one int, its coefficients packed w bits apart
# (Kronecker substitution), so a step is a few big-int operations: masks
# split off the residue classes mod ell, whose slots then lie ell w bits
# apart, and the product is folded as an integer mod Phi_(ell^j)(2^w)
# (_fold): with X = 2^(w ell^(j-1)), p is first reduced mod X^ell - 1,
# then its top X-digit is taken off the rest in one subtraction, as
# X^(ell-1) = -(1 + X + ... + X^(ell-2)) mod Phi_(ell^j)(2^w).  Down an
# ell-adic tower the block w ell^(j-1) is w_0 ell^(i-2) at every step,
# since w grows by ell as j falls, so one set of fold constants serves a
# whole level norm, its _real_norm products included; _fold keeps the
# last set.  An ell-adic level norm starts from f's terms at that block
# too: as Phi_(ell^i)(T) = Phi_(ell^(i-1))(T^ell) for i >= 2, reduction
# mod Phi_(ell^i) keeps each residue class C_r(T^ell) of f = sum_r T^r
# C_r(T^ell) apart, so the class packed at width w, slot e // ell, is
# folded on its own, X = 2^(w ell^(i-2)).  One rule sizes the slots
# (_width): a step from a representative U of 1-norm at most size has
# slots of w = bits(size^ell) + 1 bits, so they hold size^ell.  The
# unfolded product U' has ||U'||_1 <= ||U||_1^ell.  A folded coordinate
# depends only on the element, not on the representative it was reduced
# from, and it is a_k - a_(phi + k mod n) for the coefficients a of U'
# (T^(phi + r) = -sum_(t < ell - 1) T^(r + t n), n = ell^(j-1)), so it
# too is at most ||U||_1^ell.  Taking each U' as the next
# representative, a coordinate s steps down is at most size^(ell^s) <
# 2^((w - 1) ell^(s-1)), which slots of w ell^(s-1) bits hold.

# The least ell whose unfolded elements take Res(Psi_ell, Y) (_exact_norm),
# measured on six towers: the theta of demos/specs/theta_ell5.json, two
# bouquets with loops a, b and 1 (a, b in [-4, 4]), the 3-vertex base
# with edges v1-v2, v2-v3, v1-v2, v1-v2, v3-v3 and voltages -3, -2, 2, 6,
# -6 (U of degree 30), and two ell-adic bouquets with a sqrt, a padic and
# a unit voltage.  Each engine was timed on the same unfolded elements,
# best of two (2-core x86-64, shared, Python 3.11).  The faster engine
# depends on y's top component as well as on ell: the short U of the
# theta and the bouquets take the resultant faster from about ell = 41
# on, U of degree 30 takes doubling faster up to ell = 113, and the full
# y of an ell-adic tower's last read at every ell measured, to 151.
# Seconds at level 3, doubling / resultant (one bouquet):
#
#     ell      37         43         47         53         61         73         101
#     deg 30   1.13/5.20  3.69/12.7  7.67/18.8  4.91/35.4  10.3/-
#     theta    .012/.005  .059/.007  .094/.009  .085/.019  .171/.028  .607/.063  3.62/.186
#     bouquet  .068/.086  .332/.093  .699/.090  .519/.160  1.62/.397  4.56/.593
#
# The rule follows what each tower reaches in 10 s, the north star's
# measure.  Up to ell = 53 the degree-30 U reaches level 3 by doubling
# alone, and its seconds outweigh the short U's; from 59 on its level 3
# takes more than 10 s by either engine (doubling 24.4 s at 59 and 10.3 s
# at 61, the resultant 35.4 s already at 53), and the short U's level 3,
# 4-20 times faster by the resultant, decide.  At
# level 2 alone doubling takes less summed over the six up to ell = 113
# (101: 0.44 s against 0.97 s), as the long and full y cost most there.
RESULTANT_ELL = 59


def _width(size: int, ell: int) -> int:
    """The slot width of a step from an element of 1-norm at most size,
    a multiple of ell for ell >= 5, as _norm_step reads U at 2^(w/ell)."""
    w = (size**ell).bit_length() + 1
    return w if ell <= 3 else -(-w // ell) * ell


def _integral_norm(u: IntPoly, b: int, ell: int, i: int) -> int:
    """M_i for ell^i > 2 from U = T^b f, read as zeta^(-b) U(zeta); each
    ell = 2 step multiplies zeta^(-b) by (-1)^b, which squares away at
    the next one.  Every step is sized by the current U's own 1-norm and
    unpacked after it.  Once U's coefficients outnumber phi(ell^j), the
    step folds at the block w ell^(j-1): its product is reduced mod
    Phi_(ell^j), and for ell >= 5 so is every product inside it; until
    then the step is exact, and U' has U's length."""
    stop = 2 if ell == 2 else 1  # Q(sqrt(-1)) or Q(omega)
    digits = list(u.coeffs)
    for j in range(i - 1, stop - 1, -1):
        w = _width(sum(map(abs, digits)), ell)
        phi = (ell - 1) * ell ** (j - 1)  # the slots of a folded element at level j
        block = w * ell ** (j - 1) if len(digits) > phi else 0
        p = _norm_step([pack(enumerate(digits[r::ell]), w) for r in range(ell)], w, block)
        if block:
            p = _fold(p, ell, block)
        digits = unpack(p, w, min(len(digits), phi))
    m = _read(enumerate(digits), b, ell)
    return -m if ell == 2 and b % 2 and i > stop else m


def _adic_norm(terms: list[tuple[int, int]], ell: int, i: int) -> int:
    """M_i for ell^i > 2 from the terms (e mod ell^i, c) of f, a
    representative of 1-norm size = sum |c|, kept folded and packed at
    every level: class r of the terms, e = r (mod ell), packed at slot e
    // ell, is folded into Z[T]/(Phi_(ell^i)) class by class, and after
    each step the residue classes of the product are split off at ell
    times the width.  The fold block w ell^(j-1) of the step from level
    j is w_0 ell^(i-2) at every j, as w grows by ell when j falls by
    one, so every _fold of the call reuses one set of constants.  At the
    last level the terms go to _read as they are: it sums their
    exponents mod 4 or mod ell."""
    stop = 2 if ell == 2 else 1  # Q(sqrt(-1)) or Q(omega)
    if i == stop:
        return _read(terms, 0, ell)
    w = _width(sum(abs(c) for _, c in terms), ell)
    block = w * ell ** (i - 2)
    # combs[t]: a one every w ell^t bits below 2^((ell - 1) block), where
    # every folded element of the call lies; built sparsest first, each
    # by ell copies of the last
    combs = [repunit(w * ell ** (i - 1 - stop), (ell - 1) * ell ** (stop - 1))]
    for t in range(i - 2 - stop, -1, -1):
        combs.append(repunit(w * ell**t, ell, combs[-1]))
    combs.reverse()
    classes = [_fold(pack(((e // ell, c) for e, c in terms if e % ell == r), w), ell, block)
               for r in range(ell)]
    for t, j in enumerate(range(i - 1, stop - 1, -1)):
        p = _fold(_norm_step(classes, w, block), ell, block)
        if j > stop:
            classes = _split(p, ell, w, combs[t], combs[t + 1])
            w *= ell
    return _read(enumerate(unpack(p, w, max(ell - 1, 2))), 0, ell)  # phi(4) or phi(ell) slots


def _norm_step(classes: list[int], w: int, block: int) -> int:
    """U' at S = 2^w from the packed residue classes C_r(S) of U(T) =
    sum_(r < ell) T^r C_r(T^ell).  ell = 2 and 3 return it exactly, by
    the closed forms E(S)^2 - S O(S)^2 and X^3 + S Y^3 + S^2 Z^3 - 3 S
    XYZ, and do not read block.  Larger ell, with w a multiple of ell,
    return it exactly when block is 0, and otherwise only mod
    Phi_(ell^j)(x) = sum_(t < ell) 2^(block t), x = 2^(w / ell), which
    _fold then reads.

    They take U'(x^ell) = U(x) N(beta), for beta = U(omega x) =
    sum_r X_r omega^r with X_r = x^r C_r(x^ell) and N the norm from
    Q(omega), over Z[x] (Washington, GTM 83, ch. 2 and 8): N(beta) =
    N_(Q(omega)^+/Q)(y) for y = beta beta-bar, where beta-bar is the
    mirror r -> -r and y has the components c_d = sum_r X_r X_(r-d) =
    c_(-d), summed over the pairs of nonzero classes.  Without a block,
    N is taken exactly, by _exact_norm's rule on ell.  With one, every
    product is reduced mod Phi_(ell^j)(x), j the level of U, which keeps
    the components at the element's size: Z[x] -> Z/Phi_(ell^j)(x) is a
    ring map, and as Phi_(ell^j)(x) = Phi_(ell^(j-1))(S), U'(S) reduced
    mod it is the folded element at level j - 1.  So no intermediate
    needs a slot bound: only that element's coefficients must fit in w
    bits."""
    ell = len(classes)
    if ell == 2:
        e, o = classes
        return e * e - (o * o << w)
    if ell == 3:
        x, y, z = classes
        return x * x * x + ((y * y * y + (z * z * z << w) - 3 * x * y * z) << w)
    xs = [(r, c << (r * (w // ell))) for r, c in enumerate(classes) if c]
    y = [0] * (ell // 2 + 1)
    for k, (r, x) in enumerate(xs):
        y[0] += x * x
        for s, z in xs[k + 1:]:
            y[_half(s - r, ell)] += x * z
    u = sum(x for _, x in xs)
    if block:
        return u * _real_norm([_fold(c, ell, block) for c in y], ell, block)
    return u * _exact_norm(y, ell)


def _exact_norm(y: list[int], ell: int) -> int:
    """N_(Q(omega)^+/Q)(y) of an unfolded real y = sum_(d < ell) y_|d|
    omega^d, given by y_0, ..., y_h: by Galois doubling (_real_norm) for
    ell below RESULTANT_ELL, and as Res(Psi_ell, Y) (_psi_norm) from it
    on."""
    return _real_norm(y, ell) if ell < RESULTANT_ELL else _psi_norm(y, ell)


def _real_norm(y: list[int], ell: int, block: int = 0) -> int:
    """N_(Q(omega)^+/Q)(y) for the real y = sum_(d < ell) y_|d| omega^d,
    given by y_0, ..., y_h, h = (ell - 1)/2: the product of sigma_(g^a)(y)
    over a < h, with g^a representing (Z/ell)^*/{+-1}, by Galois doubling
    on P_k = prod_(a < k) sigma_(g^a)(y): P_(2k) = P_k sigma_(g^k)(P_k),
    P_(k+1) = y sigma_g(P_k).  The last product is rational, c_0 -
    c_(ell-1) = c_0 - c_1 = sum_r u_r (v_(-r) - v_(1-r)), read in h + 1
    products.  With a block, every component is reduced mod sum_(t <
    ell) 2^(block t) (_fold); without one, the norm is exact.  The
    steps, the conjugations and the components each product adds to are
    tabled once per ell (_real_plan)."""
    h = ell // 2
    if h == 1:
        return y[0] - y[1]
    steps, targets = _real_plan(ell)
    p = y
    for add, source in steps[:-1]:
        u, v = (y if add else p), [p[d] for d in source]
        p = [0] * (h + 1)
        for ua, row in zip(u, targets):
            for vb, es in zip(v, row):
                prod = ua * vb
                for e in es:
                    p[e] += prod
        if block:
            p = [_fold(c, ell, block) for c in p]
    add, source = steps[-1]
    u, v = (y if add else p), [p[d] for d in source]
    value = u[0] * (v[0] - v[1]) + sum(ua * (2 * v[a] - v[a - 1] - v[_half(a + 1, ell)])
                                       for a, ua in enumerate(u) if a)
    return _fold(value, ell, block) if block else value


@lru_cache(maxsize=1)
def _real_plan(ell: int) -> tuple[tuple, tuple]:
    """_real_norm's steps and product table for one ell, h = (ell - 1)/2.
    A step is (add, source): it takes P_(k+1) = y sigma_g(P_k) when add
    and P_(2k) = P_k sigma_(g^k)(P_k) when not, and the conjugate has
    the components v_d = p_source[d] (sigma_s sends omega^d to
    omega^(s d)).  targets[a][b] lists the components e <= h of
    omega^(+-a) omega^(+-b), 0 counted once as a sign, so that a
    product u_a v_b adds to p_e once for each."""
    h = ell // 2
    g = next(g for g in range(2, ell) if len({_half(pow(g, a, ell), ell) for a in range(h)}) == h)

    def source(s):
        inverse = pow(s, -1, ell)
        return tuple(_half(inverse * d, ell) for d in range(h + 1))

    steps, k = [], 1
    for bit in bin(h)[3:]:  # per bit of h after the first: double k, then add one for a 1
        steps.append((False, source(pow(g, k, ell))))
        k *= 2
        if bit == "1":
            steps.append((True, source(g)))
            k += 1
    targets = tuple(tuple(tuple(e for r in {a, -a} for s in {b, -b} if (e := (r + s) % ell) <= h)
                          for b in range(h + 1)) for a in range(h + 1))
    return tuple(steps), targets


def _psi_norm(y: list[int], ell: int) -> int:
    """N_(Q(omega)^+/Q)(y), as _real_norm without a block, for the real
    y = sum_(d < ell) y_|d| omega^d with top component t: omega^t y is
    P(omega) for the palindrome P of degree 2t, and P(T) = T^t Y(T +
    1/T) (intpoly.real_form), so y = Y(omega + 1/omega) and its norm is
    Y's product over the roots of the monic Psi_ell = real_form(Phi_ell),
    Res(Psi_ell, Y).  ell = 3 takes no resultant, as Q(omega)^+ = Q."""
    if ell == 3:
        return y[0] - y[1]
    top = max((d for d, c in enumerate(y) if c), default=-1)
    if top < 0:
        return 0
    return resultant(_psi(ell), real_form(IntPoly(tuple(y[top:0:-1]) + tuple(y[: top + 1]))))


@lru_cache(maxsize=1)
def _psi(ell: int) -> IntPoly:
    """Psi_ell, the minimal polynomial of omega + 1/omega, for _psi_norm,
    in O(ell) operations.  T^-h Phi_ell(T) = sum_(|k| <= h) T^k, h = (ell
    - 1)/2, is U_h(x/2) + U_(h-1)(x/2) at x = T + 1/T, for the Chebyshev
    polynomials of the second kind, U_n(x/2) = sum_(|k| <= n, k = n mod 2)
    T^k = sum_j (-1)^j C(n - j, j) x^(n - 2j); each binomial comes from
    the last by one product and one exact division."""
    h = ell // 2
    coeffs = [0] * (h + 1)
    for n in (h, h - 1):
        c = 1
        for j in range(n // 2 + 1):
            if j:
                c = -c * (n - 2 * j + 2) * (n - 2 * j + 1) // (j * (n - j + 1))
            coeffs[n - 2 * j] += c
    return IntPoly(tuple(coeffs))


def _half(e: int, ell: int) -> int:
    """The representative of +-e mod ell in 0..(ell - 1)/2."""
    e %= ell
    return min(e, ell - e)


def _fold(p: int, ell: int, block: int) -> int:
    """The symmetric residue of p mod Phi_(ell^j)(2^w) = sum_(t < ell) X^t,
    X = 2^block with block = w ell^(j-1): p is reduced mod X^ell - 1
    by adding the bits above X^ell back in, then its top X-digit c is
    taken off the rest in one subtraction, p = lo - c (1 + X + ... +
    X^(ell-2)), as X^(ell-1) = -sum_(t < ell - 1) X^t; c times the
    repunit is built by doubling, in O(log ell) shifts.  Packed
    coefficients below 2^(w-1) make an element smaller than half the
    modulus, so the symmetric residue is the element itself.  The masks
    and the modulus are kept for the last (ell, block) alone
    (_fold_constants): every fold of an ell-adic level norm is at the
    one block w_0 ell^(i-2)."""
    span, span_mask, low, low_mask, modulus = _fold_constants(ell, block)
    while hi := p >> span:
        p = (p & span_mask) + hi
    p = (p & low_mask) - repunit(block, ell - 1, p >> low)
    if 2 * p > modulus:
        return p - modulus
    return p + modulus if 2 * p < -modulus else p


@lru_cache(maxsize=1)
def _fold_constants(ell: int, block: int) -> tuple[int, int, int, int, int]:
    """The span ell block, its mask, the span of the low ell - 1
    X-digits and their mask, and Phi_(ell^j)(2^w), for _fold."""
    span, low = ell * block, (ell - 1) * block
    return span, (1 << span) - 1, low, (1 << low) - 1, repunit(block, ell)


def _split(p: int, ell: int, w: int, slots: int, classes: int) -> list[int]:
    """The ell residue classes of the element p, packed at width ell w,
    given the combs with a one at each of its slots (every w bits) and at
    each slot of a class (every ell w bits): shifted by a bias of
    2^(w-1) per slot, every slot is a w-bit field, and one mask per
    class takes its slots."""
    half = classes << (w - 1)
    q = p + (slots << (w - 1))
    mask = (classes << w) - classes
    return [(q >> (r * w) & mask) - half for r in range(ell)]


def _read(slots, b: int, ell: int) -> int:
    """zeta^(-b) U(zeta) at zeta = sqrt(-1) (ell = 2), or the norm of
    omega^(-b) U(omega) from Q(omega)^+ by _exact_norm's rule on ell (odd
    ell, the element itself for ell = 3), from (exponent, coefficient)
    pairs.  The element must be rational (ell <= 3) or real
    (ell >= 5): the components d and -d of sum_d s_d omega^d must agree."""
    period = 4 if ell == 2 else ell
    sums = [0] * period
    for k, c in slots:
        sums[(k - b) % period] += c
    if ell == 2:  # s0 - s2 + (s1 - s3) sqrt(-1)
        irrational = [sums[1] - sums[3]]
    else:
        irrational = [sums[d] - sums[-d] for d in range(1, ell // 2 + 1)]
    if any(irrational):
        raise ArithmeticError(f"the last norm step left the irrational part {irrational}")
    return sums[0] - sums[2] if ell == 2 else _exact_norm(sums[: ell // 2 + 1], ell)


class Tower:
    """An abelian ell-tower over a fixed voltage assignment.

    Caches the determinant polynomial, level norms and spanning-tree
    counts.  kappa_n = kappa_(n-1) * N_n / ell, the product identity
    taken one level at a time (level norms from level_norm); up to
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
        """M_i from level_norm, with N_i = M_i^norm_power(i).  At levels up to mt_check_level N_i is
        also recomputed by the subresultant route."""
        if i not in self._norms:
            root = level_norm(self.f, i)
            if root == 0:  # tower_problems accepted the tower, so every cover is connected
                raise ArithmeticError(f"level {i} norm vanishes on a connected tower")
            if i <= self.mt_check_level:
                n = root ** self.norm_power(i)
                check = resultant(cyclotomic(self.ell**i), self.f.reduce_level(i))
                if check != n:
                    raise ArithmeticError(
                        f"level-norm cross-check failed at level {i}: "
                        f"level_norm {n} != subresultant {check}"
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
# the stabilization level n0 and its certified bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class N0Search:
    root_levels: tuple[int, ...]
    n1: int


def _has_primitive_root(g: GenPoly, p: int, i: int) -> bool:
    """Does g mod p vanish at some primitive ell^i-th root of unity over
    the residue tower?  Tested as gcd(g at level i, Phi_{ell^i}) != 1
    over F_p, in int64 (exact for p < 2^30), on dense polynomials of
    degree about ell^i; n0_search asks it only for the levels up to the
    report's depth."""
    reduced = g.reduce_level(i)
    phi = cyclotomic(g.ell**i)
    gcd = poly_mod_gcd(reduced.mod_array(p), phi.mod_array(p), p)
    return gcd.size != 1


def n0_search(g: GenPoly, p: int, depth: int = 0) -> N0Search:
    """The certified search for integral g with mu_p(g) = 0: the smallest
    n0 with no primitive ell^i-th-root zero of g mod p for any i >= n0.

    Searched below n1, the first level whose inertia degree exceeds
    dbar = deg(U mod p) (splitting), so the search space is finite.  The
    levels up to depth, those of analyze_prime's norm table, take
    _has_primitive_root's gcd against Phi_(ell^i); the levels from
    depth + 1 to n1 - 1, where Phi_(ell^i) would be dense of degree
    phi(ell^i), take rootladder's powers of T mod (U, p), whose cost
    grows by one ell-th power per level.  The split sits at depth
    because analyze_prime holds N_1..N_depth anyway, so those levels can
    move to the norm test the ell-adic towers take (ord_p(N_i) > mu
    phi(ell^i)), while above depth no norm exists and the ladder is
    exact at any p; depth 0 sends every level to the ladder.  Ell-adic
    towers have no such bound; analyze_prime decides their levels on the
    tower's norms.
    """
    ell = g.ell
    if g.is_zero or all(c % p == 0 for _, c in g.terms):
        raise ValueError("mu(g) must be 0")
    u = g.integerize()[0]
    dbar = u.degree_mod(p)
    n1 = splitting(p, ell, dbar)
    shallow = min(depth, n1 - 1)
    roots = tuple(i for i in range(1, shallow + 1) if _has_primitive_root(g, p, i))
    roots += ladder_root_levels(u.coeffs, p, ell, range(shallow + 1, n1))
    return N0Search(roots, n1)


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

    The product identity read at p: ord_p(kappa_n) is the running sum
    r_n = ord_p(kappa_0) + sum_(i <= n) ord_p(N_i), with ord_p(N_i) =
    e_i ord_p(M_i).  nu = r_(n0) - mu ell^(n0) exactly, never fitted;
    below n0 the prediction is r_n, from n0 on the law mu ell^n + nu.

    Integral towers take n0 from the certified n0_search.  An ell-adic
    level i has a root of g = f/p^mu mod p exactly when ord_p(N_i) >
    mu phi(ell^i), as N_i(f) = p^(mu phi(ell^i)) N_i(g) and Phi_(ell^i) is
    separable mod p: decided up to the stored precision, inconclusive if
    the top level has a root.
    """
    ell = tower.ell
    if p == ell:
        raise PrimeEqualsEllError("use the ell-part Iwasawa fit for p = ell")
    mu, g = mu_invariant(tower.f, p)
    search = n0_search(g, p, depth) if g.integral else None
    top = depth if g.integral else max(depth, g.precision)
    norm_ords = [tower.norm_power(i) * ord_p(tower.real_norm(i), p) for i in range(1, top + 1)]
    if search:
        root_levels = search.root_levels
    else:
        root_levels = tuple(i for i, o in enumerate(norm_ords, start=1)
                            if o > mu * (ell - 1) * ell ** (i - 1))
        if root_levels and root_levels[-1] == top:
            raise InconclusiveError(f"roots persist at the top searchable level {top}; "
                                    "raise the voltage precision for a stabilization estimate")
    n0 = root_levels[-1] + 1 if root_levels else 1

    running = list(accumulate(norm_ords[:depth], initial=ord_p(tower.kappa_base, p)))
    observed = tuple(ord_p(tower.kappa(n), p) for n in range(depth + 1))

    nu = running[n0] - mu * ell**n0 if n0 <= depth else None

    def law(n: int) -> int:
        return mu * ell**n + nu

    predicted = tuple(law(n) if nu is not None and n >= n0 else r for n, r in enumerate(running))

    closed_from = None
    if nu is not None:
        closed_from = n0
        while closed_from > 1 and running[closed_from - 1] == law(closed_from - 1):
            closed_from -= 1

    divides_any = mu > 0 or running[0] > 0 or bool(root_levels)

    # the bound holds for f itself only when mu = 0; otherwise ord_p grows
    n1 = search.n1 if search and mu == 0 else None

    return PrimeAnalysisReport(
        p=p, ell=ell, mu=mu, n0=n0, certified=g.integral,
        root_levels=root_levels, nu=nu, observed=observed,
        predicted=predicted, divides_any=divides_any,
        n1=n1, closed_form_from=closed_from,
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
