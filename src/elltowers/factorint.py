"""Budgeted integer factorization with certified primes.

Spanning-tree counts in a tower grow doubly fast, so full factorization
is best-effort: batched trial division up to a bound, perfect-power
reduction, then Brent-cycle Pollard rho under an iteration budget.
Whatever the budget leaves unsplit is reported as a composite cofactor.

Trial division takes one gcd per block of BLOCK_SIZE primes against the
block's product (sieved once per process, on first use) and divides out
only the primes of blocks that share a factor (Bernstein's smooth-part
technique); it stops at the first block whose smallest prime squared
exceeds what is left.  What it leaves has no prime factor up to the
trial bound, so the perfect-power search stops at the first exponent
whose root falls below it; it tries prime exponents only, and takes a
root only when power-residue tests modulo small primes let the exponent
pass.

Products are factored piecewise: multiply_factored merges a factored
part into a running factorisation.  The CLI factors kappa_0 and each
level norm once, with an even share of the rho budget, and assembles
every kappa_n from them (ell^n kappa_n = kappa_0 N_1 ... N_n).

Primality of every reported prime is certified: deterministic
Miller-Rabin with the 13 bases 2..41 is a proven primality test below
DETERMINISTIC_MR_BOUND (~3.3e24).  Larger probable primes are never
listed as factors; they stay in the cofactor.  Testing one for
probable primality costs about as many products as its bit length,
which is what that many rho iterations cost, so the test runs only when
the remaining rho budget covers it; otherwise the number stays in the
cofactor with the budget exhausted.
"""

from __future__ import annotations

import decimal
import functools
import math
from array import array
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import compress, count, islice

# The first 13 primes witness compositeness for every composite below this
# bound (Sorenson-Webster).
DETERMINISTIC_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Bases 2, 7, 61 alone witness every composite below this bound (Jaeschke);
# it covers the word-size primes of the multi-modular engines.
_WORD_MR_BOUND = 4_759_123_141
_WORD_MR_BASES = (2, 7, 61)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

TRIAL_BOUND = 10**6
DEFAULT_RHO_ITERATIONS = 10**7
BLOCK_SIZE = 256
# decimal_str converts n of at most this many bits by str(Decimal(n)) alone;
# below about 10^4 bits splitting gains nothing.
DECIMAL_LEAF_BITS = 4096


def decimal_str(n: int) -> str:
    """n in decimal past str(int)'s digit limit, in subquadratic time.

    str(Decimal(n)) converts exactly but in quadratic time, so n above
    DECIMAL_LEAF_BITS is split as hi 2^k + lo at half its bits, both
    halves are converted alone, and hi 2^k + lo is put back together in
    Decimal arithmetic under an exact context (MAX_PREC digits, Inexact
    trapped), whose large products libmpdec takes by number-theoretic
    transform.  Each power 2^k is built once per call, from the powers
    of the level below.  A d-digit n then costs O(log d) levels of
    products of at most d digits: about 0.04 s for 200,000 digits and
    0.25 s for 10^6 (2-core x86-64, Python 3.11), against 0.5 s and 12 s
    for str(Decimal(n))."""
    if n < 0:
        return "-" + decimal_str(-n)
    if n.bit_length() <= DECIMAL_LEAF_BITS:
        return str(Decimal(n))
    powers: dict[int, Decimal] = {}

    def power(k: int) -> Decimal:
        if k not in powers:
            powers[k] = Decimal(1 << k) if k <= DECIMAL_LEAF_BITS else power(k // 2) * power(k - k // 2)
        return powers[k]

    def convert(m: int, bits: int) -> Decimal:
        if bits <= DECIMAL_LEAF_BITS:
            return Decimal(m)
        k = bits // 2
        hi = m >> k
        return convert(hi, bits - k) * power(k) + convert(m - (hi << k), k)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _miller_rabin(n: int, bases) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_certified_prime(n: int) -> bool:
    """True iff n is prime, proven.  Raises for n beyond the proven range,
    unless a small prime divides n."""
    if n >= DETERMINISTIC_MR_BOUND:
        if any(n % p == 0 for p in _SMALL_PRIMES):
            return False  # a division witness needs no Miller-Rabin
        raise ValueError(f"{n} exceeds the deterministic Miller-Rabin range")
    return is_probable_prime(n)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below the proven bound,
    heuristic (but with no known pseudoprimes) above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n, _WORD_MR_BASES if n < _WORD_MR_BOUND else _MR_BASES)


def ord_p(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    return _split_power(abs(n), p)[0]


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(e, n // p**e) for p**e the exact power of p dividing n > 0.

    Divides by p, p^2, p^4, ... while the division is exact, then by the
    same powers back down, so a large e costs O(log e) divisions instead
    of e."""
    e, powers, q = 0, [], p
    while True:
        quotient, remainder = divmod(n, q)
        if remainder:
            break
        n, e = quotient, e + (1 << len(powers))
        powers.append(q)
        q *= q
    # what is left has fewer than 2^len(powers) factors p: one bit per power
    for bit in range(len(powers) - 1, -1, -1):
        quotient, remainder = divmod(n, powers[bit])
        if not remainder:
            n, e = quotient, e + (1 << bit)
    return e, n


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, exactly, in integers only.

    k = 2 is math.isqrt.  For k >= 3 let R be the real root, so R >= 2^q
    with q = (bits(n) - 1) // k.  The start x = (r + 1) 2^s, with r the
    root of n >> s k found the same way, lies above R by at most e = 2^s.
    The Newton map g(x) = ((k - 1) x + n / x^(k - 1)) / k has g(R) = R,
    g'(R) = 0 and g'' <= (k - 1) / R above R, so one step from above
    leaves R <= g(x) <= R + (k - 1) e^2 / (2R) < R + 1, as 2s +
    bits(k - 1) <= q + 1.  The step, in integers, gives floor(g(x)):
    floor(R) or floor(R) + 1, and one power settles which.  Only that
    step and that power run at full size.  Where no s >= 1 fits, the
    root has a few bits, below 2^(q + 1), and is taken bit by bit from
    the top.
    """
    if n < 0 or k < 1:
        raise ValueError
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    q = (n.bit_length() - 1) // k
    s = (q + 1 - (k - 1).bit_length()) // 2
    if s < 1:
        x = 0
        for b in range(q, -1, -1):
            if (x | 1 << b) ** k <= n:
                x |= 1 << b
        return x
    x = (integer_nth_root(n >> s * k, k) + 1) << s
    y = ((k - 1) * x + n // x ** (k - 1)) // k
    return y - 1 if y**k > n else y


def perfect_power(n: int, floor: int = 2) -> tuple[int, int] | None:
    """(b, k) with n = b**k and k maximal >= 2, or None.

    floor is a lower bound on every prime factor of n (2 when nothing is
    known), hence on any base b: the search stops at the first exponent
    whose integer root falls below it.  Only prime exponents are tried,
    each as often as it divides k (b**k is a p-th power exactly for the
    primes p dividing k, b no power), and a root is taken only when no
    residue test rules p out (_may_be_power).
    """
    if n < 4:
        return None
    floor = max(floor, 2)
    base, k, p = n, 1, 2
    # past this p, floor**p > base: every root is below the floor
    while p * (floor.bit_length() - 1) < base.bit_length():
        if _may_be_power(base, p):
            root = integer_nth_root(base, p)
            if root < floor:
                break
            if root**p == base:
                base, k = root, k * p
                continue
        p += 1 + p % 2  # the next odd number
        while not is_certified_prime(p):
            p += 2
    return (base, k) if k > 1 else None


def _may_be_power(n: int, p: int) -> bool:
    """False when n is shown not to be a p-th power: modulo a prime r = 1
    (mod p), the p-th powers of units are the x with x^((r-1)/p) = 1,
    a 1/p share of them."""
    for r in _residue_primes(p):
        x = n % r
        if x and pow(x, (r - 1) // p, r) != 1:
            return False
    return True


@functools.cache
def _residue_primes(p: int) -> tuple[int, ...]:
    """The three least odd primes r = 1 (mod p)."""
    step = p if p % 2 == 0 else 2 * p
    return tuple(islice((r for r in count(1 + step, step) if is_certified_prime(r)), 3))


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """One Brent-cycle rho attempt; returns a nontrivial factor or None.

    budget is a single-element list of remaining iterations, decremented
    in place so nested calls share one allowance.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while budget[0] > 0:
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1 and budget[0] > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and budget[0] > 0:
                ys = y
                steps = min(m, r - k, budget[0])
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget[0] -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:  # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
        c += 1  # cycle degenerated; retry with a new polynomial
    return None


@dataclass(frozen=True)
class FactoredInteger:
    """value = cofactor * prod(p**e); every listed p is a certified prime.

    rho_iterations and budget_exhausted say what the rho stage did: the
    iterations it spent, and whether it ran out of them (as opposed to
    leaving only probable primes it cannot certify).  They describe the
    work, not the number, so they take no part in equality.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1
    rho_iterations: int = field(default=0, compare=False)
    budget_exhausted: bool = field(default=False, compare=False)

    def __post_init__(self):
        prod = self.cofactor
        for p, e in self.factors:
            prod *= p**e
        if prod != self.value:
            raise ValueError("factorization does not reconstruct the value")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def omega(self) -> tuple[int, bool]:
        """(number of distinct primes, exact?).  When the cofactor is
        nontrivial the count is a lower bound: the cofactor hides at
        least one more prime not among the listed ones."""
        count = len(self.factors)
        if self.cofactor == 1:
            return count, True
        return count + 1, False

    def __str__(self) -> str:
        if not self.factors and self.cofactor == 1:
            return "1"
        parts = [decimal_str(p) + (f"^{e}" if e > 1 else "") for p, e in self.factors]
        if self.cofactor != 1:
            parts.append(f"C{decimal_str(self.cofactor)}")
        return " * ".join(parts)


def factor_kappa(n: int, rho_iterations: int = DEFAULT_RHO_ITERATIONS) -> FactoredInteger:
    """Best-effort factorization of n >= 1: trial division up to
    TRIAL_BOUND (read at each call), then rho within the budget."""
    if n < 1:
        raise ValueError("expected a positive integer")
    if n == 1:
        return FactoredInteger(1, ())

    found: dict[int, int] = {}
    rest = n
    for product, block in _prime_blocks(TRIAL_BOUND):
        if block[0] * block[0] > rest:
            break
        g = math.gcd(rest, product)  # the product of the block's primes dividing rest
        for p in block:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                found[p], rest = _split_power(rest, p)
    floor = TRIAL_BOUND + 1  # no prime up to the trial bound is left
    budget = [rho_iterations]
    exhausted = False
    cofactor = 1
    stack: list[tuple[int, int]] = [(rest, 1)] if rest > 1 else []
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        pp = perfect_power(m, floor)
        if pp is not None:
            stack.append((pp[0], mult * pp[1]))
            continue
        if m < DETERMINISTIC_MR_BOUND:
            if is_certified_prime(m):
                found[m] = found.get(m, 0) + mult
                continue
        elif budget[0] >= m.bit_length() and is_probable_prime(m):
            # probably prime but not certifiable here; report honestly
            cofactor *= m**mult
            continue
        f = _brent_rho(m, budget)
        if f is None:
            exhausted = True
            cofactor *= m**mult
            continue
        stack.append((f, mult))
        stack.append((m // f, mult))

    cofactor = _finalize_cofactor(cofactor, found, floor)
    factors = tuple(sorted(found.items()))
    return FactoredInteger(n, factors, cofactor, rho_iterations - budget[0], exhausted)


def multiply_factored(exps: dict[int, int], cofactor: int, part: FactoredInteger,
                      power: int = 1) -> int:
    """Multiply part**power into the running product cofactor * prod(p**exps[p]).

    exps gains the part's exponents in place.  The returned cofactor is
    the old one times the part's, cleaned by _finalize_cofactor so that
    it stays coprime to every prime of exps.  The parts are factor_kappa
    results, so no unsplit cofactor has a prime factor up to TRIAL_BOUND.
    """
    for p, e in part.factors:
        exps[p] = exps.get(p, 0) + power * e
    return _finalize_cofactor(cofactor * part.cofactor**power, exps, TRIAL_BOUND + 1)


def _finalize_cofactor(cofactor: int, found: dict[int, int], floor: int = 2) -> int:
    """Strip certified primes out of an unsplit cofactor.

    Keeps the cofactor coprime to every listed factor (so omega lower
    bounds stay honest lower bounds) and absorbs it entirely whenever
    the leftover turns out to be a certifiable prime or prime power.
    floor bounds the prime factors of the cofactor, as in perfect_power.
    """
    for p in found:
        e, cofactor = _split_power(cofactor, p)
        found[p] += e
    if cofactor > 1:
        pp = perfect_power(cofactor, floor)
        base, mult = pp if pp else (cofactor, 1)
        if base < DETERMINISTIC_MR_BOUND and is_certified_prime(base):
            found[base] = found.get(base, 0) + mult
            cofactor = 1
    return cofactor


@functools.cache
def _prime_blocks(bound: int) -> tuple[tuple[int, array], ...]:
    """The primes <= bound in blocks of BLOCK_SIZE, each block as
    (the product of its primes, its primes)."""
    if bound < 2:
        return ()
    odd = bytearray([1]) * ((bound + 1) // 2)  # odd[k] stands for 2k + 1
    for k in range(1, (math.isqrt(bound) + 1) // 2):
        if odd[k]:
            p, start = 2 * k + 1, 2 * k * (k + 1)  # odd[start] stands for p * p
            odd[start::p] = bytes(len(range(start, len(odd), p)))
    ps = array("I", compress(range(1, bound + 1, 2), odd))
    ps[0] = 2  # odd[0] (the number 1) was kept as the slot for 2
    blocks = (ps[k : k + BLOCK_SIZE] for k in range(0, len(ps), BLOCK_SIZE))
    return tuple((math.prod(block), block) for block in blocks)
