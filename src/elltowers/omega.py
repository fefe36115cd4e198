"""Boundedness of the number of prime divisors of kappa_n.

For integral voltages, write U = T^b * f as an integer polynomial.  The
number of distinct primes omega(kappa_n) stays bounded along the tower
exactly when every root of U is a root of unity; root-of-unity roots of
an integer polynomial all come from cyclotomic factors over Q
(Kronecker), so the test is exact and involves no numerics.
strip_cyclotomics divides U by Phi_d for every d with phi(d) <= deg U,
from d = 1 up: the candidate orders are built from prime powers, with
phi(p^k) = (p - 1) p^(k-1), and each attempt is one exact division by
a monic Phi_d, made only when Phi_d(a) divides U(a) at a = 2 and 3 (a
necessary condition that rules out almost every d at the cost of two
integer remainders).  Phi_1 = T - 1 is the forced root of the singular
Laplacian, so its multiplicity is at least one; a U without that root
is no voltage determinant, and classify_omega raises ArithmeticError.

For genuinely ell-adic voltages the criterion does not apply; the
verdict is "inapplicable", and only the omega of each computed level
(count and report, from budgeted factorisations) is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorint import DEFAULT_RHO_ITERATIONS, factor_kappa, is_certified_prime
from .genpoly import GenPoly
from .intpoly import IntPoly, ZeroPolynomialError, cyclotomic, cyclotomic_value

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INAPPLICABLE = "inapplicable"


def _cyclotomic_orders(max_degree: int) -> list[int]:
    """Every d with phi(d) <= max_degree, ascending.  Each d is built once
    from its prime powers by increasing prime; a prime p of such a d has
    phi(p) = p - 1 <= max_degree."""
    orders = [(1, 1)]  # (d, phi(d))
    for p in range(2, max_degree + 2):
        if not is_certified_prime(p):
            continue
        for d, phi in list(orders):
            power, phi_power = p, p - 1
            while phi * phi_power <= max_degree:
                orders.append((d * power, phi * phi_power))
                power, phi_power = power * p, phi_power * p
    return sorted(d for d, phi in orders if phi <= max_degree)


def strip_cyclotomics(u: IntPoly) -> tuple[tuple[tuple[int, int], ...], IntPoly]:
    """Divide out every cyclotomic factor of u, Phi_1 = T - 1 included,
    with multiplicity; returns ((d, multiplicity), ...) by ascending d
    and the cyclotomic-free remainder."""
    if u.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    found = []
    rest = u
    # Phi_d | rest forces Phi_d(a) | rest(a), and Phi_d(a) >= 1 for a >= 2
    values = [rest(2), rest(3)]
    for d in _cyclotomic_orders(u.degree):
        at = [cyclotomic_value(d, 2), cyclotomic_value(d, 3)]
        mult = 0
        while all(v % p == 0 for v, p in zip(values, at)):
            quotient, remainder = rest.divmod_by_monic(cyclotomic(d))
            if not remainder.is_zero:
                break
            rest, mult = quotient, mult + 1
            values = [v // p for v, p in zip(values, at)]
        if mult:
            found.append((d, mult))
    return tuple(found), rest


@dataclass(frozen=True)
class OmegaClassification:
    verdict: str
    unit_root_multiplicity: int | None = None
    cyclotomic_factors: tuple[tuple[int, int], ...] = ()
    content: int | None = None  # signed: content of U times its leading sign
    non_cyclotomic_part: IntPoly | None = None
    content_primes: tuple[int, ...] = ()
    content_cofactor: int | None = None  # the part of |content| left unsplit, 1 when complete


def classify_omega(f: GenPoly, rho_iterations: int = DEFAULT_RHO_ITERATIONS) -> OmegaClassification:
    """Bounded/unbounded verdict for omega(kappa_n) along the tower of f.

    Unbounded exactly when U keeps a non-cyclotomic factor; inapplicable
    when the voltages were not declared integral (the reduction to an
    integer polynomial does not exist).  The content is factored with at
    most rho_iterations rho steps: content_primes are the primes found,
    content_cofactor what is left unsplit."""
    if not f.integral:
        return OmegaClassification(INAPPLICABLE)
    u, _b = f.integerize()
    sign = 1 if u.leading > 0 else -1  # a zero U raises ZeroPolynomialError here
    # (T - 1)^m is primitive, so by Gauss's lemma U / (T - 1)^m has U's content
    content = sign * u.content()
    factors, rest = strip_cyclotomics(u.primitive_part().scale(sign))
    if not factors or factors[0][0] != 1:
        raise ArithmeticError("expected 1 to be a root (singular Laplacian)")
    verdict = UNBOUNDED if rest.degree >= 1 else BOUNDED
    content_factored = factor_kappa(abs(content), rho_iterations=rho_iterations)
    return OmegaClassification(
        verdict=verdict,
        unit_root_multiplicity=factors[0][1],
        cyclotomic_factors=factors[1:],
        content=content,
        non_cyclotomic_part=rest,
        content_primes=tuple(p for p, _ in content_factored.factors),
        content_cofactor=content_factored.cofactor,
    )
