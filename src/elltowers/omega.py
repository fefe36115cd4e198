"""Boundedness of the number of prime divisors of kappa_n.

For integral voltages, write U = T^b * f as an integer polynomial and
strip the forced (T-1)^m factor.  The number of distinct primes omega
(kappa_n) stays bounded along the tower exactly when every remaining
root of U is a root of unity; root-of-unity roots of an integer
polynomial all come from cyclotomic factors over Q (Kronecker), so the
test is exact trial division by every Phi_d with phi(d) <= deg, no
numerics involved.

For genuinely ell-adic voltages the criterion does not apply; the
verdict is "inapplicable", and only the omega of each computed level
(count and report, from budgeted factorisations) is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorint import factor_kappa
from .genpoly import GenPoly
from .intpoly import IntPoly, cyclotomic, euler_phi, unit_root_factor

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INAPPLICABLE = "inapplicable"


def _cyclotomic_candidates(max_degree: int) -> list[int]:
    """All d >= 2 with phi(d) <= max_degree."""
    if max_degree < 1:
        return []
    out = []
    d = 2
    # phi(d) > sqrt(d/2), so d <= 2*(max_degree^2 + 1) exhausts the range
    while d <= 2 * (max_degree * max_degree + 1):
        if euler_phi(d) <= max_degree:
            out.append(d)
        d += 1
    return out


def strip_cyclotomics(u1: IntPoly) -> tuple[tuple[tuple[int, int], ...], IntPoly]:
    """Divide out every cyclotomic factor of u1 (with multiplicity);
    returns ((d, multiplicity), ...) and the cyclotomic-free remainder."""
    if u1.is_zero:
        raise ValueError("zero polynomial")
    found = []
    rest = u1
    for d in _cyclotomic_candidates(rest.degree):
        phi = cyclotomic(d)
        if phi.degree > rest.degree:
            continue
        mult = 0
        while phi.divides(rest):
            rest = rest.exact_div_monic(phi)
            mult += 1
        if mult:
            found.append((d, mult))
    return tuple(found), rest


@dataclass(frozen=True)
class OmegaClassification:
    verdict: str
    unit_root_multiplicity: int | None = None
    cyclotomic_factors: tuple[tuple[int, int], ...] = ()
    content: int | None = None  # signed: content of U1 times its leading sign
    non_cyclotomic_part: IntPoly | None = None
    content_primes: tuple[int, ...] = ()


def classify_omega(f: GenPoly) -> OmegaClassification:
    """Bounded/unbounded verdict for omega(kappa_n) along the tower of f.

    Unbounded exactly when U keeps a non-cyclotomic factor; inapplicable
    when the voltages were not declared integral (the reduction to an
    integer polynomial does not exist)."""
    if not f.integral:
        return OmegaClassification(INAPPLICABLE)
    u, _b = f.integerize()
    m, u1 = unit_root_factor(u)
    content = u1.content() * (1 if u1.leading > 0 else -1)
    factors, rest = strip_cyclotomics(u1.primitive_part().scale(1 if u1.leading > 0 else -1))
    verdict = UNBOUNDED if rest.degree >= 1 else BOUNDED
    content_primes = tuple(p for p, _ in factor_kappa(abs(content)).factors)
    return OmegaClassification(
        verdict=verdict,
        unit_root_multiplicity=m,
        cyclotomic_factors=factors,
        content=content,
        non_cyclotomic_part=rest,
        content_primes=content_primes,
    )
