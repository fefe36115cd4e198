"""Boundedness of the number of prime divisors of kappa_n.

For integral voltages, write U = T^b * f as an integer polynomial.  The
number of distinct primes omega(kappa_n) stays bounded along the tower
exactly when every root of U is a root of unity; root-of-unity roots of
an integer polynomial all come from cyclotomic factors over Q
(Kronecker), so the test is exact and involves no numerics.

The cyclotomic part needs no search.  For the voltage determinant f of
a tower (a connected base with a cycle voltage prime to ell, as
tower_problems demands), U = c (T^g - 1)^2 V with g the gcd of f's
exponents, c the signed content, and V(zeta) != 0 at every root of
unity zeta; so U's cyclotomic factors are Phi_d^2 for d | g, and
classify_omega divides them out as one exact division by the sparse
monic (T^g - 1)^2.

1. Where U vanishes on the unit circle.  For |z| = 1, L(z) = D - A(z)
   is Hermitian positive semidefinite: x* L(z) x = sum over edges t -> h
   of voltage a of |x_t - z^a x_h|^2, a loop giving |1 - z^a|^2 |x_v|^2.
   A kernel vector has x_t = z^a x_h along every edge, so, on a
   connected base, it is fixed by its value at one vertex, and exists
   exactly when z^c = 1 for the voltage c of every cycle: when z^g' = 1,
   g' the gcd of the cycle voltages.
2. g' = g.  Conjugating L(T) by diag(T^phi(v)), with phi(v) the voltage
   of a tree path from a root to v (the potentials of the base search),
   leaves f unchanged and turns every voltage into a cycle voltage, a
   multiple of g'; so f(T) = F(T^g'), with F the determinant of the
   voltages divided by g'.  Conversely, if h divides every exponent of
   f, then f(zeta_h) = f(1) = 0, so L(zeta_h) is singular and h | g'.
3. Multiplicity exactly 2.  Each g-th root of unity is a simple root of
   T^g - 1, so U vanishes there to the order to which F vanishes at S =
   1.  Along S = e^(it), F is the product of the eigenvalues of a
   Hermitian family whose least one, lambda(t), is simple (the kernel
   at t = 0 is the constants), >= 0 and 0 at t = 0, so of even order at
   least 2.  If lambda(t) = o(t^2), its eigenvector x0 + t x1 + O(t^2),
   x0 the constant c0 != 0, has x1_t - x1_h = i a' c0 on every edge of
   F's voltage a' (each term of the quadratic form is t^2 |x1_t - x1_h -
   i a' c0|^2 + O(t^3)); summed around a cycle this makes every cycle
   voltage of F zero, but they have gcd 1.  So lambda, and F, vanish to
   order exactly 2, and V has no root on the unit circle.

So omega stays bounded exactly when V is a constant.  A U that breaks
the rule (a constant f, a remainder, V(1) = 0) is no voltage
determinant, and classify_omega raises ArithmeticError.

For genuinely ell-adic voltages the criterion does not apply; the
verdict is "inapplicable", and only the omega of each computed level
(count and report, from budgeted factorisations) is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .factorint import DEFAULT_RHO_ITERATIONS, factor_kappa
from .genpoly import GenPoly
from .intpoly import IntPoly

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INAPPLICABLE = "inapplicable"


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
    integer polynomial does not exist).  The cyclotomic part is (T^g -
    1)^2, g the gcd of f's exponents (module docstring): Phi_1 = T - 1
    twice, as unit_root_multiplicity, and Phi_d twice for every d | g, d
    > 1.  The content is factored with at most rho_iterations rho steps:
    content_primes are the primes found, content_cofactor what is left
    unsplit."""
    if not f.integral:
        return OmegaClassification(INAPPLICABLE)
    u, _b = f.integerize()
    sign = 1 if u.leading > 0 else -1  # a zero U raises ZeroPolynomialError here
    g = math.gcd(*(f.lift_exponent(e) for e, _ in f.terms))
    if g == 0:
        raise ArithmeticError("a constant f has no root at 1 (singular Laplacian)")
    # (T^g - 1)^2 is primitive, so by Gauss's lemma U / (T^g - 1)^2 has U's content
    content = sign * u.content()
    square = IntPoly.from_pairs(((0, 1), (g, -2), (2 * g, 1)))
    rest, remainder = u.primitive_part().scale(sign).divmod_by_monic(square)
    if not remainder.is_zero or rest(1) == 0:
        raise ArithmeticError(f"U is not (T^{g} - 1)^2 times a V with V(1) != 0: no voltage determinant")
    divisors = {k for i in range(1, math.isqrt(g) + 1) if g % i == 0 for k in (i, g // i)}
    content_factored = factor_kappa(abs(content), rho_iterations=rho_iterations)
    return OmegaClassification(
        verdict=UNBOUNDED if rest.degree >= 1 else BOUNDED,
        unit_root_multiplicity=2,
        cyclotomic_factors=tuple((d, 2) for d in sorted(divisors) if d > 1),
        content=content,
        non_cyclotomic_part=rest,
        content_primes=tuple(p for p, _ in content_factored.factors),
        content_cofactor=content_factored.cofactor,
    )
