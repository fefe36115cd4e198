"""Truncated ell-adic integers.

An element of Z_ell known modulo ell**N is stored as its residue in
[0, ell**N).  Values are only built (from an integer or as a square
root), reduced and printed: voltages never do ell-adic arithmetic.
There is no silent zero-padding, so asking for more digits than were
ever computed (reduce past the precision) raises PrecisionError.
"""

from __future__ import annotations

from dataclasses import dataclass


class PrecisionError(ValueError):
    """A computation asked for more ell-adic digits than are stored."""


class NonResidueError(ValueError):
    """The radicand has no square root in Z_ell."""


@dataclass(frozen=True)
class TruncatedPadic:
    ell: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("ell must be a prime >= 2")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.ell**self.precision)

    def reduce(self, n: int) -> int:
        """Residue modulo ell**n, for n <= precision."""
        if n < 0:
            raise ValueError("level must be >= 0")
        if n > self.precision:
            raise PrecisionError(
                f"known only mod {self.ell}^{self.precision}, asked mod {self.ell}^{n}"
            )
        return self.residue % self.ell**n

    def digits(self) -> list[int]:
        """Base-ell digits d0..d(N-1), least significant first."""
        out, r = [], self.residue
        for _ in range(self.precision):
            out.append(r % self.ell)
            r //= self.ell
        return out

    def __str__(self) -> str:
        d = self.digits()
        return f"{d[0]}." + "".join(str(x) for x in d[1:]) + f" (base {self.ell})"


def padic_sqrt(d: int, ell: int, precision: int, branch: int) -> TruncatedPadic:
    """Square root of d in Z_ell, truncated to the given precision.

    Z_ell contains two square roots +-x of any admissible d; `branch`
    selects one of them by its residue mod ell (odd ell) or mod 4
    (ell = 2: any odd branch, b and b + 4 giving the same root), so it
    is required, never a guess.

    Admissibility: d must be a unit square, i.e. a nonzero quadratic
    residue mod ell for odd ell, and d = 1 mod 8 for ell = 2.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")

    if ell == 2:
        if d % 2 == 0:
            raise NonResidueError("radicand must be a 2-adic unit")
        if d % 8 != 1:
            raise NonResidueError(f"{d} is not a square in Z_2 (need d = 1 mod 8)")
        if branch % 2 == 0:
            raise NonResidueError(f"branch {branch} is even; the square roots of {d} in Z_2 are odd")
        # Lift x^2 = d (mod 2^k) one bit at a time; the solution set mod 2^k
        # is {+-x, +-x + 2^(k-1)}, so x mod 2^(k-1) is pinned by x mod 4:
        # the first step picks whichever of b, b + 4 squares to d mod 16.
        target = precision + 1
        x = branch % 8
        for k in range(3, target):
            if (x * x - d) % (1 << (k + 1)):
                x += 1 << (k - 1)
        return TruncatedPadic(2, precision, x)

    if d % ell == 0:
        raise NonResidueError("radicand must be an ell-adic unit")
    if pow(d, (ell - 1) // 2, ell) != 1:
        raise NonResidueError(f"{d} is not a quadratic residue mod {ell}")
    b = branch % ell
    if pow(b, 2, ell) != d % ell:
        raise NonResidueError(f"branch {branch} is not a root of {d} mod {ell}")
    # Hensel: x -> x - (x^2 - d)/(2x), one ell-adic digit per step.
    x, mod = b, ell
    for _ in range(precision - 1):
        mod *= ell
        x = (x - (x * x - d) * pow(2 * x, -1, mod)) % mod
    return TruncatedPadic(ell, precision, x)
