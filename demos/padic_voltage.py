"""A tower whose voltage is a genuine 2-adic integer: sqrt(17).

17 = 1 mod 8, so it has two square roots in Z_2; we take the branch
congruent to 1 mod 8 and truncate at 8 digits.  The exponents of the
determinant polynomial are then not integers, the integer polynomial U
does not exist, and the omega criterion reports "inapplicable" -- but
level norms, spanning-tree counts, and per-prime valuations still work
up to the stored precision.
"""

from elltowers import (
    Multigraph,
    Tower,
    TruncatedPadic,
    VoltageAssignment,
    analyze_prime,
    classify_omega,
    iwasawa_fit_ell,
    padic_sqrt,
)

root = padic_sqrt(17, ell=2, precision=8, branch=1)
print("sqrt(17) =", root, "   (residue", root.residue, "mod 2^8)")
print("check: residue^2 - 17 =", root.residue**2 - 17,
      "= 0 mod 2^8?", (root.residue**2 - 17) % 2**8 == 0)

graph = Multigraph.bouquet(2)
five = TruncatedPadic(2, 8, 5)
va = VoltageAssignment.from_padics(graph, [root, five])
tower = Tower(va)

print("\nkappa table (resultant route, matrix-tree checked to level 5):")
for n in range(8):
    print(f"  kappa_{n} = {tower.kappa(n)}")

fit = iwasawa_fit_ell(tower.ord_ell_sequence(7), 2)
print(f"\n2-part fit: ord_2(kappa_n) = {fit.mu}*2^n + {fit.lam}*n + {fit.nu}"
      f" from n = {fit.onset}")

print("omega criterion:", classify_omega(tower.f).verdict)

report = analyze_prime(tower, 17, depth=7)
print(f"p = 17: n0 = {report.n0} (certified: {report.certified}),"
      f" observed {list(report.observed)}")
