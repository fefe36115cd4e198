"""When does the number of prime divisors of kappa_n blow up?

Two towers from demos/specs, both run through the CLI.  The four-loop
bouquet at ell = 3 with voltages (1,1,2,2) has U(T) = T^b f(T) with the
forced (T-1)^2 factor and a leftover quadratic whose roots lie off the
unit circle, so omega(kappa_n) grows forever.  The theta graph at
ell = 5 with voltages (1,2,2) leaves a pure product of cyclotomics, so
omega stays bounded.  `classify` gives the verdict exactly from U,
whose cyclotomic part is (T^g - 1)^2 with g the gcd of f's exponents;
`count` shows omega level by level from the factored level pieces.
"""

import contextlib
import io
import json
from pathlib import Path

from elltowers.cli import main

SPECS = Path(__file__).resolve().parent / "specs"


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    if code:
        raise SystemExit(code)
    return json.loads(out.getvalue())


def factorization(level):
    parts = [p if e == 1 else f"{p}^{e}" for p, e in level["factors"]]
    if level["cofactor"] != "1":
        parts.append(f"C{level['cofactor']}")
    return " * ".join(parts) or "1"


for title, name in (("voltages (1,1,2,2) on the four-loop bouquet, ell = 3", "bouquet4_ell3.json"),
                    ("theta graph, voltages (1,2,2), ell = 5", "theta_ell5.json")):
    path = str(SPECS / name)
    print(f"=== {title} ===")
    main(["classify", path])
    for level in cli_json("count", path, "--levels", "4")["levels"]:
        bound = " (lower bound, budget hit)" if level["omega_is_lower_bound"] else ""
        print(f"  omega(kappa_{level['n']}) = {level['omega']}{bound}   "
              f"kappa_{level['n']} = {factorization(level)}")
    print()
