"""Batch front-end.

Verbs:
    validate  FILE                 check a tower spec and its hypotheses
    count     FILE --levels N      exact kappa_0..kappa_N, factored
    analyze   FILE --p P --levels N   valuation law for one prime
    classify  FILE                omega-growth verdict
    report    FILE --levels N     full machine/human report
    selftest                      recompute the built-in corpus
    sqrt      --radicand D ...    ell-adic square root helper

report is built from one builder per section (levels, ell-part fit,
classification, one entry per prime); count, analyze and classify each
compute and print one of those sections, plus keys of their own.

Exit codes, all mapped in main, with the message on stderr:
    0  success
    1  domain failure, "error: ..." (invalid graph, disconnected tower,
       ell-adic levels past the precision, too few levels for the
       ell-part fit, a level i whose phi(ell^i) no engine can index, a
       U = T^b f whose degree no engine can index, a non-residue or a
       wrong branch given to the sqrt verb); levels past the precision
       or too deep are refused before any work
    2  usage or parse error: argparse rejects bad options (a negative
       --levels, --budget-ms or --matrix-tree-max-level, a non-prime
       --p or sqrt --ell, sqrt's --precision below 1, a missing sqrt
       --branch); an unreadable, malformed or unbuildable spec (an
       ell-adic square root that does not exist, a sqrt voltage without
       its branch) prints "parse error: ..."
    3  internal error, "internal error: ..." (a failed cross-check, an
       overflow, a broken invariant: a level norm that vanishes on an
       accepted tower, a voltage determinant that is not (T^g - 1)^2
       times a V with V(1) != 0)
All big integers are printed as decimal strings; --json switches to a
machine-readable document whose bytes depend only on the input and the
budget (a timing field aside).  Wall-clock budgets are converted to
fixed iteration budgets so identical inputs give identical output.

count and report never factor kappa_n itself.  By the product identity
ell^n kappa_n = kappa_0 N_1 ... N_n, each level's new piece (kappa_0,
then each level norm N_i, through its real-subfield norm M_i when
ell^i > 2, as N_i = M_i^2) is factored once, and kappa_n's
factorisation is assembled from the pieces below it.  --budget-ms is
split evenly across the levels + 1 pieces; each level row reports the
rho iterations its piece used (rho_iterations) and whether they ran out
(budget_exhausted).  classify factors the content of U within the
default budget and prints the part it leaves unsplit (content_cofactor).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis import (
    DisconnectedTowerError,
    InconclusiveError,
    InsufficientDataError,
    MT_CHECK_LEVEL_ELSE,
    MT_CHECK_LEVELS,
    Tower,
    analyze_prime,
    check_levels,
    iwasawa_fit_ell,
)
from .factorint import (
    FactoredInteger,
    decimal_str,
    factor_kappa,
    is_probable_prime,
    multiply_factored,
    ord_p,
)
from .genpoly import LevelTooDeepError
from .graphs import DisconnectedGraphError, tower_problems
from .intpoly import ZeroPolynomialError
from .omega import INAPPLICABLE, classify_omega
from .padics import NonResidueError, PrecisionError, padic_sqrt
from .towerspec import SpecParseError, build_assignment, parse_tower_spec
from . import corpus

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# deterministic budget conversion: 1 ms of budget buys this many rho steps
RHO_ITERATIONS_PER_MS = 500
DEFAULT_BUDGET_MS = 30_000


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path} is not valid JSON: {exc}") from exc


def _assignment(doc):
    """(spec, voltage assignment) of a spec document; an ell-adic voltage
    that cannot be built is a parse error like any other bad input."""
    spec = parse_tower_spec(doc)
    try:
        return spec, build_assignment(spec)
    except NonResidueError as exc:
        raise SpecParseError(str(exc)) from exc


def _tower(doc, mt_level=None, levels=0):
    """(spec, voltage assignment, Tower) of a spec document, refusing
    levels up to `levels` that no engine can index, or past an ell-adic
    precision, before any work."""
    spec, va = _assignment(doc)
    check_levels(va, levels)
    return spec, va, Tower(va, mt_check_level=mt_level)


def _kappa_line(n: int, kappa: int, fact: FactoredInteger) -> str:
    return f"kappa_{n} = {decimal_str(kappa)} = {fact}"


def _factorization_dict(fact: FactoredInteger) -> dict:
    omega, exact = fact.omega()
    return {
        "factors": [[decimal_str(p), e] for p, e in fact.factors],
        "cofactor": decimal_str(fact.cofactor),
        "complete": fact.complete,
        "omega": omega,
        "omega_is_lower_bound": not exact,
        "rho_iterations": fact.rho_iterations,
        "budget_exhausted": fact.budget_exhausted,
    }


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# report sections: report prints all of them, the other verbs one each
# ---------------------------------------------------------------------------

def _level_rows(tower, levels, budget_ms):
    """(n, kappa_n, its factorisation) for n = 0..levels.

    ell^n kappa_n = kappa_0 N_1 ... N_n, so every level brings one new
    piece (_level_piece), factored once with an even share of the rho
    budget; kappa_n's factorisation is the running product of the pieces'
    less ell^n.  Each row carries the rho statistics of its own piece.
    """
    rho_budget = budget_ms * RHO_ITERATIONS_PER_MS
    per_level = max(rho_budget // (levels + 1), 1)
    ell = tower.ell
    exps, cofactor = {ell: 0}, 1  # ell listed from the start, so it never hides in the cofactor
    rows = []
    for n in range(levels + 1):
        kappa = tower.kappa(n)
        piece, power = _level_piece(tower, n)
        part = factor_kappa(piece, rho_iterations=per_level)
        cofactor = multiply_factored(exps, cofactor, part, power)
        found = {**exps, ell: exps[ell] - n}
        factors = tuple(sorted((p, e) for p, e in found.items() if e))
        rows.append((n, kappa, FactoredInteger(kappa, factors, cofactor, part.rho_iterations,
                                               part.budget_exhausted)))
    return rows


def _level_piece(tower, n):
    """(piece, power): level n's new factor of ell^n kappa_n is piece**power.

    kappa_0 at level 0; above it the real-subfield norm |M_n|, with the
    power that gives N_n = M_n^power (Tower.norm_power).
    """
    if n == 0:
        return tower.kappa(0), 1
    return abs(tower.real_norm(n)), tower.norm_power(n)


def _levels_section(tower, rows) -> list[dict]:
    return [{"n": n, "kappa": decimal_str(kappa), "ord_ell": ord_p(kappa, tower.ell),
             **_factorization_dict(fact)} for n, kappa, fact in rows]


def _ell_fit(tower, levels) -> dict:
    """The three-parameter law of ord_ell(kappa_n) fitted on levels 0..levels."""
    fit = iwasawa_fit_ell(tower.ord_ell_sequence(levels), tower.ell)
    return {"found": fit.found, "mu": fit.mu, "lambda": fit.lam, "nu": fit.nu, "onset": fit.onset}


def _fit_law(ell, fit) -> str:
    return (f"ord_{ell}(kappa_n) = {fit['mu']}*{ell}^n + {fit['lambda']}*n + {fit['nu']} "
            f"for n >= {fit['onset']}")


def _prime_entry(tower, p, levels):
    """(entry, analysis) for one prime p != ell: report's entry and the
    analysis behind it, or the InconclusiveError that ended the n0 search."""
    try:
        rep = analyze_prime(tower, p, levels)
    except InconclusiveError as exc:
        return {"p": p, "inconclusive": True}, exc
    return {
        "p": p, "mu": rep.mu, "n0": rep.n0, "n0_certified": rep.certified,
        "nu": rep.nu, "n1": rep.n1,
        "observed": list(rep.observed), "predicted": list(rep.predicted),
        "divides_any": rep.divides_any, "closed_form": rep.closed_form(),
    }, rep


def _classification(cls) -> dict:
    return {
        "verdict": cls.verdict,
        "unit_root_multiplicity": cls.unit_root_multiplicity,
        "cyclotomic_factors": [list(x) for x in cls.cyclotomic_factors],
        "content": None if cls.content is None else decimal_str(cls.content),
        "non_cyclotomic_part": None if cls.non_cyclotomic_part is None
        else [decimal_str(c) for c in cls.non_cyclotomic_part.coeffs],
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    _, va = _assignment(_read_json(args.file))
    problems = tower_problems(va)
    doc = {
        "ok": not problems,
        "problems": problems,
        "vertices": va.graph.num_vertices,
        "edges": va.graph.num_edges,
        "ell": va.ell,
        "precision": va.precision,
        "integral_voltages": va.is_integral,
    }
    if args.json:
        _print_json(doc)
    else:
        if problems:
            print("INVALID:")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"OK: {va.graph.num_vertices} vertices, {va.graph.num_edges} edges, "
                  f"ell={va.ell}, precision={va.precision}, "
                  f"{'integral' if va.is_integral else 'ell-adic'} voltages")
    return EXIT_OK if not problems else EXIT_DOMAIN


def cmd_count(args) -> int:
    _, _, tower = _tower(_read_json(args.file), args.matrix_tree_max_level, args.levels)
    rows = _level_rows(tower, args.levels, args.budget_ms)
    if args.json:
        _print_json({"levels": [{k: v for k, v in row.items() if k != "ord_ell"}
                                for row in _levels_section(tower, rows)]})
    else:
        for row in rows:
            print(_kappa_line(*row))
    return EXIT_OK


def cmd_analyze(args) -> int:
    _, va, tower = _tower(_read_json(args.file), args.matrix_tree_max_level, args.levels)
    p, depth = args.p, args.levels
    if p == tower.ell:
        # the ell-part follows the three-parameter Iwasawa-type law
        fit = _ell_fit(tower, depth)
        if args.json:
            _print_json({"p": p, "kind": "ell-part-fit", **fit,
                         "observed": tower.ord_ell_sequence(depth)})
        elif fit["found"]:
            print(f"{_fit_law(p, fit)} (empirical fit on computed levels)")
        else:
            print(f"no exact three-parameter fit for ord_{p} on the computed levels")
        return EXIT_OK
    entry, rep = _prime_entry(tower, p, depth)
    if isinstance(rep, InconclusiveError):
        if args.json:
            _print_json({**entry, "reason": str(rep)})
        else:
            print(f"warning: stabilization level inconclusive: {rep}")
        return EXIT_OK
    doc = {**entry, "ell": rep.ell, "root_levels": list(rep.root_levels)}
    if args.json:
        _print_json(doc)
        return EXIT_OK
    cert = "certified" if doc["n0_certified"] else f"empirical to level {va.precision}"
    print(f"p = {p}: mu = {doc['mu']}, n0 = {doc['n0']} ({cert}), nu = {doc['nu']}")
    if doc["n1"] is not None:
        print(f"stabilization bound: n1 = {doc['n1']}")
    if doc["closed_form"]:
        print(doc["closed_form"])
    if not doc["divides_any"]:
        print(f"{p} never divides kappa_n"
              + ("" if doc["n0_certified"] else " (up to the computed levels)"))
    print(" n | observed | predicted")
    for n, (o, q) in enumerate(zip(doc["observed"], doc["predicted"])):
        print(f"{n:2d} | {o:8d} | {q:9d}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _, _, tower = _tower(_read_json(args.file))
    cls = classify_omega(tower.f, DEFAULT_BUDGET_MS * RHO_ITERATIONS_PER_MS)
    if args.json:
        _print_json({**_classification(cls),
                     "content_primes": [decimal_str(p) for p in cls.content_primes],
                     "content_cofactor": None if cls.content_cofactor is None
                     else decimal_str(cls.content_cofactor)})
    elif cls.verdict == INAPPLICABLE:
        print("inapplicable: voltages are not declared integers, "
              "the root-of-unity criterion does not apply")
    else:
        print(f"omega(kappa_n) is {cls.verdict} as n grows")
        print(f"U = {decimal_str(cls.content)} * (T-1)^{cls.unit_root_multiplicity}"
              + "".join(f" * Phi_{d}^{m}" if m > 1 else f" * Phi_{d}"
                        for d, m in cls.cyclotomic_factors)
              + f" * ({cls.non_cyclotomic_part})")
        if cls.content_primes:
            print("content primes:", ", ".join(decimal_str(p) for p in cls.content_primes))
        if cls.content_cofactor != 1:
            print("content cofactor (not split within the budget):", decimal_str(cls.content_cofactor))
    return EXIT_OK


def cmd_report(args) -> int:
    started = time.monotonic()
    spec, va, tower = _tower(_read_json(args.file), args.matrix_tree_max_level, args.levels)
    rows = _level_rows(tower, args.levels, args.budget_ms)
    fit = _ell_fit(tower, args.levels) if args.levels >= 3 else None
    cls = classify_omega(tower.f, args.budget_ms * RHO_ITERATIONS_PER_MS)
    primes = set(args.p or []).union(*({p for p, _ in fact.factors} for _, _, fact in rows))
    primes.discard(tower.ell)
    primes_doc = [_prime_entry(tower, p, args.levels)[0] for p in sorted(primes)]
    doc = {
        "schema": "elltowers.report.v1",
        "tower": spec.to_json_dict(),
        "working_precision": va.precision,
        "integral_voltages": va.is_integral,
        "matrix_tree_checked_to": min(tower.mt_check_level, args.levels),
        "levels": _levels_section(tower, rows),
        "ell_fit": fit,
        "classification": _classification(cls),
        "primes": primes_doc,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }
    if args.json:
        _print_json(doc)
        return EXIT_OK
    for row in rows:
        print(_kappa_line(*row))
    if fit is not None and fit["found"]:
        print(f"ell-part: {_fit_law(tower.ell, fit)}")
    print(f"omega growth: {cls.verdict}")
    for pd in primes_doc:
        if pd.get("inconclusive"):
            print(f"p={pd['p']}: inconclusive")
        else:
            print(f"p={pd['p']}: mu={pd['mu']} n0={pd['n0']} nu={pd['nu']} "
                  f"observed={pd['observed']}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Recompute the built-in corpus and compare exactly: every kappa_n
    row, the ell-part fit and the omega verdict, the last at the
    classify verb's budget."""
    failures = []
    for entry in corpus.CORPUS:
        _, _, tower = _tower(entry.spec)
        for n in range(entry.depth + 1):
            got = tower.kappa(n)
            want = entry.kappa(n)
            if got != want:
                failures.append((entry.name, n, got, want))
                print(f"FAIL {entry.name} kappa_{n}: got {decimal_str(got)}, "
                      f"want {decimal_str(want)}")
            else:
                print(f"ok   {entry.name} kappa_{n}")
        if entry.ell_fit is not None:
            fit = iwasawa_fit_ell(tower.ord_ell_sequence(entry.depth), tower.ell)
            got_fit = (fit.mu, fit.lam, fit.nu, fit.onset) if fit.found else None
            if got_fit != entry.ell_fit:
                failures.append((entry.name, "ell_fit", got_fit, entry.ell_fit))
                print(f"FAIL {entry.name} ell fit: got {got_fit}, want {entry.ell_fit}")
            else:
                print(f"ok   {entry.name} ell fit {got_fit}")
        verdict = classify_omega(tower.f, DEFAULT_BUDGET_MS * RHO_ITERATIONS_PER_MS).verdict
        if verdict != entry.verdict:
            failures.append((entry.name, "verdict", verdict, entry.verdict))
            print(f"FAIL {entry.name} verdict: got {verdict}, want {entry.verdict}")
        else:
            print(f"ok   {entry.name} verdict {verdict}")
    if failures:
        print(f"selftest: {len(failures)} mismatch(es)")
        return EXIT_DOMAIN
    print("selftest: all computed rows match")
    return EXIT_OK


def cmd_sqrt(args) -> int:
    root = padic_sqrt(args.radicand, args.ell, args.precision, args.branch)
    doc = {
        "radicand": args.radicand,
        "ell": args.ell,
        "precision": args.precision,
        "residue": decimal_str(root.residue),
        "digits": root.digits(),
    }
    if args.json:
        _print_json(doc)
    else:
        print(f"sqrt({args.radicand}) = {root} residue {decimal_str(root.residue)} "
              f"mod {args.ell}^{args.precision}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _int_type(ok, what):
    """argparse type: an integer passing ok, else a usage error (exit 2)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_NATURAL = _int_type(lambda n: n >= 0, "a non-negative integer")
_POSITIVE = _int_type(lambda n: n >= 1, "a positive integer")
_PRIME = _int_type(is_probable_prime, "a prime")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elltowers",
        description="Exact spanning-tree counts and valuation laws in "
                    "abelian ell-towers of multigraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True):
        p.add_argument("file", help="tower spec JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--budget-ms", type=_NATURAL, default=DEFAULT_BUDGET_MS,
                           help="factoring budget (converted to a fixed iteration count)")
        defaults = ", ".join(f"{n} for ell={ell}" for ell, n in MT_CHECK_LEVELS.items())
        p.add_argument("--matrix-tree-max-level", type=_NATURAL, default=None,
                       help="deepest level cross-checked by matrix-tree "
                            f"(default: {defaults}, else {MT_CHECK_LEVEL_ELSE})")
        p.add_argument("--levels", type=_NATURAL, default=3, help="deepest level n")

    p = sub.add_parser("validate", help="check a tower spec")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("count", help="exact kappa table")
    add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("analyze", help="valuation law for one prime")
    add_common(p, budget=False)
    p.add_argument("--p", type=_PRIME, required=True,
                   help="prime (p = ell gives the ell-part fit)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="omega-growth classification")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("report", help="full report")
    add_common(p)
    p.add_argument("--p", type=_PRIME, action="append",
                   help="extra prime(s) to analyze (repeatable)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("selftest", help="recompute the built-in corpus")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("sqrt", help="ell-adic square root (for authoring specs)")
    p.add_argument("--radicand", type=int, required=True)
    p.add_argument("--ell", type=_PRIME, required=True)
    p.add_argument("--precision", type=_POSITIVE, required=True)
    p.add_argument("--branch", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sqrt)

    return ap


_DOMAIN_ERRORS = (
    DisconnectedGraphError,
    DisconnectedTowerError,
    InsufficientDataError,
    LevelTooDeepError,
    NonResidueError,
    PrecisionError,
    ZeroPolynomialError,
)


def main(argv=None) -> int:
    """Run one verb; the only place where errors become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DOMAIN
    except ArithmeticError as exc:  # a failed cross-check, an overflow, a broken invariant
        print(f"internal error: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
