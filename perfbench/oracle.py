"""Output oracle for the benchmark, independent of the engines it checks.

Spanning-tree counts are checked modulo word-size primes q = 1 (mod ell^D).
In F_q every primitive ell^i-th root of unity zeta (i <= D) exists, and

    N_i mod q = prod over primitive zeta of det(D - A(zeta)) mod q,

where D - A(zeta) is the base Laplacian twisted by zeta^voltage.  That
uses only the graph and the voltage residues of the spec document, never
the program's polynomial, resultant, determinant or factoring code, so
later changes to those engines are checked by the same yardstick.

Big integers are only reduced mod q, multiplied or compared here: no
decimal conversion of a program output, so the interpreter's
int-to-string digit limit stays at its default.
"""

from __future__ import annotations

from fractions import Fraction

# Rows whose prime is at least this large hit the program's known int64
# overflow in its F_p helpers (they assume p < 2**30).
INT64_SAFE_PRIME = 1 << 30

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CHECKSUM_FLOOR = 1 << 40
# Independent checksum primes per tower: a wrong value slips through
# only if it agrees modulo both, a chance of about 2**-80.
CHECKSUM_PRIMES = 2


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: deterministic below
    3.3e24, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the tower as the oracle sees it: base graph plus voltage residues
# ---------------------------------------------------------------------------

def sqrt_residue(d: int, ell: int, precision: int, branch: int) -> int:
    """The ell-adic square root of d selected by `branch`, mod ell^precision,
    found digit by digit (for ell = 2 the root is pinned mod 4 by the
    branch and each further bit by the next power of two)."""
    if ell == 2:
        x, k0, extra = branch % 4, 2, 2
    else:
        x, k0, extra = branch % ell, 1, 1
    for k in range(k0, precision):
        step = ell**k
        modulus = ell ** (k + extra)
        for t in range(ell):
            if ((x + t * step) ** 2 - d) % modulus == 0:
                x += t * step
                break
        else:
            raise ValueError(f"{d} has no square root with branch {branch} mod {ell}")
    return x % ell**precision


class TowerData:
    """Vertex count, valencies and edges (tail, head, voltage residue)
    read straight from a tower-spec document."""

    def __init__(self, doc: dict):
        self.ell = ell = doc["ell"]
        precision = doc["precision"]
        names = {v: k for k, v in enumerate(doc["vertices"])}
        self.order = len(names)
        self.edges = []
        for e in doc["edges"]:
            v = e["voltage"]
            if isinstance(v, str):
                residue = int(v)
            elif v["kind"] == "padic":
                residue = sum(dg * ell**k for k, dg in enumerate(v["digits"][:precision]))
            else:
                residue = sqrt_residue(v["radicand"], ell, precision, v["branch"])
            self.edges.append((names[e["tail"]], names[e["head"]], residue))
        self.valency = [0] * self.order
        for t, h, _ in self.edges:
            self.valency[t] += 1
            self.valency[h] += 1

    def tree_count(self) -> int:
        """kappa_0 by a reduced-Laplacian determinant over Q."""
        g = self.order
        if g == 1:
            return 1
        lap = [[Fraction(0)] * g for _ in range(g)]
        for t, h, _ in self.edges:
            if t != h:
                lap[t][h] -= 1
                lap[h][t] -= 1
                lap[t][t] += 1
                lap[h][h] += 1
        m = [row[1:] for row in lap[1:]]
        det = Fraction(1)
        for k in range(g - 1):
            piv = next((i for i in range(k, g - 1) if m[i][k] != 0), None)
            if piv is None:
                return 0
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, g - 1):
                f = m[i][k] / m[k][k]
                for j in range(k, g - 1):
                    m[i][j] -= f * m[k][j]
        return int(det)


def _det_mod(rows: list[list[int]], q: int) -> int:
    n = len(rows)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] % q), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        pivot = rows[k][k] % q
        det = det * pivot % q
        inv = pow(pivot, -1, q)
        for i in range(k + 1, n):
            f = rows[i][k] * inv % q
            if f:
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[k])]
    return det % q


class Checksum:
    """Level norms of one tower modulo one prime q = 1 (mod ell^depth)."""

    def __init__(self, tower: TowerData, depth: int, q: int):
        ell = tower.ell
        top = ell**depth
        if (q - 1) % top:
            raise ValueError("q must be 1 mod ell^depth")
        g = 2
        while True:
            w = pow(g, (q - 1) // top, q)
            if depth == 0 or pow(w, top // ell, q) != 1:
                break
            g += 1
        self.tower, self.depth, self.q, self.root = tower, depth, q, w

    def norm(self, i: int) -> int:
        """N_i mod q as the product of the twisted Laplacian determinant
        over the primitive ell^i-th roots of unity."""
        t, q, ell = self.tower, self.q, self.tower.ell
        m = ell**i
        z = pow(self.root, ell ** (self.depth - i), q)
        powers = [1] * m
        for j in range(1, m):
            powers[j] = powers[j - 1] * z % q
        edges = [(a, b, r % m) for a, b, r in t.edges]
        out = 1
        for k in range(1, m):
            if k % ell == 0:
                continue
            rows = [[0] * t.order for _ in range(t.order)]
            for v in range(t.order):
                rows[v][v] = t.valency[v]
            for a, b, r in edges:
                e = k * r % m
                rows[a][b] -= powers[e]
                rows[b][a] -= powers[-e % m]
            out = out * _det_mod(rows, q) % q
        return out


def checksum_primes(modulus: int, count: int) -> list[int]:
    """The `count` smallest primes q > 2**40 with q = 1 (mod modulus)."""
    out = []
    k = _CHECKSUM_FLOOR // modulus + 1
    while len(out) < count:
        q = k * modulus + 1
        if is_prime(q):
            out.append(q)
        k += 1
    return out


# ---------------------------------------------------------------------------
# checks of program outputs; each returns a list of problem strings
# ---------------------------------------------------------------------------

def check_kappas(tower: TowerData, kappas: list, norms: list) -> list[str]:
    """kappas[n] for n = 0..depth and norms[i - 1] = N_i for i = 1..depth,
    as the program returned them.  Checks kappa_0 exactly, every N_i
    modulo checksum primes, and the product identity exactly."""
    depth = len(kappas) - 1
    problems = []
    if len(norms) != depth:
        return [f"expected {depth} level norms, got {len(norms)}"]
    if not all(isinstance(k, int) and k > 0 for k in kappas):
        return ["a spanning-tree count is not a positive integer"]
    if kappas[0] != tower.tree_count():
        problems.append("kappa_0 differs from the base matrix-tree count")
    ell = tower.ell
    for q in checksum_primes(ell**depth, CHECKSUM_PRIMES):
        check = Checksum(tower, depth, q)
        for i in range(1, depth + 1):
            if norms[i - 1] % q != check.norm(i):
                problems.append(f"N_{i} mod {q} differs from the root-of-unity product")
    prod = kappas[0]
    for n in range(1, depth + 1):
        prod *= norms[n - 1]
        if ell**n * kappas[n] != prod:
            problems.append(f"ell^{n} * kappa_{n} != kappa_0 * N_1 * ... * N_{n}")
    return problems


def kappa_residues(tower: TowerData, depth: int, q: int) -> list[int]:
    """kappa_n mod q for n = 0..depth from the product identity."""
    check = Checksum(tower, depth, q)
    out = [tower.tree_count() % q]
    inv_ell = pow(tower.ell, -1, q)
    for n in range(1, depth + 1):
        out.append(out[-1] * check.norm(n) * inv_ell % q)
    return out


def check_report(tower: TowerData, levels: int, doc: dict,
                 corpus_entry=None) -> tuple[list[str], list[str]]:
    """Check a parsed `report --json` document.

    Returns (defects, problems): `defects` are failures of the program's
    documented int64 defect (a prime >= 2**30 whose observed valuations
    differ from the predicted law); `problems` is everything else.
    """
    defects, problems = [], []
    rows = doc.get("levels", [])
    if [r.get("n") for r in rows] != list(range(levels + 1)):
        return defects, ["report levels are not 0..%d" % levels]
    kappas = [int(r["kappa"]) for r in rows]
    ell = tower.ell
    for q in checksum_primes(ell**levels, CHECKSUM_PRIMES):
        for n, want in enumerate(kappa_residues(tower, levels, q)):
            if kappas[n] % q != want:
                problems.append(f"kappa_{n} mod {q} differs from the oracle")
    found = set()
    for n, (row, kappa) in enumerate(zip(rows, kappas)):
        prod = int(row["cofactor"])
        for p, e in row["factors"]:
            p = int(p)
            prod *= p**e
            found.add(p)
            if not is_prime(p):
                problems.append(f"kappa_{n}: listed factor {p} is not prime")
        if prod != kappa:
            problems.append(f"kappa_{n}: factors do not multiply back")
        if row["complete"] != (row["cofactor"] == "1"):
            problems.append(f"kappa_{n}: complete flag disagrees with the cofactor")
        if row["ord_ell"] != valuation(kappa, ell):
            problems.append(f"kappa_{n}: wrong ord_ell")
    if corpus_entry is not None:
        for n, kappa in enumerate(kappas):
            if kappa != corpus_entry.kappa(n):
                problems.append(f"kappa_{n} differs from the corpus table")
        fit = doc.get("ell_fit")
        got = None if not fit or not fit["found"] else (fit["mu"], fit["lambda"], fit["nu"], fit["onset"])
        if got != corpus_entry.ell_fit:
            problems.append(f"ell fit {got} differs from the corpus {corpus_entry.ell_fit}")
        if doc["classification"]["verdict"] != corpus_entry.verdict:
            problems.append("omega verdict differs from the corpus")
    found.discard(ell)
    listed = {row["p"] for row in doc.get("primes", [])}
    if not found <= listed:
        problems.append(f"primes without a row: {sorted(found - listed)}")
    for row in doc.get("primes", []):
        p = row["p"]
        if row.get("inconclusive"):
            continue
        if row["observed"] != [valuation(k, p) for k in kappas]:
            problems.append(f"p={p}: observed valuations are wrong")
        if row["observed"] != row["predicted"]:
            msg = f"p={p}: observed {row['observed']} != predicted {row['predicted']}"
            (defects if p >= INT64_SAFE_PRIME else problems).append(msg)
    return defects, problems


# Messages of the program's documented big-integer failures on the CLI
# path: int64 conversion of primes >= 2**63, and decimal conversion of
# integers past the interpreter's digit limit.
KNOWN_ERROR_MARKERS = (
    "too large to convert to C long",
    "Exceeds the limit",
)


def is_known_error(text: str) -> bool:
    """Is this error message one of the documented big-integer failures?"""
    return any(m in text for m in KNOWN_ERROR_MARKERS)
