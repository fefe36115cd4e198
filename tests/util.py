"""Shared test helpers: independent oracles and random generators.

The spanning-tree oracle enumerates edge subsets directly and never
touches the library's determinant path, so it can arbitrate for it; the
determinant oracles, sympy and a dense pivoting Bareiss
(dense_bareiss_det), take any square integer matrix, where the library's
matrix-tree engines take reduced Laplacians only, and its one kernel for
any square matrix is Berkowitz's (genpoly._berkowitz).  The level-norm
oracles evaluate f at the roots of unity of F_q and recombine by CRT,
or take scaled Graeffe steps on power sums and end at one resultant,
independently of the library's norm steps.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np
from hypothesis import strategies as st
from sympy import isprime
from sympy.ntheory.modular import crt

from elltowers import GenPoly, Multigraph, VoltageAssignment, cover_connected_by_voltages, validate
from elltowers.intpoly import IntPoly, cyclotomic, real_form, resultant


def exact_json(text: str):
    """The document parsed from JSON text, refused if the text holds a
    float: every number the tool prints is exact."""
    def refuse(number: str):
        raise AssertionError(f"a JSON float: {number}")

    return json.loads(text, parse_float=refuse)


def substitute_power(f: GenPoly, c: int) -> GenPoly:
    """f(T^c): every exponent times c (mod the exponent modulus)."""
    return GenPoly(f.ell, f.precision, tuple((e * c, k) for e, k in f.terms), f.integral)


def draw_voltage(draw, ell, precision, kinds=("integer", "padic", "sqrt")):
    """One voltage of a tower spec, from a hypothesis draw: an integer in
    [-20, 20], random base-ell digits, or an ell-adic square root."""
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        return str(draw(st.integers(-20, 20)))
    if kind == "padic":
        digits = st.lists(st.integers(0, ell - 1), min_size=precision, max_size=precision)
        return {"kind": "padic", "digits": draw(digits)}
    branch = draw(st.sampled_from([1, 3, 5, 7] if ell == 2 else range(1, ell)))
    radicand = branch * branch + (8 if ell == 2 else ell) * draw(st.integers(1, 40))
    return {"kind": "sqrt", "radicand": radicand, "branch": branch}


def primes_one_mod(m: int):
    """The primes q = 1 (mod m) below 2^30, largest first: F_q has the
    m-th roots of unity."""
    q = (2**30 - 2) // m * m + 1
    while (q := q - m) > 2:
        if q % 2 and isprime(q):
            yield q


def evaluation_images(f: GenPoly, i: int, primes):
    """(q, M_i mod q) for each prime q = 1 (mod ell^i) of primes: the
    product of f(zeta^k) over the units k <= m/2, m = ell^i, with zeta a
    primitive m-th root of unity of F_q."""
    ell, m = f.ell, f.ell**i
    terms = f.level_terms(i)
    units = np.array([k for k in range(1, m // 2 + 1) if k % ell], dtype=np.int64)
    idx = np.outer(np.array([e for e, _ in terms], dtype=np.int64), units) % m
    for q in primes:
        g = 2
        while pow(zeta := pow(g, (q - 1) // m, q), m // ell, q) == 1:
            g += 1
        powers = np.ones(m, dtype=np.int64)  # zeta^j mod q, by doubling
        step = 1
        while step < m:
            n = min(step, m - step)
            powers[step : step + n] = powers[:n] * pow(zeta, step, q) % q
            step *= 2
        cq = np.array([c % q for _, c in terms], dtype=np.int64)
        values = (powers[idx] * cq[:, None] % q).sum(axis=0) % q
        while values.size > 1:  # pairwise product tree
            half = values.size // 2
            head = values[:half] * values[half : 2 * half] % q
            if values.size % 2:
                head[0] = head[0] * values[-1] % q
            values = head
        yield q, int(values[0])


def evaluation_norm(f: GenPoly, i: int) -> int:
    """M_i, the norm of f from Q(zeta_m)^+, m = ell^i, with its sign (N_1
    = f(-1) for m = 2): its images mod primes q = 1 (mod m) below 2^30
    (evaluation_images), recombined by CRT once the primes' product
    exceeds 2 ||f_i||_1^(number of units).  Runs out of primes at deep
    levels (about 2^16, 3^10, 5^7), so it is the oracle below those."""
    ell, m = f.ell, f.ell**i
    reduced = f.reduce_level(i)
    if reduced.is_zero:
        return 0
    bound = 2 * sum(map(abs, reduced.coeffs)) ** (m // 2 - m // 2 // ell)
    images, qs, prod = [], [], 1
    for q, image in evaluation_images(f, i, primes_one_mod(m)):
        images.append(image)
        qs.append(q)
        prod *= q
        if prod > bound:
            x = int(crt(qs, images)[0])
            return x - prod if 2 * x > prod else x
    raise AssertionError(f"too few primes = 1 (mod {m}) below 2^30")


def scaled_graeffe_norm(u: IntPoly, b: int, ell: int, i: int) -> int:
    """M_i for odd ell from U = T^b f, with no packed slot: the monic W =
    c^(2b-1) U(T/c), c = lc(U), has the roots c r, and a step takes W's
    power sums to index 2b ell (O(ell b^2) products) and Newton's
    identities on every ell-th one, dividing only by k <= 2b.  After
    i - 1 steps W has the roots C s, s those of U_(i-1) and C =
    c^(ell^(i-1)), so its real form in y = T + C^2/T is V~(y) = C^(b-1)
    V(y / C), V = real_form(U_(i-1)), by scaled_real_form with q = C^2.
    With Psi = real_form(Phi_ell), monic of degree e = (ell - 1)/2,

        M_i = Res(Psi, V) = C^(-e(b-1)) prod_(Psi(x)=0) V~(C x)
            = C^(-e(b-1)) Res(Psi, V~(C x)),

    the one division, by the power of C, exact and trivial when |c| = 1.
    Cheap at ell = 3 depth and on short U at large ell, where the
    evaluation oracle runs out of primes."""
    n, c = u.degree, u.leading
    w = [x * c ** (n - 1 - j) for j, x in enumerate(u.coeffs[:-1])] + [1]
    for _ in range(i - 1):
        sums = power_sums(w, ell * n)
        w = from_power_sums(sums[::ell])
    lead = c ** (ell ** (i - 1))
    v = scaled_real_form(IntPoly(tuple(w)), lead * lead)
    psi = real_form(cyclotomic(ell))
    norm = resultant(psi, IntPoly(tuple(x * lead**k for k, x in enumerate(v.coeffs))))
    root, rem = divmod(norm, lead ** (psi.degree * (b - 1)))
    assert not rem, "scaled Graeffe norm is not divisible by its scale"
    return root


def scaled_real_form(u: IntPoly, q: int) -> IntPoly:
    """V with U(T) = T^b V(T + q/T), for U of degree 2b with u_(b-e) =
    q^e u_(b+e): V = u_b + sum_(e >= 1) u_(b+e) D_e, by D_0 = 2, D_1 = x
    and D_(e+1) = x D_e - q D_(e-1), with D_e(T + q/T) = T^e + q^e T^-e.
    intpoly.real_form is q = 1."""
    b = u.degree // 2
    v = [0] * (b + 1)
    v[0] = u.coeffs[b]
    prev, cur = [2], [0, 1]
    for c in u.coeffs[b + 1:]:
        for k, x in enumerate(cur):
            v[k] += c * x
        nxt = [0] + cur
        for k, x in enumerate(prev):
            nxt[k] -= q * x
        prev, cur = cur, nxt
    return IntPoly(tuple(v))


def power_sums(w: list[int], count: int) -> list[int]:
    """p_0, ..., p_count for the roots of the monic w (ascending), by
    Newton's identities: p_j = -(j a_j + sum_(k<j) a_k p_(j-k)), with a_k
    the coefficient of T^(n-k)."""
    n = len(w) - 1
    lower = [(k, w[n - k]) for k in range(1, n + 1) if w[n - k]]
    sums = [n]
    for j in range(1, count + 1):
        acc = j * w[n - j] if j <= n else 0
        for k, a in lower:
            if k >= j:
                break
            acc += a * sums[j - k]
        sums.append(-acc)
    return sums


def from_power_sums(sums: list[int]) -> list[int]:
    """The monic polynomial (ascending) with power sums sums[1:]: its
    coefficient a_k of T^(n-k) is -(p_k + sum_(0<j<k) a_j p_(k-j)) / k,
    exact for the power sums of a monic integer polynomial."""
    a = [1]
    for k in range(1, len(sums)):
        acc = sums[k] + sum(a[j] * sums[k - j] for j in range(1, k))
        a.append(-acc // k)
    return a[::-1]


def fold_by_chunks(p: int, ell: int, block: int) -> int:
    """The symmetric residue of p mod sum_(t < ell) X^t, X = 2^block,
    chunk by chunk: p reduced mod X^ell - 1 by adding its span-bit tops,
    split into its ell X-digits c_t, and rebuilt as sum_(t < ell - 1)
    (c_t - c_(ell-1)) X^t, as X^(ell-1) = -sum_(t < ell - 1) X^t; the
    reference for analysis._fold, which takes the top digit off in one
    subtraction."""
    span = ell * block
    while hi := p >> span:
        p = (p & ((1 << span) - 1)) + hi
    chunks = [p >> (t * block) & ((1 << block) - 1) for t in range(ell)]
    p = sum(chunk - chunks[-1] << (t * block) for t, chunk in enumerate(chunks[:-1]))
    modulus = sum(1 << (t * block) for t in range(ell))
    if 2 * p > modulus:
        return p - modulus
    return p + modulus if 2 * p < -modulus else p


def reciprocal(f: GenPoly) -> GenPoly:
    """f(1/T)."""
    return substitute_power(f, -1)


def dense_bareiss_order() -> int:
    """The largest order n of a complete graph's reduced Laplacian, a dense
    profile with diagonal n, that det_int eliminates by Bareiss: its
    envelope work per row, (n - 1)(2n - 1) / 6, times the slot width
    bits(n^n) + 2 is at most BAREISS_WORK."""
    from elltowers.intdet import BAREISS_WORK

    n = 1
    while ((n + 1) ** (n + 1)).bit_length() + 2 <= 6 * BAREISS_WORK / (n * (2 * n + 1)):  # order n + 1
        n += 1
    return n


def dense_laplacian(lap) -> list[list[int]]:
    """The whole matrix of an intdet.ReducedLaplacian, as rows of Python
    integers: its diagonal, less one for each edge (i, j) at (i, j) and
    (j, i), so that parallel edges add up."""
    rows = [[0] * len(lap.diagonal) for _ in lap.diagonal]
    for i, d in enumerate(lap.diagonal):
        rows[i][i] = d
    for i, j in lap.edges:
        rows[i][j] -= 1
        rows[j][i] -= 1
    return rows


def envelope(lap, reach: list[int]) -> list[list[int]]:
    """The upper envelope of an intdet.ReducedLaplacian, as rows of Python
    integers: row i's entries in columns i .. reach[i] - 1, where every
    edge (i, j) lies."""
    rows = [[0] * (r - i) for i, r in enumerate(reach)]
    for row, d in zip(rows, lap.diagonal):
        row[0] = d
    for i, j in lap.edges:
        rows[i][j - i] -= 1
    return rows


def sympy_det(rows: list[list[int]]) -> int:
    """sympy's exact determinant of a square integer matrix."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    return int(DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).det()) if n else 1


def dense_bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of any square integer matrix by dense
    fraction-free elimination (Bareiss 1968), swapping rows past zero
    pivots: after step k every entry of the trailing block is a minor of
    order k + 2, so each division by the previous pivot is exact."""
    m = [list(map(int, r)) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, tail = m[k][k], m[k][k + 1 :]
        for i in range(k + 1, len(m)):
            row, mik = m[i], m[i][k]
            row[k + 1 :] = [(a * pivot - mik * b) // prev for a, b in zip(row[k + 1 :], tail)]
        prev = pivot
    return sign * m[-1][-1] if m else 1


def spanning_trees_bruteforce(graph: Multigraph) -> int:
    """Count spanning trees by enumerating all (|V|-1)-subsets of edges.

    A subset of exactly |V|-1 edges spans iff it connects every vertex;
    loops can never help, so they simply fail connectivity.
    """
    g = graph.num_vertices
    if g == 1:
        return 1
    count = 0
    for combo in combinations(range(graph.num_edges), g - 1):
        parent = list(range(g))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = g
        for idx in combo:
            t, h = graph.edges[idx]
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
                components -= 1
        if components == 1:
            count += 1
    return count


def random_connected_multigraph(rng: random.Random, max_vertices=4, max_edges=8) -> Multigraph:
    """A random multigraph passing the standing hypotheses."""
    while True:
        g = rng.randint(1, max_vertices)
        lo = max(g, 2)  # need enough edges for valency >= 2 everywhere
        e = rng.randint(lo, max_edges)
        if e == g:  # Euler characteristic must not vanish
            continue
        edges = tuple(
            (rng.randrange(g), rng.randrange(g)) for _ in range(e)
        )
        graph = Multigraph.from_edge_list(g, edges)
        if validate(graph).ok:
            return graph


def random_voltage_tower(rng: random.Random, ells=(2, 3, 5), max_vertices=4,
                         max_edges=6, max_voltage=10) -> VoltageAssignment:
    """A random integral voltage assignment whose tower is connected."""
    while True:
        graph = random_connected_multigraph(rng, max_vertices, max_edges)
        ell = rng.choice(list(ells))
        values = [rng.randint(-max_voltage, max_voltage) for _ in range(graph.num_edges)]
        va = VoltageAssignment.from_integers(graph, ell, values, 1)
        if cover_connected_by_voltages(va):
            return va


def check_tower_properties(va: VoltageAssignment, depth: int = 3, pmax: int = 50) -> None:
    """The full invariant battery for one tower (assertion-based).

    - product identity, checked inside Tower.kappa: against matrix-tree
      counts up to tower.mt_check_level, exact divisibility beyond;
    - kappa_n | kappa_{n+1};
    - f(T) = f(1/T);
    - U = T^b f palindromic with U(1) = 0;
    - predicted = observed ord_p for every prime p <= pmax, p != ell,
      at every computed level (and the closed form from n0 on).
    """
    from elltowers import Tower, analyze_prime
    from elltowers.factorint import is_certified_prime

    tower = Tower(va)
    ell = va.ell
    kappas = [tower.kappa(n) for n in range(depth + 1)]  # exact-divisibility + MT cross-checks inside
    for a, b in zip(kappas, kappas[1:]):
        assert b % a == 0, "kappa divisibility failed"

    f = tower.f
    assert f == reciprocal(f), "determinant polynomial is not reciprocal"
    u, _b = f.integerize()
    assert u.coeffs == u.coeffs[::-1], "U is not palindromic"
    assert u(1) == 0, "U(1) != 0"

    for p in range(2, pmax + 1):
        if p == ell or not is_certified_prime(p):
            continue
        report = analyze_prime(tower, p, depth)
        assert report.observed == report.predicted, (p, report)
        if report.nu is not None:
            for n in range(report.n0, depth + 1):
                assert report.observed[n] == report.mu * ell**n + report.nu, (p, n)
