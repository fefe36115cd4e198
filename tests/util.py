"""Shared test helpers: independent oracles and random generators.

The spanning-tree oracle enumerates edge subsets directly and never
touches the library's determinant path, so it can arbitrate for it.
"""

from __future__ import annotations

import random
from itertools import combinations

from elltowers import GenPoly, Multigraph, VoltageAssignment, cover_connected_by_voltages, validate


def substitute_power(f: GenPoly, c: int) -> GenPoly:
    """f(T^c): every exponent times c (mod the exponent modulus)."""
    return GenPoly(f.ell, f.precision, tuple((e * c, k) for e, k in f.terms), f.integral)


def reciprocal(f: GenPoly) -> GenPoly:
    """f(1/T)."""
    return substitute_power(f, -1)


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
        if cover_connected_by_voltages(va, 1):
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
