import random

import pytest
from hypothesis import given, settings, strategies as st

from elltowers import (
    DisconnectedGraphError,
    Multigraph,
    PrecisionError,
    TruncatedPadic,
    VoltageAssignment,
    cover_connected_by_voltages,
    derived_graph,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    validate,
)
from util import dense_bareiss_order, random_connected_multigraph, spanning_trees_bruteforce

THETA = Multigraph.from_edge_list(2, [(0, 1), (1, 0), (1, 0)])


# -- validation ---------------------------------------------------------------

def test_validate_bouquet_accepts():
    assert validate(Multigraph.bouquet(3)).ok


def test_validate_path_rejected_for_valency():
    report = validate(Multigraph.from_edge_list(2, [(0, 1)]))
    assert not report.ok
    assert any("valency" in p for p in report.problems)


def test_validate_single_loop_rejected_for_euler():
    report = validate(Multigraph.bouquet(1))
    assert not report.ok
    assert any("Euler" in p for p in report.problems)
    assert not any("valency" in p for p in report.problems)  # loop gives valency 2


def test_validate_disconnected():
    graph = Multigraph.from_edge_list(2, [(0, 0), (0, 0), (1, 1), (1, 1)])
    report = validate(graph)
    assert not report.ok
    assert any("connected" in p for p in report.problems)


def test_euler_characteristic():
    assert euler_characteristic(Multigraph.bouquet(3)) == -2
    assert euler_characteristic(THETA) == -1
    four = Multigraph.from_edge_list(2, [(0, 1)] * 4)
    assert euler_characteristic(four) == -2


# -- derived covers -----------------------------------------------------------

def test_derived_cover_counts():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(3), 5, [1, 1, 1], 2)
    cover = derived_graph(va, 1)
    assert cover.num_vertices == 5
    assert cover.num_edges == 15


def test_level_zero_is_base():
    va = VoltageAssignment.from_integers(THETA, 5, [1, 2, 2], 2)
    cover = derived_graph(va, 0)
    assert cover.num_vertices == 2
    assert cover.num_edges == 3
    assert [(t, h) for t, h in cover.edges] == list(THETA.edges)


def test_theta_level_2_cover():
    va = VoltageAssignment.from_integers(THETA, 5, [1, 2, 2], 2)
    cover = derived_graph(va, 2)
    assert cover.num_vertices == 50
    assert cover.num_edges == 75
    assert is_connected(cover)


def test_cover_structure_invariants():
    rng = random.Random(0)
    for _ in range(10):
        graph = random_connected_multigraph(rng)
        ell = rng.choice([2, 3])
        va = VoltageAssignment.from_integers(
            graph, ell, [rng.randint(-5, 5) for _ in graph.edges], 2
        )
        for n in (0, 1, 2):
            cover = derived_graph(va, n)
            m = ell**n
            assert cover.num_vertices == m * graph.num_vertices
            assert cover.num_edges == m * graph.num_edges
            assert euler_characteristic(cover) == m * euler_characteristic(graph)
            # unramified: fiber vertices keep the base valency
            for i in range(graph.num_vertices):
                for a in range(m):
                    assert cover.vertices[i * m + a] == (graph.vertices[i], a)
                    assert cover.valency(i * m + a) == graph.valency(i)


def test_projection_recovers_base_incidence():
    rng = random.Random(1)
    graph = random_connected_multigraph(rng)
    va = VoltageAssignment.from_integers(graph, 3, [rng.randint(-5, 5) for _ in graph.edges], 2)
    cover = derived_graph(va, 2)
    m = 9
    projected = sorted((t // m, h // m) for t, h in cover.edges)
    expected = sorted(edge for edge in graph.edges for _ in range(m))
    assert projected == expected


def test_precision_guard_for_padic_voltages():
    volts = [TruncatedPadic(5, 2, 1)] * 3
    va = VoltageAssignment.from_padics(Multigraph.bouquet(3), volts)
    derived_graph(va, 2)
    with pytest.raises(PrecisionError):
        derived_graph(va, 3)


# -- connectivity -------------------------------------------------------------

def test_zero_voltages_disconnect_cover():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(2), 3, [0, 0], 2)
    assert not is_connected(derived_graph(va, 1))
    assert not cover_connected_by_voltages(va)


def test_connected_cover_example():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(4), 3, [1, 1, 2, 2], 2)
    assert is_connected(derived_graph(va, 2))
    assert cover_connected_by_voltages(va)


def test_voltage_ell_gives_disconnected_low_level():
    # voltage = ell: the cycle group generated is ell * Z/ell^n
    va = VoltageAssignment.from_integers(Multigraph.bouquet(1), 3, [3], 2)
    assert not is_connected(derived_graph(va, 1))
    assert not is_connected(derived_graph(va, 2))
    assert not cover_connected_by_voltages(va)


def _disjoint_union(a: Multigraph, b: Multigraph) -> Multigraph:
    g = a.num_vertices
    return Multigraph.from_edge_list(
        g + b.num_vertices, list(a.edges) + [(t + g, h + g) for t, h in b.edges])


def test_bfs_agrees_with_subgroup_criterion():
    # integral, ell-adic and all-multiples-of-ell voltages, on connected
    # and disconnected bases, at levels 0..2; level 0 is the base itself
    rng = random.Random(2)
    outcomes = set()
    for trial in range(60):
        graph = random_connected_multigraph(rng, max_edges=6)
        if trial % 5 == 4:
            graph = _disjoint_union(graph, random_connected_multigraph(rng, max_vertices=2))
        ell = rng.choice([2, 3, 5])
        values = [rng.randint(-6, 6) for _ in graph.edges]
        kind = trial % 3
        if kind == 0:
            va = VoltageAssignment.from_integers(graph, ell, values, 2)
        elif kind == 1:
            va = VoltageAssignment.from_integers(graph, ell, [ell * v for v in values], 2)
        else:
            va = VoltageAssignment.from_padics(
                graph, [TruncatedPadic(ell, 2, rng.randrange(ell**2)) for _ in graph.edges])
        for n in (0, 1, 2):
            connected = cover_connected_by_voltages(va) if n else is_connected(graph)
            assert is_connected(derived_graph(va, n)) == connected
            outcomes.add((kind, n, connected))
    # every kind reaches both outcomes at level 1; multiples of ell never connect
    assert {(k, c) for k, n, c in outcomes if n == 1} == {
        (0, True), (0, False), (1, False), (2, True), (2, False)}
    assert (0, 0, False) in outcomes and (0, 0, True) in outcomes


# -- spanning trees -----------------------------------------------------------

def test_known_tree_counts():
    assert spanning_tree_count(Multigraph.bouquet(3)) == 1
    assert spanning_tree_count(THETA) == 3
    assert spanning_tree_count(Multigraph.from_edge_list(2, [(0, 1)] * 4)) == 4


def test_level_one_count_matches_paper():
    va = VoltageAssignment.from_integers(Multigraph.bouquet(3), 5, [1, 1, 1], 2)
    assert spanning_tree_count(derived_graph(va, 1)) == 405  # 3^4 * 5


def test_disconnected_count_rejected():
    graph = Multigraph.from_edge_list(2, [(0, 0), (1, 1)])
    with pytest.raises(DisconnectedGraphError):
        spanning_tree_count(graph)


def test_matrix_tree_against_bruteforce():
    rng = random.Random(3)
    for _ in range(60):
        graph = random_connected_multigraph(rng, max_vertices=4, max_edges=8)
        assert spanning_tree_count(graph) == spanning_trees_bruteforce(graph)


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


DENSE = dense_bareiss_order()
# graph orders on both sides of the Bareiss crossover: the complete graph
# and the wheel on DENSE + 1 vertices have minors of order DENSE with a
# dense profile, the largest that Bareiss takes, and those on DENSE + 2
# vertices go to the multi-modular engine (cycles all take Bareiss); 26,
# 27, 31, 32, 36 and 37 add dense minors of orders 25-36 about the
# crossover and det_mod's second block
ORDERS = tuple(sorted({3, 20, 26, 27, 31, 32, DENSE + 1, DENSE + 2, 36, 37, 100, 255}))


@pytest.mark.parametrize("n", ORDERS)
def test_cycle_has_n_spanning_trees(n):
    assert spanning_tree_count(Multigraph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])) == n


@pytest.mark.parametrize("n", ORDERS)
def test_complete_graph_has_n_to_the_n_minus_2_spanning_trees(n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert spanning_tree_count(Multigraph.from_edge_list(n, edges)) == n ** (n - 2)


@pytest.mark.parametrize("n", [order - 1 for order in ORDERS if order > 3])
def test_wheel_spanning_trees_are_lucas_numbers(n):
    # hub 0 and rim 1..n: W_n has L_{2n} - 2 spanning trees
    edges = [(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)]
    assert spanning_tree_count(Multigraph.from_edge_list(n + 1, edges)) == _lucas(2 * n) - 2


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_tree_count_is_invariant_under_relabelling(data):
    g = data.draw(st.one_of(st.integers(2, DENSE + 1), st.integers(DENSE + 2, 120)), label="order")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    # a random tree, then random edges, loops and parallel copies
    edges = [(rng.randrange(i), i) for i in range(1, g)]
    edges += [(rng.randrange(g), rng.randrange(g)) for _ in range(rng.randint(0, g))]
    edges += [(v, v) for v in rng.sample(range(g), rng.randint(0, min(g, 3)))]
    edges += rng.sample(edges, rng.randint(0, min(len(edges), 5)))
    rng.shuffle(edges)
    perm = rng.sample(range(g), g)
    relabelled = [(perm[a], perm[b]) for a, b in edges]
    count = spanning_tree_count(Multigraph.from_edge_list(g, edges))
    assert count == spanning_tree_count(Multigraph.from_edge_list(g, relabelled))
    assert count >= 1


# -- voltage assignments ----------------------------------------------------

def test_integer_lift_guard():
    with pytest.raises(ValueError):
        # residues fit, but the modulus is too small to lift |values| safely
        VoltageAssignment(
            Multigraph.bouquet(2), 3,
            (TruncatedPadic(3, 2, 7), TruncatedPadic(3, 2, 1)),
            (7, 1),
        )
