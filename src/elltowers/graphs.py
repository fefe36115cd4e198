"""Multigraphs with voltages and their cyclic derived covers.

A multigraph is stored as an ordered vertex list plus an ordered list of
directed edges (one chosen direction per undirected edge -- the section).
Loops and parallel edges are allowed.  A voltage assignment labels each
section edge with a truncated ell-adic integer; the level-n derived
cover has vertex set V x Z/ell^n and, for each section edge s and class
a, an edge (tail(s), a) -> (head(s), a + voltage(s) mod ell^n).  Running
n upwards produces a tower of cyclic covers whose spanning-tree counts
this package studies.

Spanning trees are counted exactly by the matrix-tree theorem: any
principal minor of the Laplacian (valency matrix minus adjacency, loops
cancelling) has determinant equal to the tree count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .intdet import det_int
from .padics import PrecisionError, TruncatedPadic


class DisconnectedGraphError(ValueError):
    """Spanning-tree count requested for a disconnected multigraph."""


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple
    edges: tuple[tuple[int, int], ...]  # section edges as (tail index, head index)

    def __post_init__(self):
        g = len(self.vertices)
        for t, h in self.edges:
            if not (0 <= t < g and 0 <= h < g):
                raise ValueError(f"edge ({t},{h}) references a missing vertex")
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))

    @classmethod
    def bouquet(cls, loops: int) -> "Multigraph":
        return cls(("v1",), tuple((0, 0) for _ in range(loops)))

    @classmethod
    def from_edge_list(cls, num_vertices: int, edges) -> "Multigraph":
        return cls(tuple(f"v{i + 1}" for i in range(num_vertices)), tuple(edges))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def valency(self, i: int) -> int:
        """Degree of vertex i; a loop contributes 2."""
        d = 0
        for t, h in self.edges:
            if t == i:
                d += 1
            if h == i:
                d += 1
        return d

    def adjacency(self) -> list[list[int]]:
        """Undirected adjacency counts; A[i][i] counts each loop twice."""
        g = self.num_vertices
        a = [[0] * g for _ in range(g)]
        for t, h in self.edges:
            a[t][h] += 1
            a[h][t] += 1
        return a


def euler_characteristic(graph: Multigraph) -> int:
    return graph.num_vertices - graph.num_edges


def is_connected(graph_or_cover) -> bool:
    """Single undirected component?  Accepts a Multigraph or DerivedCover."""
    graph = getattr(graph_or_cover, "graph", graph_or_cover)
    g = graph.num_vertices
    if g == 0:
        return False
    neighbors: list[list[int]] = [[] for _ in range(g)]
    for t, h in graph.edges:
        neighbors[t].append(h)
        neighbors[h].append(t)
    seen = [False] * g
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                queue.append(w)
    return reached == g


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def validate(graph: Multigraph) -> ValidationReport:
    """Check the standing hypotheses: connected, min valency >= 2, and
    nonzero Euler characteristic."""
    problems = []
    if not is_connected(graph):
        problems.append("graph is not connected")
    bad = [str(graph.vertices[i]) for i in range(graph.num_vertices) if graph.valency(i) < 2]
    if bad:
        problems.append("vertices of valency < 2: " + ", ".join(bad))
    if euler_characteristic(graph) == 0:
        problems.append("Euler characteristic |V| - |E| is zero")
    return ValidationReport(not problems, tuple(problems))


def _min_precision_for_integers(ell: int, values) -> int:
    # Keep every exponent that can arise downstream (sums of +-voltages)
    # below an eighth of the modulus, so minimal-absolute-value lifts of
    # exponent residues are unambiguous with margin.
    span = 8 * (sum(abs(int(v)) for v in values) + 1)
    n = 1
    while ell**n <= span:
        n += 1
    return n


@dataclass(frozen=True)
class VoltageAssignment:
    """A section edge -> Z_ell labelling.

    `integer_values` is set exactly when the voltages were *declared* as
    rational integers; only then do exponent lifts (and hence the
    integer polynomial U) make sense.  A small truncation of an ell-adic
    voltage is never promoted to an integer.
    """

    graph: Multigraph
    ell: int
    voltages: tuple[TruncatedPadic, ...]
    integer_values: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.voltages) != self.graph.num_edges:
            raise ValueError("need exactly one voltage per section edge")
        for v in self.voltages:
            if v.ell != self.ell:
                raise ValueError("voltage prime differs from tower prime")
            if v.precision != self.precision:
                raise ValueError("voltages must share one precision")
        if self.integer_values is not None:
            object.__setattr__(self, "integer_values", tuple(int(x) for x in self.integer_values))
            if len(self.integer_values) != len(self.voltages):
                raise ValueError("integer_values length mismatch")
            mod = self.ell**self.precision
            for x, v in zip(self.integer_values, self.voltages):
                if x % mod != v.residue:
                    raise ValueError("integer voltage disagrees with its residue")
            if mod <= 8 * (sum(abs(x) for x in self.integer_values) + 1):
                raise ValueError("precision too small for unambiguous integer lifts")

    @property
    def precision(self) -> int:
        if not self.voltages:
            return 1
        return self.voltages[0].precision

    @property
    def is_integral(self) -> bool:
        return self.integer_values is not None

    @classmethod
    def from_integers(cls, graph: Multigraph, ell: int, values, precision: int = 1) -> "VoltageAssignment":
        values = tuple(int(v) for v in values)
        n = max(precision, _min_precision_for_integers(ell, values))
        volts = tuple(TruncatedPadic.from_integer(v, ell, n) for v in values)
        return cls(graph, ell, volts, values)

    @classmethod
    def from_padics(cls, graph: Multigraph, voltages) -> "VoltageAssignment":
        voltages = tuple(voltages)
        if not voltages:
            raise ValueError("empty voltage list")
        return cls(graph, voltages[0].ell, voltages, None)

    def voltage_mod(self, index: int, n: int) -> int:
        """voltage(s_index) mod ell^n.  Declared integers are exact at any
        level; truncated ell-adics stop at their stored precision."""
        if self.integer_values is not None:
            return self.integer_values[index] % self.ell**n if n > 0 else 0
        return self.voltages[index].reduce(n)


@dataclass(frozen=True)
class DerivedCover:
    level: int
    assignment: VoltageAssignment
    graph: Multigraph = field(compare=False)

    @property
    def base(self) -> Multigraph:
        return self.assignment.graph

    def vertex_index(self, base_index: int, cls: int) -> int:
        return base_index * self.assignment.ell**self.level + cls


def derived_graph(va: VoltageAssignment, n: int) -> DerivedCover:
    """The level-n derived cover X(Z/ell^n, S, alpha_n)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if not va.is_integral and n > va.precision:
        raise PrecisionError(f"voltages known mod {va.ell}^{va.precision}, level {n} requested")
    m = va.ell**n
    base = va.graph
    vertices = tuple((label, a) for label in base.vertices for a in range(m))
    edges = []
    for idx, (t, h) in enumerate(base.edges):
        shift = va.voltage_mod(idx, n)
        for a in range(m):
            edges.append((t * m + a, h * m + (a + shift) % m))
    return DerivedCover(n, va, Multigraph(vertices, tuple(edges)))


def spanning_tree_count(graph_or_cover) -> int:
    """Exact number of spanning trees, by a Laplacian principal minor."""
    graph = getattr(graph_or_cover, "graph", graph_or_cover)
    if not is_connected(graph):
        raise DisconnectedGraphError("spanning trees are counted for connected graphs only")
    g = graph.num_vertices
    if g == 1:
        return 1
    lap = [[0] * g for _ in range(g)]
    for t, h in graph.edges:
        if t == h:
            continue  # loops cancel between valency and adjacency
        lap[t][h] -= 1
        lap[h][t] -= 1
        lap[t][t] += 1
        lap[h][h] += 1
    minor = [row[1:] for row in lap[1:]]
    return det_int(minor)


def _bfs_spanning_tree(graph: Multigraph) -> list[int]:
    """Edge indices of the lowest-index BFS spanning tree rooted at 0."""
    g = graph.num_vertices
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g)]  # (edge idx, other end)
    for idx, (t, h) in enumerate(graph.edges):
        incident[t].append((idx, h))
        incident[h].append((idx, t))
    for lst in incident:
        lst.sort()
    seen = [False] * g
    seen[0] = True
    tree: list[int] = []
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for idx, w in incident[v]:
            if not seen[w]:
                seen[w] = True
                tree.append(idx)
                queue.append(w)
    if len(tree) != g - 1:
        raise DisconnectedGraphError("no spanning tree: graph is disconnected")
    return sorted(tree)


def normalize_voltages(va: VoltageAssignment, tree: list[int] | None = None) -> VoltageAssignment:
    """Cycle-normalize a voltage assignment along a spanning tree.

    Each section edge s determines a closed path: the tree geodesic from
    head(s) back to tail(s), then s itself.  The returned assignment
    carries the signed voltage sum of that path: 0 on tree edges, the
    cycle voltage elsewhere.  It derives a tower isomorphic to the
    original one.
    """
    graph = va.graph
    tree_edges = _bfs_spanning_tree(graph) if tree is None else sorted(tree)
    if len(tree_edges) != graph.num_vertices - 1:
        raise ValueError("spanning tree must have |V| - 1 edges")

    mod = va.ell**va.precision
    # Potentials: phi(root)=0 and phi(head) = phi(tail) + voltage on tree edges.
    phi_res: list[int | None] = [None] * graph.num_vertices
    phi_int: list[int | None] = [None] * graph.num_vertices
    phi_res[0] = 0
    phi_int[0] = 0
    in_tree = set(tree_edges)
    pending = True
    while pending:
        pending = False
        progressed = False
        for idx in tree_edges:
            t, h = graph.edges[idx]
            if phi_res[t] is not None and phi_res[h] is None:
                phi_res[h] = (phi_res[t] + va.voltages[idx].residue) % mod
                if va.is_integral:
                    phi_int[h] = phi_int[t] + va.integer_values[idx]
                progressed = True
            elif phi_res[h] is not None and phi_res[t] is None:
                phi_res[t] = (phi_res[h] - va.voltages[idx].residue) % mod
                if va.is_integral:
                    phi_int[t] = phi_int[h] - va.integer_values[idx]
                progressed = True
        pending = any(x is None for x in phi_res)
        if pending and not progressed:
            raise ValueError("tree edges do not span the graph")

    new_res = []
    new_int = [] if va.is_integral else None
    for idx, (t, h) in enumerate(graph.edges):
        if idx in in_tree:
            new_res.append(TruncatedPadic(va.ell, va.precision, 0))
            if new_int is not None:
                new_int.append(0)
            continue
        r = (phi_res[t] - phi_res[h] + va.voltages[idx].residue) % mod
        new_res.append(TruncatedPadic(va.ell, va.precision, r))
        if new_int is not None:
            new_int.append(phi_int[t] - phi_int[h] + va.integer_values[idx])
    if new_int is not None:
        # Re-provision precision: cycle sums can exceed the raw voltages.
        return VoltageAssignment.from_integers(graph, va.ell, new_int, va.precision)
    return VoltageAssignment(graph, va.ell, tuple(new_res), None)


def cycle_voltages(va: VoltageAssignment) -> list[TruncatedPadic]:
    """Voltages of the fundamental cycles of the BFS spanning tree."""
    normalized = normalize_voltages(va)
    tree = set(_bfs_spanning_tree(va.graph))
    return [v for i, v in enumerate(normalized.voltages) if i not in tree]


def cover_connected_by_voltages(va: VoltageAssignment, n: int) -> bool:
    """Algebraic connectivity criterion for the level-n cover: the cycle
    voltages must generate Z/ell^n, i.e. some cycle voltage is a unit.
    Agrees with breadth-first search on the derived graph."""
    if not is_connected(va.graph):
        return False
    if n == 0:
        return True
    return any(v.is_unit() for v in cycle_voltages(va))
