"""Multigraphs with voltages and their cyclic derived covers.

A multigraph is stored as an ordered vertex list plus an ordered list of
directed edges (one chosen direction per undirected edge -- the section).
Loops and parallel edges are allowed.  A voltage assignment labels each
section edge with a truncated ell-adic integer; the level-n derived
cover has vertex set V x Z/ell^n and, for each section edge s and class
a, an edge (tail(s), a) -> (head(s), a + voltage(s) mod ell^n).  The
cover is itself a Multigraph, vertex (v, a) at index v * ell^n + a, so
connectivity and tree counting take Multigraphs only.  Running n
upwards produces a tower of cyclic covers whose spanning-tree counts
this package studies.

Connectivity has one engine, a breadth-first search from vertex 0 that
gives each vertex it reaches a potential: phi(head) = phi(tail) +
voltage along each tree edge, and records the order of its visits.  A
graph is connected when the search reaches every vertex.  Every cover
of level n >= 1 is connected exactly when the base is and some edge
closes a cycle of unit voltage, i.e. phi(tail) + voltage - phi(head) is
nonzero mod ell.

Spanning trees are counted exactly by the matrix-tree theorem: any
principal minor of the Laplacian (valency matrix minus adjacency, loops
cancelling) has determinant equal to the tree count.  The Laplacian is
built in the reverse of the search's visit order (reverse Cuthill-McKee
without the valency sort), so vertex 0 comes last and is the one
dropped, and every vertex's neighbours lie in its own search level or
an adjacent one: the minor's nonzeros hug the diagonal in a narrow band.
reduced_laplacian reads the minor and its envelope profile (the first
nonzero column of each row) off the edges as an intdet.ReducedLaplacian,
the one input of intdet.det_int, whose docstring describes its engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intdet import ReducedLaplacian, det_int
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


def euler_characteristic(graph: Multigraph) -> int:
    return graph.num_vertices - graph.num_edges


def _potentials(graph: Multigraph, voltages, modulus: int) -> tuple[list[int | None], list[int]]:
    """Breadth-first search from vertex 0: phi(0) = 0 and, along each tree
    edge, phi(head) = phi(tail) + voltage mod modulus.  Returns phi, where
    vertices the search does not reach keep None, and the vertices in the
    order the search visited them."""
    g = graph.num_vertices
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g)]  # (other end, shift)
    for (t, h), v in zip(graph.edges, voltages):
        incident[t].append((h, v))
        incident[h].append((t, -v))
    phi: list[int | None] = [None] * g
    order = [0] if g else []  # the visit order is also the queue
    if g:
        phi[0] = 0
    for v in order:
        for w, shift in incident[v]:
            if phi[w] is None:
                phi[w] = (phi[v] + shift) % modulus
                order.append(w)
    return phi, order


def _search_order(graph: Multigraph) -> list[int]:
    return _potentials(graph, [0] * graph.num_edges, 1)[1]


def is_connected(graph: Multigraph) -> bool:
    """Single undirected component?"""
    return 0 < len(_search_order(graph)) == graph.num_vertices


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
            if self.precision < _min_precision_for_integers(self.ell, self.integer_values):
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
        volts = tuple(TruncatedPadic(ell, n, v) for v in values)
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


def derived_graph(va: VoltageAssignment, n: int) -> Multigraph:
    """The level-n derived cover X(Z/ell^n, S, alpha_n); vertex (v, a)
    has index v * ell^n + a."""
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
    return Multigraph(vertices, tuple(edges))


def spanning_tree_count(graph: Multigraph) -> int:
    """Exact number of spanning trees: the determinant of the reduced
    Laplacian."""
    return det_int(reduced_laplacian(graph))


def reduced_laplacian(graph: Multigraph) -> ReducedLaplacian:
    """The Laplacian minor without vertex 0, its rows and columns in
    reverse breadth-first order, read off the edges with its profile."""
    order = _search_order(graph)
    g = graph.num_vertices
    if not 0 < len(order) == g:
        raise DisconnectedGraphError("spanning trees are counted for connected graphs only")
    # vertex 0 was visited first, so it is the last row and column, n
    n = g - 1
    pos = [0] * g
    for i, v in enumerate(reversed(order)):
        pos[v] = i
    diagonal, edges, first = [0] * n, [], list(range(n))
    for t, h in graph.edges:
        i, j = pos[t], pos[h]
        if i > j:
            i, j = j, i
        elif i == j:
            continue  # loops cancel between valency and adjacency
        diagonal[i] += 1
        if j < n:
            diagonal[j] += 1
            edges.append((i, j))
            if i < first[j]:
                first[j] = i
    return ReducedLaplacian(diagonal, edges, first)


def cover_connected_by_voltages(va: VoltageAssignment) -> bool:
    """Algebraic connectivity criterion for the covers of every level n >= 1.

    The level-n cover is connected when the base is and the cycle
    voltages generate Z/ell^n, i.e. some cycle voltage is a unit; that
    does not depend on n.  With the potentials phi of the base search
    taken mod ell, the cycle closed by an edge s has voltage phi(tail) +
    voltage(s) - phi(head) mod ell, so the test is whether that is
    nonzero on some edge (tree edges give 0).  Agrees with breadth-first
    search on the derived graphs."""
    ell = va.ell
    volts = [va.voltage_mod(idx, 1) for idx in range(va.graph.num_edges)]
    phi, _ = _potentials(va.graph, volts, ell)
    if not phi or None in phi:
        return False
    return any((phi[t] + v - phi[h]) % ell for (t, h), v in zip(va.graph.edges, volts))


def tower_problems(va: VoltageAssignment) -> list[str]:
    """Why va defines no tower: validate's problems with the base, or
    else covers that are disconnected.  Empty when every hypothesis
    holds."""
    problems = list(validate(va.graph).problems)
    if not problems and not cover_connected_by_voltages(va):
        problems.append("cycle voltages do not generate Z/ell: every cover is disconnected")
    return problems
