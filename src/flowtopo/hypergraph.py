"""Per-window traffic hypergraphs: source IPs as vertices, destination ports as edges.

An IP belongs to a port's hyperedge exactly when it accessed that port during
the window, so one IP touching many ports (a scan) shows up as one vertex
sitting inside many edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .flows import TimeWindow


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set plus labeled hyperedges (edge label -> vertex support)."""

    vertices: frozenset[str]
    edges: dict[int, frozenset[str]]

    def __post_init__(self):
        for label, support in self.edges.items():
            if not support:
                raise ValueError(f"edge {label} has empty support")
            if not support <= self.vertices:
                raise ValueError(f"edge {label} support not contained in vertex set")
        covered = frozenset().union(*self.edges.values()) if self.edges else frozenset()
        if covered != self.vertices:
            raise ValueError("every vertex must appear in at least one edge")

    @classmethod
    def from_edges(cls, edges: dict[int, frozenset[str]]) -> "Hypergraph":
        supports = {label: frozenset(supp) for label, supp in edges.items()}
        vertices = frozenset().union(*supports.values()) if supports else frozenset()
        return cls(vertices=vertices, edges=supports)

    @cached_property
    def _multiplicity(self) -> Counter:
        """The number of edges on each distinct support, counted once for
        stats and the detector's containment features."""
        return Counter(self.edges.values())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_degrees(self) -> dict[str, int]:
        """Number of edges containing each vertex."""
        deg = dict.fromkeys(self.vertices, 0)
        for support in self.edges.values():
            for v in support:
                deg[v] += 1
        return deg


@dataclass(frozen=True)
class HypergraphStats:
    n_vertices: int
    n_edges: int
    max_vertex_degree: int
    max_edge_size: int
    mean_edge_size: float
    max_support_multiplicity: int


def build_hypergraph(w: TimeWindow) -> Hypergraph:
    """Build the window's source-IP / destination-port hypergraph.

    Vertices are the client IPs of the window's sessions; each distinct server
    port becomes an edge whose support is the set of client IPs that accessed
    it.  An empty window yields the empty hypergraph.
    """
    by_port: dict[int, set[str]] = {}
    for s in w.sessions:
        by_port.setdefault(s.server_port, set()).add(s.client_ip)
    return Hypergraph.from_edges({p: frozenset(v) for p, v in by_port.items()})


def stats(h: Hypergraph) -> HypergraphStats:
    """Basic count statistics; all zeros for the empty hypergraph."""
    if not h.edges:
        return HypergraphStats(0, 0, 0, 0, 0.0, 0)
    sizes = [len(s) for s in h.edges.values()]
    return HypergraphStats(
        n_vertices=h.n_vertices,
        n_edges=h.n_edges,
        max_vertex_degree=max(h.vertex_degrees().values()),
        max_edge_size=max(sizes),
        mean_edge_size=sum(sizes) / len(sizes),
        max_support_multiplicity=max(h._multiplicity.values()),
    )


def dump(h: Hypergraph) -> str:
    """Deterministic debug listing: one `port: ip1 ip2 ...` line per edge.

    Ports ascend, IPs are lexicographic, so output is stable for golden files.
    """
    lines = []
    for port in sorted(h.edges):
        ips = " ".join(sorted(h.edges[port]))
        lines.append(f"{port}: {ips}")
    return "\n".join(lines) + ("\n" if lines else "")
