"""Per-window traffic hypergraphs: source IPs as vertices, destination ports as edges.

An IP belongs to a port's hyperedge exactly when it accessed that port during
the window, so one IP touching many ports (a scan) shows up as one vertex
sitting inside many edges.

A scan puts thousands of ports on one support.  build_hypergraph gives ports
with equal supports one shared frozenset (a scan's one-client ports all share
the scanner's singleton), and past grouping the sessions its Python loops run
once per distinct support.  The constructor checks each distinct support
once, and stats and vertex_degrees weight each distinct support by its number
of ports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .flows import TimeWindow


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set plus labeled hyperedges (edge label -> vertex support)."""

    vertices: frozenset[str]
    edges: dict[int, frozenset[str]]

    def __post_init__(self):
        # edges on one support are checked together, so a scan's thousands
        # of one-client ports cost one check; a failure names the first bad
        # label in edge order
        supports = set(self.edges.values())
        bad = {s for s in supports if not s or not s <= self.vertices}
        if bad:
            label, support = next(e for e in self.edges.items() if e[1] in bad)
            if not support:
                raise ValueError(f"edge {label} has empty support")
            raise ValueError(f"edge {label} support not contained in vertex set")
        if frozenset().union(*supports) != self.vertices:
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
        for support, m in self._multiplicity.items():
            for v in support:
                deg[v] += m
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
    it.  An empty window yields the empty hypergraph.  Ports with equal
    supports share one frozenset.
    """
    # each port's first client, and the further clients of the ports that
    # have them: a scan's session costs one lookup and makes no set
    first: dict[int, str] = {}
    others: defaultdict[int, set[str]] = defaultdict(set)
    for s in w.sessions:
        if first.setdefault(s.server_port, s.client_ip) != s.client_ip:
            others[s.server_port].add(s.client_ip)
    # a one-client port gets its client's singleton, the others one frozenset
    # per distinct client set; edges keep the ports' first-session order
    singleton = {c: frozenset((c,)) for c in set(first.values())}
    edges = dict(zip(first, map(singleton.__getitem__, first.values())))
    shared: dict[frozenset[str], frozenset[str]] = {}
    for port, clients in others.items():
        clients.add(first[port])
        edges[port] = shared.setdefault(f := frozenset(clients), f)
    return Hypergraph(frozenset(singleton).union(*shared), edges)


def stats(h: Hypergraph) -> HypergraphStats:
    """Basic count statistics; all zeros for the empty hypergraph."""
    if not h.edges:
        return HypergraphStats(0, 0, 0, 0, 0.0, 0)
    multiplicity = h._multiplicity
    sizes = list(map(len, multiplicity))
    return HypergraphStats(
        n_vertices=h.n_vertices,
        n_edges=h.n_edges,
        max_vertex_degree=max(h.vertex_degrees().values()),
        max_edge_size=max(sizes),
        # an int sum, so the mean is the port-by-port one to the bit
        mean_edge_size=sum(map(mul, sizes, multiplicity.values())) / h.n_edges,
        max_support_multiplicity=max(multiplicity.values()),
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
