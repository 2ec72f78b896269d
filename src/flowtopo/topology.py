"""Containment order of hyperedges and simplicial homology.

The edge-containment partial order (ECP) puts an arc e -> f between hyperedges
whose supports satisfy support(e) being a proper subset of support(f).  It is
found as a set-containment self-join: edges are grouped by support, a vertex
-> supports inverted index is built, and the candidate supersets of a support
come only from the postings of its rarest vertex, so the cost follows the
number of arcs rather than the square of the number of edges.  Its
order complex (one k-simplex per chain of k+1 edges) is the restricted
barycentric subdivision used as a topological window summary.  Betti numbers
are computed over GF(2) by boundary-rank elimination; Hodge Laplacians use the
standard signed real boundary matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .hypergraph import Hypergraph

BettiVector = tuple[int, ...]


@dataclass(frozen=True)
class Ecp:
    """Strict containment order on hyperedges.

    ``supports`` maps each edge label to its vertex support; ``arcs`` holds
    ordered pairs (e, f) with support(e) a proper subset of support(f).
    Edges with identical supports are incomparable here (multiplicity is
    reported by hypergraph stats instead), which keeps the relation a strict
    partial order.
    """

    supports: dict[int, frozenset[str]]
    arcs: frozenset[tuple[int, int]]

    def nodes(self) -> list[int]:
        return sorted(self.supports)

    def in_degrees(self) -> dict[int, int]:
        deg = dict.fromkeys(self.supports, 0)
        for _, f in self.arcs:
            deg[f] += 1
        return deg

    def out_degrees(self) -> dict[int, int]:
        deg = dict.fromkeys(self.supports, 0)
        for e, _ in self.arcs:
            deg[e] += 1
        return deg

    def max_in_degree(self) -> int:
        return max(self.in_degrees().values(), default=0)

    def max_out_degree(self) -> int:
        return max(self.out_degrees().values(), default=0)


def build_ecp(h: Hypergraph) -> Ecp:
    """Containment arcs e -> f with support(e) a proper subset of support(f).

    Edge labels are grouped by support; equal supports are incomparable, so
    each distinct support is tested once.  An inverted index maps every
    vertex to the distinct supports holding it.  A proper superset of S must
    hold every vertex of S, in particular the one with the fewest postings,
    so only that vertex's postings are candidates; the proper supersets of S
    among them give arcs, expanded to the cross product of the two label
    lists.  A scan window whose thousands of ports share one support costs a
    single probe instead of a quadratic sweep over ports.
    """
    labels_by_support: dict[frozenset[str], list[int]] = {}
    for label, support in h.edges.items():
        labels_by_support.setdefault(support, []).append(label)
    postings: dict[str, list[frozenset[str]]] = {}
    for support in labels_by_support:
        for v in support:
            postings.setdefault(v, []).append(support)
    arcs = set()
    for support, lower in labels_by_support.items():
        rarest = min(support, key=lambda v: len(postings[v]))
        for candidate in postings[rarest]:
            if support < candidate:
                arcs.update(product(lower, labels_by_support[candidate]))
    return Ecp(supports=dict(h.edges), arcs=frozenset(arcs))


def hasse(ecp: Ecp) -> Ecp:
    """Transitive reduction: drop every arc that a 2-step path already implies."""
    succ: dict[int, set[int]] = {n: set() for n in ecp.supports}
    for e, f in ecp.arcs:
        succ[e].add(f)
    kept = set()
    for e, f in ecp.arcs:
        if not any(f in succ[g] for g in succ[e] if g != f):
            kept.add((e, f))
    return Ecp(supports=dict(ecp.supports), arcs=frozenset(kept))


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed simplex sets over integer vertices.

    ``simplices[k]`` is a lexicographically sorted tuple of strictly
    increasing (k+1)-vertex tuples.  ``labels`` optionally records what each
    vertex index stands for (e.g. a port number from an order complex).
    """

    simplices: dict[int, tuple[tuple[int, ...], ...]]
    labels: tuple | None = field(default=None, compare=False)

    @classmethod
    def from_simplices(cls, simplices, labels=None) -> "SimplicialComplex":
        """Build from an iterable of vertex tuples, adding all missing faces."""
        closed: set[tuple[int, ...]] = set()
        for s in simplices:
            verts = tuple(sorted(s))
            if len(set(verts)) != len(verts):
                raise ValueError(f"simplex {s} has repeated vertices")
            for k in range(1, len(verts) + 1):
                closed.update(combinations(verts, k))
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        return cls({k: tuple(sorted(v)) for k, v in sorted(by_dim.items())},
                   labels=labels)

    @property
    def dim(self) -> int:
        return max(self.simplices) if self.simplices else -1

    def count(self, k: int) -> int:
        return len(self.simplices.get(k, ()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.simplices.items())

    def dump(self) -> str:
        """One simplex per line, dimension-ascending then lexicographic."""
        lines = []
        for k in sorted(self.simplices):
            for s in self.simplices[k]:
                lines.append(" ".join(str(v) for v in s))
        return "\n".join(lines) + ("\n" if lines else "")


def order_complex(ecp: Ecp, max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of the containment order (the restricted barycentric
    subdivision of the hypergraph).

    Each chain e0 < e1 < ... < ek in the transitive closure of the arcs
    becomes a k-simplex.  ``max_dim`` caps the simplex dimension; chains are
    enumerated by extending at the maximum, so each chain appears once.
    Vertex indices follow sorted edge-label order; the labels ride along.
    """
    nodes = ecp.nodes()
    index = {lab: i for i, lab in enumerate(nodes)}

    # transitive closure successors, memoized over the DAG
    direct: dict[int, set[int]] = {n: set() for n in nodes}
    for e, f in ecp.arcs:
        direct[e].add(f)
    reach: dict[int, set[int]] = {}

    def successors(n: int) -> set[int]:
        if n not in reach:
            acc = set(direct[n])
            for m in direct[n]:
                acc |= successors(m)
            reach[n] = acc
        return reach[n]

    max_len = None if max_dim is None else max_dim + 1
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    stack = [(lab,) for lab in nodes]
    while stack:
        chain = stack.pop()
        k = len(chain) - 1
        by_dim.setdefault(k, []).append(tuple(sorted(index[l] for l in chain)))
        if max_len is None or len(chain) < max_len:
            for nxt in successors(chain[-1]):
                stack.append(chain + (nxt,))
    return SimplicialComplex({k: tuple(sorted(v)) for k, v in sorted(by_dim.items())},
                             labels=tuple(nodes))


def _gf2_rank(columns: list[int]) -> int:
    """Rank of a GF(2) matrix given as bit-packed column vectors."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            high = col.bit_length() - 1
            if high in pivots:
                col ^= pivots[high]
            else:
                pivots[high] = col
                rank += 1
                break
    return rank


def _boundary_columns(k_simplices, faces) -> list[int]:
    """Bit-packed boundary columns: one per k-simplex, rows over (k-1)-faces."""
    face_index = {f: i for i, f in enumerate(faces)}
    cols = []
    for s in k_simplices:
        mask = 0
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mask |= 1 << face_index[face]
        cols.append(mask)
    return cols


def betti(k_complex: SimplicialComplex, max_dim: int) -> BettiVector:
    """Betti numbers over GF(2) for dimensions 0..max_dim.

    beta_k = n_k - rank(boundary_k) - rank(boundary_{k+1}), where boundary_0
    is zero and boundary_{max_dim+1} comes from stored higher simplices when
    present.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    ranks: dict[int, int] = {}

    def rank_of(k: int) -> int:
        if k not in ranks:
            sk = k_complex.simplices.get(k, ())
            faces = k_complex.simplices.get(k - 1, ())
            if k <= 0 or not sk or not faces:
                ranks[k] = 0
            else:
                ranks[k] = _gf2_rank(_boundary_columns(sk, faces))
        return ranks[k]

    out = []
    for k in range(max_dim + 1):
        n_k = k_complex.count(k)
        out.append(n_k - rank_of(k) - rank_of(k + 1))
    return tuple(out)


@dataclass(frozen=True)
class HodgeLaplacian:
    """Symmetric PSD operator on k-chains; k=0 is the graph Laplacian."""

    k: int
    matrix: np.ndarray


def _boundary_matrix(k_complex: SimplicialComplex, k: int) -> np.ndarray:
    """Signed real boundary matrix from k-chains to (k-1)-chains.

    Orientation is ascending vertex order; the face omitting position i gets
    sign (-1)**i.  Shapes degenerate to zero-width/height at the ends.
    """
    sk = k_complex.simplices.get(k, ())
    faces = k_complex.simplices.get(k - 1, ())
    mat = np.zeros((len(faces), len(sk)))
    if k <= 0 or not sk or not faces:
        return mat
    face_index = {f: i for i, f in enumerate(faces)}
    for j, s in enumerate(sk):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            mat[face_index[face], j] = (-1) ** i
    return mat


def hodge(k_complex: SimplicialComplex, k: int) -> HodgeLaplacian:
    """k-th Hodge Laplacian B_k^T B_k + B_{k+1} B_{k+1}^T."""
    if k < 0 or k > k_complex.dim:
        raise ValueError(f"k={k} out of range for complex of dimension {k_complex.dim}")
    n_k = k_complex.count(k)
    lap = np.zeros((n_k, n_k))
    if k > 0:
        b_k = _boundary_matrix(k_complex, k)
        lap += b_k.T @ b_k
    b_up = _boundary_matrix(k_complex, k + 1)
    lap += b_up @ b_up.T
    return HodgeLaplacian(k=k, matrix=lap)


def spectrum(lap: HodgeLaplacian) -> np.ndarray:
    """Ascending eigenvalues of a symmetric Laplacian."""
    m = np.asarray(lap.matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("Laplacian matrix must be square")
    if m.size and not np.allclose(m, m.T, rtol=0.0, atol=1e-10):
        raise ValueError("Laplacian matrix must be symmetric")
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(m)
