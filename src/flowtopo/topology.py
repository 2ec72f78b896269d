"""Containment order of hyperedges and simplicial homology.

The edge-containment partial order (ECP) puts an arc e -> f between hyperedges
whose supports satisfy support(e) being a proper subset of support(f).  It is
found as a set-containment self-join: edges are grouped by support, a vertex
-> supports inverted index is built, and the candidate supersets of a support
come only from the postings of its rarest vertex, so the cost follows the
number of arcs rather than the square of the number of edges.  The arcs are
every proper-containment pair, hence transitively closed.  Each node's sets of
nodes above and below are built from the arcs once per Ecp, and every walk of
the order reads them.  The order complex (one k-simplex per chain of k+1 edges,
the restricted barycentric subdivision used as a topological window summary)
is built layer by layer, extending each chain by the nodes above its top.
Betti numbers are computed over GF(2) from boundary ranks taken as H0
persistence takes them: the graph boundary's by counting flows.union's merges,
as persistence._spanning_forest does, and every higher one by
persistence._reduce_columns, the package's one column reduction; Hodge
Laplacians use the standard signed real boundary matrices.

Edges with one support are twins: incomparable, with the same edges below
and above.  A scan window has thousands of them, and the order complex of the
edges multiplies them (k nested supports of m twins each give C(k, 3) m^3
triangles).  twin_degrees and twin_betti recover the edge-level degrees and
Betti numbers from the order of the distinct supports alone, one node per
support class, and each class's multiplicity.  A degree is a sum of
multiplicities.  For the Betti numbers, write D(P) for the order complex of
P and L = D(P<x) * D(P>x), the join of the parts below and above x, which is
the link of x in D(P) (Wachs, "Poset topology: tools and applications",
2007).  A new twin x' of x adds the cone x' * L, glued along L, and L is
already the base of the cone x * L inside D(P); so D(P) gains a wedge
summand, the suspension of L, whose reduced homology in degree k is that of
L in degree k - 1 (Quillen, "Homotopy properties of the poset of nontrivial
p-subgroups of a group", Adv. Math. 1978; Milnor, "Construction of universal
bundles II", Ann. Math. 1956, for the homology of a join).  Only three cases
reach beta0 and beta1:

- x comparable to nothing: L is empty, its suspension two points, and beta0
  gains 1;
- x minimal, not maximal: L = D(P>x), and beta1 gains components(P>x) - 1;
- x maximal, not minimal: L = D(P<x), and beta1 gains components(P<x) - 1.

A join of two non-empty complexes is connected, so a twin of any other x
changes neither.  The edge-level path, build_ecp -> order_complex -> betti on
the hypergraph itself, stays the oracle of this rule in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .flows import find, union
from .hypergraph import Hypergraph
from .persistence import MAX_LAYER, _reduce_columns

BettiVector = tuple[int, ...]


@dataclass(frozen=True)
class Ecp:
    """Strict containment order on hyperedges.

    ``supports`` maps each edge label to its vertex support; ``arcs`` holds
    every ordered pair (e, f) with support(e) a proper subset of support(f),
    so the relation is transitively closed.  ``order_complex`` relies on
    that, and every caller passes ``build_ecp`` output.  Edges with identical
    supports are incomparable here (multiplicity is reported by hypergraph
    stats instead), which keeps the relation a strict partial order.
    """

    supports: dict[int, frozenset[str]]
    arcs: frozenset[tuple[int, int]]

    @cached_property
    def _adjacency(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """(above, below): the nodes above and below each node, in supports
        order, built from the arcs once for every walk of the order."""
        above = {x: set() for x in self.supports}
        below = {x: set() for x in self.supports}
        for e, f in self.arcs:
            above[e].add(f)
            below[f].add(e)
        return above, below

    def nodes(self) -> list[int]:
        return sorted(self.supports)

    def in_degrees(self) -> dict[int, int]:
        return {x: len(b) for x, b in self._adjacency[1].items()}

    def out_degrees(self) -> dict[int, int]:
        return {x: len(a) for x, a in self._adjacency[0].items()}

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
    lists, so the output holds every edge-level arc.  The detector calls it on
    a hypergraph with one edge per distinct support and recovers the
    edge-level features with twin_degrees and twin_betti.
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


def twin_degrees(q: Ecp, multiplicity: dict[int, int]) -> tuple[int, int]:
    """Largest in- and out-degree of the edge-level order whose distinct
    supports form q, where multiplicity[x] edges share the support of x.

    An edge with support S lies above every edge whose support is a proper
    subset of S, so its in-degree is the sum of multiplicity[t] over the
    nodes t below S in q, and its out-degree the same sum over the nodes
    above.  Equal to max_in_degree and max_out_degree of build_ecp on the
    edges themselves.
    """
    above, below = q._adjacency
    return tuple(max((sum(multiplicity[t] for t in ts) for ts in nbrs.values()), default=0)
                 for nbrs in (below, above))


def twin_betti(q: Ecp, multiplicity: dict[int, int],
               b: tuple[int, int]) -> tuple[int, int]:
    """(beta0, beta1) of the edge-level order complex, given b, the same
    numbers for q's order complex, where q is the order of the distinct
    supports and multiplicity[x] edges share the support of x.

    The classes are expanded to their multiplicity one at a time, in label
    order, by the twin rule in the module docstring: m - 1 new twins of a
    class comparable to nothing add m - 1 to beta0, and those of a minimal
    (maximal) class add (m - 1) * (components - 1) to beta1, counting the
    components of the classes above (below) it as they stand.  A class
    comparable to no other class of that sub-order is a component per twin
    it already has; one comparable to some other is in that one's
    component with all its twins.
    """
    above, below = q._adjacency
    b0, b1 = b
    copies = dict.fromkeys(q.supports, 1)
    for x in sorted(q.supports):
        m = multiplicity[x]
        if m > 1:
            if not above[x] and not below[x]:
                b0 += m - 1
            elif not below[x]:
                b1 += (m - 1) * (_components(above[x], above, copies) - 1)
            elif not above[x]:
                b1 += (m - 1) * (_components(below[x], below, copies) - 1)
        copies[x] = m
    return b0, b1


def _components(members: set[int], nbrs: dict[int, set[int]],
                copies: dict[int, int]) -> int:
    """Components of the sub-order on members, an up-set (nbrs = above) or a
    down-set (nbrs = below) of a transitively closed order, so every
    comparability inside it is a pair (a, c) with a in members and c in
    nbrs[a].  A member comparable to no other counts copies[member]."""
    root = {y: y for y in members}
    linked = set()
    for a in members:
        for c in nbrs[a]:
            union(root, a, c)
            linked.add(a)
            linked.add(c)
    return sum(1 if y in linked else copies[y] for y in members if find(root, y) == y)


def hasse(ecp: Ecp) -> Ecp:
    """Transitive reduction: drop every arc that a 2-step path already implies.

    An arc e -> f is kept exactly when no node lies both above e and below f.
    The result is the cover relation, which is not transitively closed and so
    is not an ``order_complex`` input.
    """
    above, below = ecp._adjacency
    kept = frozenset((e, f) for e, f in ecp.arcs if not above[e] & below[f])
    return Ecp(supports=dict(ecp.supports), arcs=kept)


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


def order_complex(ecp: Ecp, max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of the containment order (the restricted barycentric
    subdivision of the hypergraph).

    Each chain e0 < e1 < ... < ek of the order becomes a k-simplex.  The arcs
    must be transitively closed, as ``build_ecp`` returns them, so every chain
    is a path along arcs: the k-chains are the (k-1)-chains extended by each
    node above their top element, read from the order's above-sets, built
    one layer at a time.  ``max_dim`` caps the simplex dimension.  Vertex
    indices follow sorted edge-label order; the labels ride along.  Each layer
    is counted before it is built, and one of more than MAX_LAYER simplices
    raises ValueError: a chain of L nested supports alone has C(L, 3)
    triangles.
    """
    nodes = ecp.nodes()
    index = {lab: i for i, lab in enumerate(nodes)}
    above = [[index[f] for f in ecp._adjacency[0][lab]] for lab in nodes]
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    layer = [(i,) for i in range(len(nodes))]
    while layer:
        k = len(by_dim)
        by_dim[k] = layer
        if max_dim is not None and k >= max_dim:
            break
        count = sum(len(above[chain[-1]]) for chain in layer)
        if count > MAX_LAYER:
            raise ValueError(f"the order complex has {count} {k + 1}-simplices, more "
                             f"than the limit of {MAX_LAYER} simplices per dimension")
        layer = [chain + (j,) for chain in layer for j in above[chain[-1]]]
    simplices = {k: tuple(sorted(tuple(sorted(chain)) for chain in chains))
                 for k, chains in by_dim.items()}
    return SimplicialComplex(simplices, labels=tuple(nodes))


def betti(k_complex: SimplicialComplex, max_dim: int) -> BettiVector:
    """Betti numbers over GF(2) for dimensions 0..max_dim.

    beta_k = n_k - rank(boundary_k) - rank(boundary_{k+1}), where boundary_0
    is zero and boundary_{max_dim+1} comes from stored higher simplices when
    present.  The ranks come from the barcode's engine: rank(boundary_1) is
    the number of edges that join two components, counted by flows.union
    over a root list of the vertices as persistence._spanning_forest counts
    its killers, and a higher rank the number of bit-packed boundary
    columns, rows over the sorted (k-1)-faces, that
    persistence._reduce_columns pairs, with no apparent pairs.  The pivot
    is the highest set bit, the face without the first vertex.  A column is
    built only when its pivot is taken, or when it owns a pivot that
    another column reaches.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    ranks = [0]
    for k in range(1, max_dim + 2):
        sk = k_complex.simplices.get(k, ())
        faces = k_complex.simplices.get(k - 1, ())
        if not (sk and faces):
            ranks.append(0)
            continue
        index = {f: i for i, f in enumerate(faces)}
        if k == 1:
            root = list(range(len(faces)))
            ranks.append(sum(union(root, index[s[:1]], index[s[1:]]) is not None
                             for s in sk))
        else:
            pairs, _ = _reduce_columns(
                range(len(sk)), (index[s[1:]] for s in sk),
                lambda j: sum([1 << index[f] for f in combinations(sk[j], k)]),
                lambda col: col.bit_length() - 1, lambda t: None)
            ranks.append(len(pairs))
    return tuple(k_complex.count(k) - ranks[k] - ranks[k + 1]
                 for k in range(max_dim + 1))


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
