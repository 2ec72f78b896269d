"""Persistent homology of point clouds and Wasserstein distances between diagrams.

The Vietoris-Rips filtration connects points at distance <= eps and fills in
cliques; it is built one dimension at a time from boolean adjacency masks
and handed to the barcode as arrays, with no per-simplex Python object.
The barcode pairs simplices as the GF(2) boundary-matrix reduction in
filtration order would, but computes the pairs more cheaply: H0 by union-find
with the elder rule, stopping at the spanning tree; higher dimensions by
reducing coboundaries (persistent cohomology, which yields the same pairs)
with clearing, after taking the apparent pairs of a whole dimension in one
numpy pass (Bauer, "Ripser: efficient computation of Vietoris-Rips
persistence barcodes", JACT 2021; de Silva, Morozov & Vejdemo-Johansson,
"Dualities in persistent (co)homology", 2011).  A Filtration is checked
and its facets found where it is built, through a dense table indexed by
vertex label or simplex key while it stays within DENSE_PER_SIMPLEX
entries per simplex, and by sorting and binary search beyond it.
barcode(f, max_dim) computes no dimension above max_dim, so a Rips
filtration's top dimension costs no infinite bars.
Two paths lead to a Rips diagram.  vietoris_rips builds and checks a
Filtration of the cliques within max_eps, and barcode reduces it: this
serves `ph` and is the oracle.  rips_diagram takes a distance matrix: for
max_dim >= 2 it builds the same cliques from it, and for max_dim <= 1, the
detector's case, it builds no triangle at all (_flag_diagram).  H0 is then
Kruskal's algorithm over the relative-neighbourhood graph, which holds the
minimum spanning forest, and H1 reduces the coboundaries of the other edges,
each coface named by a key computed from the matrix, so that apparent pairs
and earliest cofaces are array reductions.  Both paths refuse to build
more than MAX_LAYER simplices of one dimension, and the triangle-free one
refuses as many triangles as the other would build.  _spanning_forest and
_reduce_columns are the package's one GF(2) elimination: topology.betti
counts flows.union's merges, as _spanning_forest does, for its graph rank
and takes its higher ranks from _reduce_columns.
Diagram distance is a minimal-cost matching (Hungarian assignment) with
L-infinity ground metric and diagonal projections; scipy's assignment solver
is imported at the first distance, not with the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .flows import fmt, union

DIAGRAM_HEADER = "dim,birth,death"
# dense lookup tables may hold this many entries per simplex of the filtration
DENSE_PER_SIMPLEX = 8
# the most simplices of one dimension a Rips complex may have; a full
# 2-skeleton of that size peaks near 0.7 GB in vietoris_rips + barcode
MAX_LAYER = 2_000_000
# the most entries of the rows x columns x coordinates difference array that
# euclidean_distances holds at once (8 MiB of float64); a detector cloud of
# 21 points in 10 coordinates is 4,410
DISTANCE_BLOCK = 1 << 20
# the most triangle keys rips_diagram computes at once (at most 512 KiB per
# array of a block), few enough for a block's arrays to stay in cache
KEY_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Filtration:
    """Simplices in filtration order, as three read-only arrays of its own.

    ``births`` (float64) holds each simplex's birth, ``sizes`` (integer) its
    vertex count and ``vertices`` (integer) all vertex labels, concatenated,
    increasing within each simplex.  Births are finite and never decrease,
    sizes never decrease at equal birth, each face of a simplex is in the
    filtration and born no later, and no simplex is listed twice; the
    constructor raises ValueError naming the first simplex that breaks this.
    It keeps ``positions[k]``, the k-simplices' filtration positions, and
    ``facets[k]`` (see _facet_rows) for barcode(), read-only too.
    from_simplices() sorts (vertex tuple, birth) pairs into order.
    """

    births: np.ndarray
    sizes: np.ndarray
    vertices: np.ndarray
    positions: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    facets: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, want in (("births", np.float64), ("sizes", np.integer),
                           ("vertices", np.integer)):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.ndim == 1
                    and np.issubdtype(arr.dtype, want)):
                raise ValueError(f"{name} must be a 1-D {want.__name__} array")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        births, sizes, vertices = self.births, self.sizes, self.vertices
        if len(sizes) != len(births) or sizes.sum() != len(vertices):
            raise ValueError(f"{len(births)} births, {len(sizes)} sizes summing to "
                             f"{int(sizes.sum())} and {len(vertices)} vertices do not match")
        empty = np.flatnonzero(sizes < 1)
        if empty.size:
            raise ValueError(f"simplex {int(empty[0])} has {int(sizes[empty[0]])} vertices")
        bad = np.flatnonzero(~np.isfinite(births))
        if bad.size:
            verts, birth = self.simplices[bad[0]]
            raise ValueError(f"simplex {verts} has non-finite birth {birth}")
        bad = np.flatnonzero((births[1:] < births[:-1]) | (
            (births[1:] == births[:-1]) & (sizes[1:] < sizes[:-1])))
        if bad.size:
            (prev, prev_birth), (verts, birth) = self.simplices[bad[0]:bad[0] + 2]
            raise ValueError(f"simplex {verts} born at {birth} comes after {prev} born "
                             f"at {prev_birth}; order simplices by birth, then size")
        positions = tuple(np.flatnonzero(sizes == k + 1) for k in range(int(sizes.max(initial=0))))
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "facets", _facet_rows(self, positions) if positions else ())
        for arr in self.positions + self.facets:
            arr.flags.writeable = False

    @classmethod
    def from_simplices(cls, pairs: Iterable[tuple[Sequence[int], float]]) -> "Filtration":
        canon = []
        for verts, birth in pairs:
            # operator.index refuses a float label, which int64 would truncate
            v = tuple(sorted(map(operator.index, verts)))
            canon.append((float(birth), len(v), v))
        canon.sort()
        sizes = np.array([k for _, k, _ in canon], dtype=np.int64)
        vertices = np.fromiter(chain.from_iterable(v for _, _, v in canon),
                               dtype=np.int64, count=int(sizes.sum()))
        return cls(np.array([b for b, _, _ in canon], dtype=np.float64), sizes, vertices)

    @property
    def simplices(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        flat = self.vertices.tolist()
        ends = np.cumsum(self.sizes).tolist()
        verts = [tuple(flat[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]
        return tuple(zip(verts, self.births.tolist()))

    def __reduce__(self):
        # rebuilt through the constructor, so copies are checked and read-only
        return Filtration, (self.births, self.sizes, self.vertices)

    def __len__(self) -> int:
        return len(self.births)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        return (np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.births, other.births))


def euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of a and the rows of b: the one expression
    every Rips birth comes from.  Each entry depends only on its two points,
    so a row computed alone, a block of rows or a submatrix equals its part
    of the full matrix bit for bit.  Rows are taken a block at a time, as
    many as keep the difference array within DISTANCE_BLOCK entries (at
    least one)."""
    out = np.empty((len(a), len(b)))
    rows = max(1, DISTANCE_BLOCK // max(1, b.size))
    for i in range(0, len(a), rows):
        diff = a[i:i + rows, None, :] - b[None, :, :]
        out[i:i + rows] = np.sqrt((diff * diff).sum(axis=-1))
    return out


def vietoris_rips(points, max_eps: float, max_dim: int) -> Filtration:
    """Rips filtration of a point cloud under Euclidean distance.

    Vertices are born at 0; an edge is born at its length (kept if <= max_eps);
    a higher simplex is born at the largest pairwise distance among its
    vertices.  Simplices up to dimension max_dim + 1 are generated so that
    deaths in dimension max_dim are correct.  Non-finite coordinates are
    rejected, and so is a cloud with more than MAX_LAYER pairs or whose
    complex would have more than MAX_LAYER simplices of one dimension,
    before that dimension is built.
    """
    if not max_eps > 0:
        raise ValueError(f"max_eps must be > 0, got {max_eps}")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and pts.size == 0:
        raise ValueError("point cloud must be nonempty")
    if pts.ndim != 2:
        raise ValueError("points must share a common dimension")
    n = len(pts)
    if n == 0:
        raise ValueError("point cloud must be nonempty")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"point {int(bad[0])} has a non-finite coordinate")
    _check_pairs(n)
    return _clique_filtration(euclidean_distances(pts, pts), max_eps, max_dim)


def _check_pairs(n: int) -> None:
    if n * (n - 1) // 2 > MAX_LAYER:
        raise ValueError(f"{n} points have {n * (n - 1) // 2} pairs, more than "
                         f"the limit of {MAX_LAYER} simplices per dimension")


def _clique_filtration(dist: np.ndarray, max_eps: float, max_dim: int) -> Filtration:
    """vietoris_rips of the points whose distance matrix is dist."""
    n = len(dist)
    # upper[u, w]: the edge {u, w} is in the complex and u < w.  A simplex
    # extends by each w above all its vertices that is adjacent to all of
    # them; walking the rows of a lexicographically sorted layer keeps the
    # next layer lexicographically sorted.
    upper = np.triu(dist <= max_eps, k=1)
    layer = np.arange(n)[:, None]
    births = np.zeros(n)
    layers, layer_births = [layer], [births]
    for dim in range(1, max_dim + 2):
        rows, new = _extensions(upper, layer, dim)
        if rows.size == 0:
            break
        layer = layer[rows]
        # one 1-D gather per column; a max of the same floats in another
        # order, so the births are bit for bit the clique's largest distance
        births = births[rows]
        for col in layer.T:
            births = np.maximum(births, dist[col, new])
        layer = np.column_stack((layer, new))
        layers.append(layer)
        layer_births.append(births)

    # one stable sort by (birth, dim) keeps the lexicographic order of ties;
    # the layers are padded with -1 to one width, reordered as rows, and the
    # padding dropped, which leaves each simplex's vertices in place
    all_births = np.concatenate(layer_births)
    sizes = np.repeat(np.arange(1, len(layers) + 1), [len(lay) for lay in layers])
    order = np.lexsort((sizes, all_births))
    padded = np.full((len(sizes), len(layers)), -1)
    row = 0
    for lay in layers:
        padded[row:row + len(lay), :lay.shape[1]] = lay
        row += len(lay)
    padded = padded[order]
    return Filtration(all_births[order], sizes[order], padded[padded >= 0])


def _extensions(upper: np.ndarray, layer: np.ndarray, dim: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(row, w) for each layer row and each vertex w that extends it to a
    dim-simplex, in row-major order.

    The extension mask is built for a chunk of rows at a time, no larger
    than the layer or the adjacency matrix, and counted first: more than
    MAX_LAYER simplices raise ValueError before any is built.
    """
    chunk = max(layer.nbytes, upper.nbytes) // len(upper)
    found, count = [], 0
    for lo in range(0, len(layer), chunk):
        part = layer[lo:lo + chunk]
        extends = upper[part[:, 0]]
        for col in part.T[1:]:
            extends &= upper[col]
        count += int(np.count_nonzero(extends))
        if count <= MAX_LAYER:
            rows, new = np.nonzero(extends)
            found.append((rows + lo, new))
    if count > MAX_LAYER:
        raise ValueError(f"the Rips complex has {count} {dim}-simplices, more than "
                         f"the limit of {MAX_LAYER} simplices per dimension")
    if len(found) == 1:
        return found[0]
    return (np.concatenate([rows for rows, _ in found]),
            np.concatenate([new for _, new in found]))


@dataclass(frozen=True)
class PersistenceDiagram:
    """Per-dimension multisets of (birth, death) bars; death may be math.inf.

    Zero-persistence bars are never stored.
    """

    bars: dict[int, tuple[tuple[float, float], ...]]

    def in_dim(self, k: int) -> tuple[tuple[float, float], ...]:
        return self.bars.get(k, ())

    def dims(self) -> list[int]:
        return sorted(self.bars)

    def infinite_count(self, k: int) -> int:
        return sum(1 for _, d in self.in_dim(k) if math.isinf(d))

    def truncate(self, cap: float) -> "PersistenceDiagram":
        """Replace infinite deaths with cap, discarding bars that collapse."""
        out: dict[int, tuple[tuple[float, float], ...]] = {}
        for k, bars in self.bars.items():
            kept = []
            for b, d in bars:
                if math.isinf(d):
                    d = cap
                if d > b:
                    kept.append((b, d))
            if kept:
                out[k] = tuple(sorted(kept))
        return PersistenceDiagram(out)

    def restrict(self, max_dim: int) -> "PersistenceDiagram":
        return PersistenceDiagram({k: v for k, v in self.bars.items() if k <= max_dim})


def _facet_rows(filtration: Filtration, positions: tuple[np.ndarray, ...]
                ) -> tuple[np.ndarray, ...]:
    """facets[k][i, d]: the row in positions[k - 1] of the facet of simplex
    positions[k][i] without its d-th vertex; facets[0] has no columns.

    Raises ValueError naming the first simplex, dimension by dimension, that
    lacks a face, that has a face born after it, or that is listed twice,
    or the first edge whose vertices do not increase.
    """
    births, sizes, ranks = filtration.births, filtration.sizes, filtration.vertices
    # Labels rank themselves, and keys are looked up in a table indexed by
    # them, while that table has at most DENSE_PER_SIMPLEX entries per
    # simplex; larger or negative labels are ranked by sorting, and larger
    # keys (or keys past int64) are found by binary search over sorted keys.
    bound = DENSE_PER_SIMPLEX * len(births)
    if not (0 <= ranks.min() and ranks.max() < bound):
        ranks = np.unique(ranks, return_inverse=True)[1]
    base = int(ranks.max()) + 1
    # a simplex's key is its tuple of vertex ranks read in base `base`; the
    # key of a label that is no vertex is missing from the vertex keys
    key_type = np.int64 if base ** len(positions) < 2 ** 63 else object
    ranks = ranks.astype(key_type, copy=False)
    size_of = np.repeat(sizes, sizes)

    facets = [np.empty((len(positions[0]), 0), dtype=np.int64)]
    for k, pos in enumerate(positions):
        rows = ranks[size_of == k + 1].reshape(-1, k + 1)
        keys = rows[:, 0]
        if k:
            # an edge's vertices increase, so it has one spelling and one key;
            # a larger simplex spelled out of order then has a facet no key fits
            if k == 1 and (rows[:, 0] >= rows[:, 1]).any():
                verts, _ = filtration.simplices[pos[np.argmax(rows[:, 0] >= rows[:, 1])]]
                raise ValueError(f"simplex {verts} has repeated or unsorted vertices")
            # facet_keys[:, d] is the key of the facet without the d-th vertex,
            # in which vertex c < d is digit k - 1 - c and vertex c > d digit
            # k - c: the sum of a prefix and a suffix, each built by one
            # multiply-add per column of rows (numpy has no BLAS for integer
            # matrix products, and rows @ digits costs k + 1 times as many)
            facet_keys = np.zeros((k + 1, len(rows)), dtype=key_type)
            for d in range(1, k + 1):
                facet_keys[d] = facet_keys[d - 1] + rows[:, d - 1] * base ** (k - d)
            suffix = 0
            for d in range(k - 1, -1, -1):
                suffix = suffix + rows[:, d + 1] * base ** (k - d - 1)
                facet_keys[d] += suffix
            facet_keys = facet_keys.T
            # face_rows is -1 where no facet has the key
            if table is not None:
                face_rows = table[facet_keys]
            else:
                at = np.searchsorted(sorted_keys, facet_keys)
                # keys are >= 0, so the appended -1 matches no facet key
                face_rows = np.where(np.append(sorted_keys, -1)[at] == facet_keys,
                                     np.append(key_order, -1)[at], -1)
            if (face_rows < 0).any():
                row, drop = np.argwhere(face_rows < 0)[0]
                coface, _ = filtration.simplices[pos[row]]
                raise ValueError(f"filtration is missing face "
                                 f"{coface[:drop] + coface[drop + 1:]} of {coface}")
            # births never decrease and sizes never decrease at equal birth, so
            # a face is born after its coface exactly when it comes later
            if (positions[k - 1][reduce(np.maximum, face_rows.T)] > pos).any():
                face_pos = positions[k - 1][face_rows]
                row, drop = np.argwhere(births[face_pos] > births[pos][:, None])[0]
                face, face_birth = filtration.simplices[face_pos[row, drop]]
                coface, coface_birth = filtration.simplices[pos[row]]
                raise ValueError(f"face {face} born at {face_birth} after "
                                 f"coface {coface} at {coface_birth}")
            facets.append(np.ascontiguousarray(face_rows))
            # the facet without the last vertex holds the leading digits
            keys = facet_keys[:, k] * base + rows[:, k]
        # rows by key, in the smallest type that holds -1 and every row, for the
        # next dimension's facets; repeats leave fewer distinct keys than rows
        if key_type is np.int64 and base ** (k + 1) <= bound:
            table = np.full(base ** (k + 1), -1, dtype=np.min_scalar_type(-1 - len(keys)))
            table[keys] = np.arange(len(keys), dtype=table.dtype)
            distinct = np.count_nonzero(table >= 0)
        else:
            table, key_order = None, np.argsort(keys, kind="stable")
            sorted_keys = keys[key_order]
            distinct = np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        if distinct < len(keys):
            row = np.setdiff1d(np.arange(len(keys)), np.unique(keys, return_index=True)[1])[0]
            verts, _ = filtration.simplices[pos[row]]
            raise ValueError(f"simplex {verts} is listed more than once")
    return tuple(facets)


def _spanning_forest(vertex_births: list[float], edges, edge_births: Iterable[float]
                     ) -> tuple[tuple[tuple[float, float], ...], list[int]]:
    """H0 bars, sorted, and the indices of the edges that kill a component.

    Kruskal's algorithm: union-find over edges, (vertex row, vertex row)
    pairs in filtration order, with the elder rule: union returns the
    younger root, the later row, which dies.  After len(vertex_births) - 1
    merges no edge can kill a component, so the walk stops there.  There
    are as many killers as the rank of the edges' boundary matrix.
    """
    root = list(range(len(vertex_births)))
    to_merge = len(root) - 1
    bars: list[tuple[float, float]] = []
    killers: list[int] = []
    for i, ((a, b), birth) in enumerate(zip(edges, edge_births)):
        if not to_merge:
            break
        younger = union(root, a, b)
        if younger is not None:
            killers.append(i)
            if birth > vertex_births[younger]:
                bars.append((vertex_births[younger], birth))
            to_merge -= 1
    bars += [(vertex_births[v], math.inf) for v, r in enumerate(root) if r == v]
    return tuple(sorted(bars)), killers


def _reduce_columns(cells: Iterable[int], pivots: Iterable[int], column, lowest, apparent
                    ) -> tuple[list[tuple[int, int]], list[int]]:
    """Persistent cohomology's column reduction, one cell at a time.

    cells come in reverse filtration order and pivots[i] is the earliest
    coface of cells[i].  column(cell) builds a cell's column, a bitmask or a
    set of its cofaces' ids, which increase along the filtration, and
    lowest(column) gives its earliest coface.  apparent(t) is the cell that
    forms an apparent pair with t, or None: those cells pair without a
    reduction, and their columns are built only when another column
    reaches their pivot.  A column whose pivot is taken adds the owner's
    column until its pivot is new or it is empty.  Returns the (cell, pivot)
    pairs and the cells whose column reduces to zero.  The pairs are as many
    as the columns' rank for any cell order and any pivot rule, so long as
    pivots[i] is lowest(column(cells[i])); topology.betti relies on that.
    """
    owner: dict[int, int] = {}  # pivot -> the cell it pairs with
    built: dict = {}  # cell -> its column, reduced, once it is needed
    pairs: list[tuple[int, int]] = []
    essential: list[int] = []
    for s, pivot in zip(cells, pivots):
        col = None
        while True:
            cell = owner.get(pivot)
            if cell is None:
                cell = apparent(pivot)
                if cell is None:
                    break
            other = built.get(cell)
            if other is None:
                other = built[cell] = column(cell)
            if col is None:
                col = column(s)
            col ^= other
            if not col:
                break
            pivot = lowest(col)
        if col is None or col:
            owner[pivot] = s
            if col is not None:
                built[s] = col
            pairs.append((s, pivot))
        else:
            essential.append(s)
    return pairs, essential


def _cohomology(births: np.ndarray, coface_births: np.ndarray,
                coface_facets: np.ndarray, cleared: np.ndarray):
    """Bars of the simplices of one dimension, with births in filtration order.

    coface_births holds the births of the simplices one dimension up, and
    coface_facets their facets as rows of births.  cleared marks the rows
    that died one dimension down.  Returns the bars, sorted, and a mask of
    the coface rows that these pairs kill.
    """
    n = len(births)
    flat = coface_facets.ravel()
    # coface rows grouped by facet, ascending within each group (the
    # smallest unsigned type lets numpy radix-sort the rows)
    cofaces = np.argsort(flat.astype(np.min_scalar_type(n)),
                         kind="stable") // coface_facets.shape[1]
    counts = np.bincount(flat, minlength=n)
    ends = np.cumsum(counts)
    bounds = ends - counts
    live = ~cleared & (counts > 0)
    first = cofaces[np.minimum(bounds, len(cofaces) - 1)]
    # apparent pairs: s and its earliest coface t, when s is t's latest facet.
    # Only columns of simplices later than s are reduced before s's, and none
    # of them holds t, so s pairs with t without a column addition.
    latest = reduce(np.maximum, coface_facets.T)
    apparent = live & (latest[first] == np.arange(n))
    # simplices with no coface never die
    free = np.flatnonzero(~cleared & (counts == 0))

    rest = np.flatnonzero(live & ~apparent)[::-1]
    pairs, essential = _reduce_columns(
        rest.tolist(), first[rest].tolist(),
        lambda s: sum(1 << c for c in cofaces[bounds[s]:ends[s]].tolist()),
        lambda col: (col & -col).bit_length() - 1,
        dict(zip(first[apparent].tolist(), np.flatnonzero(apparent).tolist())).get)

    born = np.concatenate((np.flatnonzero(apparent),
                           np.array([s for s, _ in pairs], dtype=np.intp)))
    died = np.concatenate((first[apparent], np.array([t for _, t in pairs], dtype=np.intp)))
    infinite = np.concatenate((free, np.array(essential, dtype=np.intp)))
    birth = births[np.concatenate((born, infinite))]
    death = np.concatenate((coface_births[died], np.full(len(infinite), math.inf)))
    keep = death > birth
    birth, death = birth[keep], death[keep]
    order = np.lexsort((death, birth))
    killed_mask = np.zeros(len(coface_births), dtype=bool)
    killed_mask[died] = True
    return tuple(zip(birth[order].tolist(), death[order].tolist())), killed_mask


def barcode(filtration: Filtration, max_dim: int | None = None) -> PersistenceDiagram:
    """Persistence diagram of a filtration, which its constructor has checked.

    With max_dim, no dimension above it is computed: the result equals
    barcode(filtration).restrict(max_dim), but a Rips filtration built to
    max_dim costs no infinite bars for its top dimension, whose killing
    cofaces were never built.

    H0 comes from _spanning_forest over the edges.  Each dimension k >= 1
    is reduced as cohomology: the coboundary columns of the k-simplices,
    taken in reverse filtration order, are reduced left to right with the
    earliest coface as pivot, so a nonzero column pairs its k-simplex with
    that pivot.  The k-simplices already paired one dimension down are
    skipped (clearing); their columns would reduce to zero.  Apparent
    pairs, and simplices with no coface, are found for a whole dimension at
    once; only the other columns are reduced one by one.  These pairs are
    exactly those of the boundary-matrix reduction.  A pairing (i, j) gives
    the bar [birth_i, birth_j) in dimension dim(i); unpaired simplices,
    including those of the top dimension, give [birth, inf).
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    births = tuple(filtration.births[pos] for pos in filtration.positions)
    if not births:
        return PersistenceDiagram({})
    facets = filtration.facets
    top = len(births) - 1
    last = top if max_dim is None else min(max_dim, top)
    h0, killers = _spanning_forest(births[0].tolist(), facets[1].tolist() if top else (),
                                   births[1].tolist() if top else ())
    diagram: dict[int, tuple[tuple[float, float], ...]] = {0: h0}
    cleared = np.zeros(len(births[1]) if top else 0, dtype=bool)
    cleared[killers] = True

    # dims >= 1 below the top: cohomology with clearing
    for k in range(1, min(last, top - 1) + 1):
        bars_k, cleared = _cohomology(births[k], births[k + 1], facets[k + 1], cleared)
        if bars_k:
            diagram[k] = bars_k

    # the top dimension has no cofaces: what is left unpaired never dies.
    # Its births are in filtration order, so already sorted.
    if 0 < top == last:
        essential = births[top][~cleared].tolist()
        if essential:
            diagram[top] = tuple(zip(essential, repeat(math.inf)))
    return PersistenceDiagram(diagram)


def rips_diagram(dist, max_eps: float, max_dim: int) -> PersistenceDiagram:
    """barcode(vietoris_rips(points, max_eps, max_dim), max_dim), bit for bit,
    from the points' distance matrix ``euclidean_distances(points, points)``.

    For max_dim >= 2 the cliques vietoris_rips would build are built from
    dist and reduced by barcode.  For max_dim 0 and 1, the detector's case,
    no triangle is built (_flag_diagram).  dist must be square, finite,
    >= 0, symmetric and zero on its diagonal; anything else raises
    ValueError.  So does a matrix of more than MAX_LAYER pairs, or a
    complex of more than MAX_LAYER simplices of a dimension it would build.
    """
    if not max_eps > 0:
        raise ValueError(f"max_eps must be > 0, got {max_eps}")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.size == 0:
        raise ValueError(f"distance matrix must be square and nonempty, got shape {dist.shape}")
    bad = ~(np.isfinite(dist) & (dist >= 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"distance ({i}, {j}) is {dist[i, j]}, not finite and >= 0")
    bad = dist != dist.T
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"distance ({i}, {j}) is {dist[i, j]} but ({j}, {i}) is "
                         f"{dist[j, i]}; the matrix must be symmetric")
    bad = np.flatnonzero(np.diagonal(dist))
    if bad.size:
        raise ValueError(f"distance ({bad[0]}, {bad[0]}) is {dist[bad[0], bad[0]]}, not 0")
    _check_pairs(len(dist))
    if max_dim >= 2:
        return barcode(_clique_filtration(dist, max_eps, max_dim), max_dim)
    return _flag_diagram(dist, max_eps, max_dim)


def _flag_diagram(dist: np.ndarray, max_eps: float, max_dim: int) -> PersistenceDiagram:
    """rips_diagram of a checked matrix for max_dim 0 or 1, building no
    triangle.

    Edges come in vietoris_rips's order, a stable sort of the upper-triangle
    lengths, and pos[x, y] is the position of edge {x, y} in it; the m edges
    within max_eps come first, and every other pair, and the diagonal, is
    at m.  A triangle is born with its latest edge, at the length that
    vietoris_rips takes the max of, and is named by the key
    latest * n + v, v being the vertex opposite its latest edge.  Each
    triangle has one key, and the order of keys refines the order of
    births.  How simplices of equal birth are ordered changes which pairs
    form but not the diagram, which keeps no zero-length bar.

    H0.  The two earlier edges of a triangle join the ends of its latest
    edge before that edge comes, so the latest edge closes a cycle and
    kills no component (the cycle property).  With max_dim 1, Kruskal's
    algorithm therefore runs only over the edges that are the latest edge
    of no triangle: the relative-neighbourhood graph (Toussaint, "The
    relative neighbourhood graph of a finite planar set", Pattern
    Recognition 1980), with ties broken by position.  It holds the minimum
    spanning forest, whose edges merge the same components in the same
    order.  With max_dim 0 no key is computed, and finding that graph would
    cost more than it saves, so Kruskal runs over every edge.

    H1.  The edges H0 used are cleared.  Each other edge's coboundary is its
    cofaces' keys, and its earliest coface t the smallest of them.  When
    the edge is t's latest edge (t // n is its position), the two are an
    apparent pair: no column reduced before the edge's holds t, so they
    pair without a column addition; and t is born with that edge, so the
    pair has zero persistence and gives no bar.  An edge is the latest edge
    of some triangle exactly when it is that of its earliest coface, so the
    same test finds the graph H0 runs over.  Only the columns of the
    other edges are reduced (_reduce_columns).  The keys are computed for
    a block of edges at a time, at most KEY_BLOCK of them, and only
    those within max_eps are kept.  Each triangle within max_eps is then
    kept once per edge, so the triangles are counted, and refused beyond
    MAX_LAYER, as vietoris_rips counts them.
    """
    n = len(dist)
    r = np.arange(n)
    # the upper triangle row by row, the lexicographic order of the edges
    u, w = np.nonzero(np.less.outer(r, r))
    lengths = dist[u, w]
    order = np.argsort(lengths, kind="stable")
    births = lengths[order]
    m = int(np.searchsorted(births, max_eps, side="right"))
    births, u, w = births[:m], u[order[:m]], w[order[:m]]
    if not (max_dim and m):
        h0, _ = _spanning_forest([0.0] * n, zip(u.tolist(), w.tolist()), births.tolist())
        return PersistenceDiagram({0: h0})

    # the smallest integer types that hold every position and every key
    # (a key is below m * n + 3 * n) keep the blocks small
    edges = np.arange(m)
    pos = np.full((n, n), m, dtype=np.min_scalar_type(-m - 1))
    pos[u, w] = pos[w, u] = edges
    key_type = np.min_scalar_type(-(m + 3) * n)
    # v = u + w + k minus the ends of the latest edge, so the key of
    # triangle (u, w, k) is offset[latest] + u + w + k; with latest = m it
    # is past every key of a triangle within max_eps
    offset = np.append(edges * n - (u + w), m * n).astype(key_type)
    ends, r = (u + w).astype(key_type)[:, None], r.astype(key_type)
    first = np.empty(m, dtype=key_type)
    counts = np.empty(m, dtype=np.intp)
    keys: list[np.ndarray] = []
    kept = 0
    block = max(1, KEY_BLOCK // n)
    for lo in range(0, m, block):
        # latest[i, k]: the latest edge of triangle (u, w, k) for the i-th
        # edge (u, w) of the block, or m
        latest = np.take(pos, u[lo:lo + block], axis=0)
        np.maximum(latest, np.take(pos, w[lo:lo + block], axis=0), out=latest)
        np.maximum(latest, edges[lo:lo + block, None], out=latest)
        inside = latest < m
        key = offset[latest]
        key += ends[lo:lo + block] + r
        first[lo:lo + block] = key.min(axis=1)
        counts[lo:lo + block] = inside.sum(axis=1)
        # each edge's keys, contiguous, the edges in position order
        if kept <= 3 * MAX_LAYER:
            keys.append(key[inside])
            kept += len(keys[-1])
    triangles = int(counts.sum()) // 3
    if triangles > MAX_LAYER:
        raise ValueError(f"the Rips complex has {triangles} 2-simplices, more than "
                         f"the limit of {MAX_LAYER} simplices per dimension")

    # an edge is the latest edge of a triangle exactly when it is that of
    # its earliest coface: then the two are an apparent pair
    closes = first // n == edges
    span = np.flatnonzero(~closes)
    h0, killers = _spanning_forest([0.0] * n, zip(u[span].tolist(), w[span].tolist()),
                                   births[span].tolist())
    diagram: dict[int, tuple[tuple[float, float], ...]] = {0: h0}
    # the edges that neither close a triangle nor join two components:
    # those with no coface never die, and the others' columns are reduced
    tree = set(killers)
    others = [e for i, e in enumerate(span.tolist()) if i not in tree]
    has_coface = (counts[others] > 0).tolist()
    rest = [e for e, c in zip(others, has_coface) if c][::-1]
    free = [e for e, c in zip(others, has_coface) if not c]
    keys_of = np.concatenate(keys)
    ptr = np.concatenate(([0], np.cumsum(counts))).tolist()
    first_of = first.tolist()
    pairs, essential = _reduce_columns(
        rest, [first_of[e] for e in rest],
        lambda e: set(keys_of[ptr[e]:ptr[e + 1]].tolist()), min,
        lambda t: t // n if first_of[t // n] == t else None)
    length = births.tolist()
    bars = [(length[s], length[t // n]) for s, t in pairs if length[t // n] > length[s]]
    bars += [(length[e], math.inf) for e in free + essential]
    if bars:
        diagram[1] = tuple(sorted(bars))
    return PersistenceDiagram(diagram)


def wasserstein(a: PersistenceDiagram, b: PersistenceDiagram, dim: int,
                p: float = 1.0) -> float:
    """p-Wasserstein distance between the dim-dimensional parts of two diagrams.

    Cost of matching two bars is their L-infinity distance; any bar may
    instead be matched to the diagonal at cost persistence/2.  Costs are
    raised to the p-th power, the Hungarian assignment is solved on the
    (n+m) x (n+m) matrix with diagonal surrogates, and the total is taken to
    the 1/p power.  Infinite bars are rejected; truncate them first.
    """
    # scipy.optimize takes about 0.5 s and 48 MiB to import, and only the
    # detector's distances need it, so it loads on the first call
    from scipy.optimize import linear_sum_assignment

    if p < 1:
        raise ValueError("p must be >= 1")
    bars_a = a.in_dim(dim)
    bars_b = b.in_dim(dim)
    for name, bars in (("first", bars_a), ("second", bars_b)):
        if any(math.isinf(d) for _, d in bars):
            raise ValueError(
                f"{name} diagram has an infinite bar in dimension {dim}; "
                "truncate deaths (PersistenceDiagram.truncate) before distancing")
    n, m = len(bars_a), len(bars_b)
    if n == 0 and m == 0:
        return 0.0

    a_arr = np.array(bars_a, dtype=float).reshape(n, 2)
    b_arr = np.array(bars_b, dtype=float).reshape(m, 2)
    block = np.abs(a_arr[:, None, :] - b_arr[None, :, :]).max(axis=2) ** p
    diag_a = ((a_arr[:, 1] - a_arr[:, 0]) / 2.0) ** p
    diag_b = ((b_arr[:, 1] - b_arr[:, 0]) / 2.0) ** p
    # each point may pair only with its own diagonal surrogate; surrogate
    # pairs with each other at zero cost, so a too-large filler is safe
    big = np.concatenate((block.ravel(), diag_a, diag_b)).max() + 1.0
    cost = np.full((n + m, n + m), big)
    cost[:n, :m] = block
    cost[n:, m:] = 0.0
    cost[np.arange(n), m + np.arange(n)] = diag_a
    cost[n + np.arange(m), np.arange(m)] = diag_b
    rows, cols = linear_sum_assignment(cost)
    total = math.fsum(cost[rows, cols])
    return total ** (1.0 / p)


def diagram_to_csv(diagram: PersistenceDiagram) -> str:
    """CSV rows `dim,birth,death` (`inf` for infinite deaths), sorted."""
    lines = [DIAGRAM_HEADER]
    for k in diagram.dims():
        for birth, death in sorted(diagram.in_dim(k)):
            d = "inf" if math.isinf(death) else fmt(death)
            lines.append(f"{k},{fmt(birth)},{d}")
    return "\n".join(lines) + "\n"

