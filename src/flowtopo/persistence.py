"""Persistent homology of point clouds and Wasserstein distances between diagrams.

The Vietoris-Rips filtration connects points at distance <= eps and fills in
cliques; it is built one dimension at a time from boolean adjacency masks
and handed to the barcode as arrays, with no per-simplex Python object.
The barcode pairs simplices as the GF(2) boundary-matrix reduction in
filtration order would, but computes the pairs more cheaply: H0 by union-find
with the elder rule, higher dimensions by reducing coboundaries (persistent
cohomology, which yields the same pairs) with clearing (Bauer, "Ripser",
JACT 2021; de Silva, Morozov & Vejdemo-Johansson, "Dualities in persistent
(co)homology", 2011).  Diagram distance is a minimal-cost matching
(Hungarian assignment) with L-infinity ground metric and diagonal
projections.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .flows import FlowFormatError, csv_rows, fmt, union

DIAGRAM_HEADER = "dim,birth,death"


@dataclass(frozen=True, eq=False)
class Filtration:
    """Simplices in filtration order, as three read-only arrays of its own.

    ``births`` (float64) holds each simplex's birth, ``sizes`` (integer) its
    vertex count and ``vertices`` (integer) all vertex labels, concatenated.
    Births are finite and never decrease, and sizes never decrease at equal
    birth, so faces precede cofaces once barcode() has checked face births.
    The constructor raises ValueError naming the first simplex that breaks
    this.  from_simplices() sorts (vertex tuple, birth) pairs into order.
    """

    births: np.ndarray
    sizes: np.ndarray
    vertices: np.ndarray

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

    @classmethod
    def from_simplices(cls, pairs: Iterable[tuple[Sequence[int], float]]) -> "Filtration":
        canon = []
        for verts, birth in pairs:
            # operator.index refuses a float label, which int64 would truncate
            v = tuple(sorted(map(operator.index, verts)))
            if len(set(v)) != len(v):
                raise ValueError(f"simplex {verts} has repeated vertices")
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


def vietoris_rips(points, max_eps: float, max_dim: int) -> Filtration:
    """Rips filtration of a point cloud under Euclidean distance.

    Vertices are born at 0; an edge is born at its length (kept if <= max_eps);
    a higher simplex is born at the largest pairwise distance among its
    vertices.  Simplices up to dimension max_dim + 1 are generated so that
    deaths in dimension max_dim are correct.  Non-finite coordinates are
    rejected.
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
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))

    # upper[u, w]: the edge {u, w} is in the complex and u < w.  A simplex
    # extends by each w above all its vertices that is adjacent to all of
    # them; walking the rows of a lexicographically sorted layer keeps the
    # next layer lexicographically sorted.
    upper = np.triu(dist <= max_eps, k=1)
    layer = np.arange(n)[:, None]
    births = np.zeros(n)
    layers, layer_births = [layer], [births]
    for _ in range(max_dim + 1):
        extends = upper[layer[:, 0]]
        for col in layer.T[1:]:
            extends &= upper[col]
        rows, new = np.nonzero(extends)
        if rows.size == 0:
            break
        births = np.maximum(births[rows], dist[layer[rows], new[:, None]].max(axis=1))
        layer = np.column_stack((layer[rows], new))
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


def barcode(filtration: Filtration) -> PersistenceDiagram:
    """Persistence diagram of any filtration whose simplices have all their faces.

    Every face must be in the filtration and born no later than its
    coface; otherwise ValueError.  H0 comes from union-find over the edges in
    filtration order: an edge joining two components kills the younger one
    (elder rule, later position dies).  Each dimension k >= 1 is reduced as
    cohomology: the coboundary columns of the k-simplices, taken in reverse
    filtration order, are reduced left to right with the earliest coface as
    pivot, so a nonzero column pairs its k-simplex with that pivot.  The
    k-simplices already paired one dimension down are skipped (clearing);
    their columns would reduce to zero.  These pairs are exactly those of the
    boundary-matrix reduction.  A pairing (i, j) gives the bar
    [birth_i, birth_j) in dimension dim(i); unpaired simplices, including
    those of the top dimension, give [birth, inf).
    """
    if len(filtration) == 0:
        return PersistenceDiagram({})
    births, sizes, flat = filtration.births, filtration.sizes, filtration.vertices
    starts = np.cumsum(sizes) - sizes
    by_dim = [np.flatnonzero(sizes == k + 1) for k in range(int(sizes.max()))]

    # a simplex's key is its tuple of vertex ranks read in base n_vertices,
    # so keys sort like vertex tuples and a facet is found by binary search
    labels, ranks = np.unique(flat, return_inverse=True)
    is_vertex = np.zeros(len(labels), dtype=bool)
    is_vertex[ranks[starts[by_dim[0]]]] = True
    known = is_vertex[ranks]
    if not known.all():
        at = int(np.argmin(known))
        verts, _ = filtration.simplices[np.searchsorted(starts, at, side="right") - 1]
        raise ValueError(f"filtration is missing face {(int(flat[at]),)} of {verts}")
    base = len(labels)
    key_type = np.int64 if base ** len(by_dim) < 2 ** 63 else object
    ranks = ranks.astype(key_type)

    # faces[k][i]: filtration positions of the facets of simplex by_dim[k][i]
    faces: dict[int, np.ndarray] = {}
    keys = ranks[starts[by_dim[0]]]
    for k in range(1, len(by_dim)):
        pos = by_dim[k]
        rows = ranks[starts[pos][:, None] + np.arange(k + 1)]
        # facet_keys[:, d] is the key of the facet without the d-th vertex
        j = np.arange(k + 1, dtype=key_type)[:, None]
        digit = np.where(j < j.T, k - 1 - j, k - j)
        facet_keys = rows @ np.where(j == j.T, 0, base ** digit)
        key_order = np.argsort(keys, kind="stable")
        sorted_keys = keys[key_order]
        idx = np.minimum(np.searchsorted(sorted_keys, facet_keys), len(keys) - 1)
        found = sorted_keys[idx] == facet_keys
        if not found.all():
            row, drop = np.argwhere(~found)[0]
            coface, _ = filtration.simplices[pos[row]]
            raise ValueError(f"filtration is missing face "
                             f"{coface[:drop] + coface[drop + 1:]} of {coface}")
        face_pos = by_dim[k - 1][key_order[idx]]
        late = births[face_pos] > births[pos][:, None]
        if late.any():
            row, drop = np.argwhere(late)[0]
            face, face_birth = filtration.simplices[face_pos[row, drop]]
            coface, coface_birth = filtration.simplices[pos[row]]
            raise ValueError(f"face {face} born at {face_birth} after "
                             f"coface {coface} at {coface_birth}")
        faces[k] = face_pos
        keys = rows @ base ** (k - j[:, 0])

    birth_of = births.tolist()
    bars: dict[int, list[tuple[float, float]]] = {}

    def add_bar(k: int, birth_pos: int, death_pos: int | None) -> None:
        birth = birth_of[birth_pos]
        death = math.inf if death_pos is None else birth_of[death_pos]
        if death > birth:
            bars.setdefault(k, []).append((birth, death))

    # H0: union-find with the elder rule; union returns the younger root
    root = {v: v for v in by_dim[0].tolist()}
    cleared: set[int] = set()
    edges = zip(by_dim[1].tolist(), faces[1].tolist()) if len(by_dim) > 1 else ()
    for edge, (a, b) in edges:
        younger = union(root, a, b)
        if younger is not None:
            add_bar(0, younger, edge)
            cleared.add(edge)
    for v, r in root.items():
        if r == v:
            add_bar(0, v, None)

    # dims >= 1 below the top: cohomology with clearing
    for k in range(1, len(by_dim) - 1):
        pos = by_dim[k]
        # coface positions grouped by facet, ascending within each group
        # (the smallest unsigned type lets numpy radix-sort the positions)
        facets = faces[k + 1].ravel()
        grouping = np.argsort(facets.astype(np.min_scalar_type(len(births))), kind="stable")
        cofaces = np.repeat(by_dim[k + 1], k + 2)[grouping]
        bounds = np.searchsorted(facets[grouping], pos)
        ends = np.append(bounds[1:], len(cofaces))
        firsts = cofaces[np.minimum(bounds, len(cofaces) - 1)]
        # pivot -> its column: a bitmask over filtration positions once
        # reduced, or the (lo, hi) slice of cofaces while still unreduced
        owner: dict[int, int | tuple[int, int]] = {}

        def column(lo: int, hi: int) -> int:
            return sum(1 << c for c in cofaces[lo:hi].tolist())

        def reduced(pivot: int) -> int:
            col = owner[pivot]
            if isinstance(col, tuple):
                col = owner[pivot] = column(*col)
            return col

        next_cleared: set[int] = set()
        for s, lo, hi, pivot in zip(reversed(pos.tolist()), reversed(bounds.tolist()),
                                    reversed(ends.tolist()), reversed(firsts.tolist())):
            if s in cleared:
                continue
            if lo == hi:
                add_bar(k, s, None)
                continue
            if pivot not in owner:
                owner[pivot] = (lo, hi)
            else:
                col = column(lo, hi)
                while col:
                    pivot = (col & -col).bit_length() - 1
                    if pivot not in owner:
                        break
                    col ^= reduced(pivot)
                if not col:
                    add_bar(k, s, None)
                    continue
                owner[pivot] = col
            add_bar(k, s, pivot)
            next_cleared.add(pivot)
        cleared = next_cleared

    diagram = {k: tuple(sorted(v)) for k, v in sorted(bars.items())}
    # the top dimension has no cofaces: what is left unpaired never dies.
    # Its births are in filtration order, so already sorted.
    top = len(by_dim) - 1
    if top > 0:
        pos = by_dim[top]
        paired = np.zeros(len(births), dtype=bool)
        paired[np.fromiter(cleared, dtype=np.int64, count=len(cleared))] = True
        essential = births[pos[~paired[pos]]].tolist()
        if essential:
            diagram[top] = tuple(zip(essential, repeat(math.inf)))
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


def diagram_from_csv(lines: Iterable[str]) -> PersistenceDiagram:
    bars: dict[int, list[tuple[float, float]]] = {}
    for lineno, fields in csv_rows(lines, DIAGRAM_HEADER):
        try:
            k, birth, death = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise FlowFormatError(f"line {lineno}: not numeric: {','.join(fields)!r}",
                                  lineno) from None
        bars.setdefault(k, []).append((birth, death))
    return PersistenceDiagram({k: tuple(sorted(v)) for k, v in sorted(bars.items())})
