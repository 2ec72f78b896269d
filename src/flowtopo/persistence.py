"""Persistent homology of point clouds and Wasserstein distances between diagrams.

The Vietoris-Rips filtration connects points at distance <= eps and fills in
cliques; it is built one dimension at a time from boolean adjacency masks.
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
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .flows import csv_rows, fmt

DIAGRAM_HEADER = "dim,birth,death"


@dataclass(frozen=True)
class Filtration:
    """Simplices with birth values, sorted by (birth, dimension, vertex order).

    The sort guarantees faces precede cofaces whenever births are valid;
    barcode() verifies the face-birth condition itself.
    """

    simplices: tuple[tuple[tuple[int, ...], float], ...]

    @classmethod
    def from_simplices(cls, pairs: Iterable[tuple[Sequence[int], float]]) -> "Filtration":
        canon = []
        for verts, birth in pairs:
            v = tuple(sorted(verts))
            if len(set(v)) != len(v):
                raise ValueError(f"simplex {verts} has repeated vertices")
            canon.append((v, float(birth)))
        canon.sort(key=lambda p: (p[1], len(p[0]), p[0]))
        return cls(tuple(canon))

    def __len__(self) -> int:
        return len(self.simplices)


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

    # one stable sort by (birth, dim) keeps the lexicographic order of ties
    all_births = np.concatenate(layer_births)
    dims = np.repeat(np.arange(len(layers)), [len(lay) for lay in layers])
    order = np.lexsort((dims, all_births))
    verts = [tuple(v) for lay in layers for v in lay.tolist()]
    return Filtration(tuple(zip([verts[i] for i in order.tolist()],
                                all_births[order].tolist())))


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
    simps = filtration.simplices
    total = len(simps)
    if total == 0:
        return PersistenceDiagram({})
    verts_of, birth_of = zip(*simps)
    births = np.array(birth_of, dtype=float)
    sizes = np.fromiter(map(len, verts_of), dtype=np.int64, count=total)
    flat = np.fromiter(chain.from_iterable(verts_of), dtype=np.int64,
                       count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    by_dim = [np.flatnonzero(sizes == k + 1) for k in range(int(sizes.max()))]

    # a simplex's key is its tuple of vertex ranks read in base n_vertices,
    # so keys sort like vertex tuples and a facet is found by binary search
    labels = np.unique(flat[starts[by_dim[0]]])
    known = np.isin(flat, labels)
    if not known.all():
        at = int(np.argmin(known))
        verts = verts_of[np.searchsorted(starts, at, side="right") - 1]
        raise ValueError(f"filtration is missing face {(int(flat[at]),)} of {verts}")
    base = len(labels)
    key_type = np.int64 if base ** len(by_dim) < 2 ** 63 else object
    ranks = np.searchsorted(labels, flat).astype(key_type)

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
            coface = verts_of[pos[row]]
            raise ValueError(f"filtration is missing face "
                             f"{coface[:drop] + coface[drop + 1:]} of {coface}")
        face_pos = by_dim[k - 1][key_order[idx]]
        late = births[face_pos] > births[pos][:, None]
        if late.any():
            row, drop = np.argwhere(late)[0]
            face, coface = face_pos[row, drop], pos[row]
            raise ValueError(f"face {verts_of[face]} born at {birth_of[face]} after "
                             f"coface {verts_of[coface]} at {birth_of[coface]}")
        faces[k] = face_pos
        keys = rows @ base ** (k - j[:, 0])

    bars: dict[int, list[tuple[float, float]]] = {}

    def add_bar(k: int, birth_pos: int, death_pos: int | None) -> None:
        birth = birth_of[birth_pos]
        death = math.inf if death_pos is None else birth_of[death_pos]
        if death > birth:
            bars.setdefault(k, []).append((birth, death))

    # H0: union-find with the elder rule
    root = {v: v for v in by_dim[0].tolist()}
    cleared: set[int] = set()
    edges = zip(by_dim[1].tolist(), faces[1].tolist()) if len(by_dim) > 1 else ()
    for edge, (a, b) in edges:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            elder, younger = min(a, b), max(a, b)
            root[younger] = elder
            add_bar(0, younger, edge)
            cleared.add(edge)
    for v, r in root.items():
        if r == v:
            add_bar(0, v, None)

    # dims >= 1 below the top: cohomology with clearing
    for k in range(1, len(by_dim) - 1):
        pos = by_dim[k]
        # coface positions grouped by facet, ascending within each group
        facets = faces[k + 1].ravel()
        grouping = np.argsort(facets, kind="stable")
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

    # the top dimension has no cofaces: what is left unpaired never dies
    top = len(by_dim) - 1
    if top > 0:
        pos = by_dim[top]
        essential = births[pos[~np.isin(pos, list(cleared))]].tolist()
        if essential:
            bars[top] = list(zip(essential, repeat(math.inf)))
    return PersistenceDiagram({k: tuple(sorted(v)) for k, v in sorted(bars.items())})


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
    for _, (k, birth, death) in csv_rows(lines, DIAGRAM_HEADER):
        bars.setdefault(int(k), []).append((float(birth), float(death)))
    return PersistenceDiagram({k: tuple(sorted(v)) for k, v in sorted(bars.items())})
