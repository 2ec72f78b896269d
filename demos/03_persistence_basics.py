"""Persistent homology on point clouds: a noisy circle has one long H1 bar,
and Wasserstein distance tells clouds apart by their diagrams.

Run:  python3 demos/03_persistence_basics.py
"""

import math

import numpy as np

from flowtopo import barcode, vietoris_rips, wasserstein

rng = np.random.default_rng(8)


def noisy_circle(n, radius=1.0, wobble=0.05):
    theta = np.sort(rng.uniform(0, 2 * math.pi, size=n))
    r = radius + rng.normal(0, wobble, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def blob(n, spread=0.3):
    return rng.normal(0, spread, size=(n, 2))


def show(points, label):
    diagram = barcode(vietoris_rips(points, max_eps=2.5, max_dim=1), max_dim=1)
    print(f"{label} ({len(points)} points)")
    for k in diagram.dims():
        bars = sorted(diagram.in_dim(k), key=lambda bd: -(min(bd[1], 99) - bd[0]))
        shown = ", ".join(
            f"[{b:.2f}, {'inf' if math.isinf(d) else f'{d:.2f}'})"
            for b, d in bars[:4])
        more = f" (+{len(bars) - 4} short)" if len(bars) > 4 else ""
        print(f"  H{k}: {shown}{more}")
    return diagram


circle = show(noisy_circle(24), "noisy circle")
print("  -> the single long H1 bar is the loop; short bars are sampling noise")
print()
cloud = show(blob(24), "gaussian blob")
print("  -> no long H1 bar: nothing encloses empty space")
print()

circle2 = barcode(vietoris_rips(noisy_circle(24), max_eps=2.5, max_dim=1), max_dim=1)
blob2 = barcode(vietoris_rips(blob(24), max_eps=2.5, max_dim=1), max_dim=1)
a, b, c = (d.truncate(2.5) for d in (circle, circle2, blob2))
print("1-Wasserstein distances between truncated H1 diagrams:")
print(f"  circle vs fresh circle : {wasserstein(a, b, dim=1):.3f}")
print(f"  circle vs blob         : {wasserstein(a, c, dim=1):.3f}")
print("same shape = small distance; different shape = large distance")
