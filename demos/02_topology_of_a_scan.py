"""Why a port scan is visible topologically: the scanner joins the common
ports' supports, so every scanned-port edge sits strictly inside them and the
containment order sprouts a high in-degree hub.

Run:  python3 demos/02_topology_of_a_scan.py
"""

import numpy as np

from flowtopo import (
    ScanSpec,
    TrafficProfile,
    betti,
    build_ecp,
    build_hypergraph,
    generate_normal,
    hasse,
    hodge,
    inject_scan,
    order_complex,
    pair_bidirectional,
    spectrum,
    window,
)

profile = TrafficProfile(n_clients=8, n_servers=2, duration=1200.0, seed=23)
base = generate_normal(profile)
with_scan = inject_scan(base, ScanSpec(port_range=(1, 40), window_index=1), profile)


def describe(records, label):
    windows = window(pair_bidirectional(records), profile.window_width)
    w = windows[1]
    h = build_hypergraph(w)
    ecp = build_ecp(h)
    rbs = order_complex(ecp, max_dim=2)
    b = betti(rbs, 1)
    print(f"{label}:")
    print(f"  edges={h.n_edges}  containment arcs={len(ecp.arcs)}  "
          f"hasse arcs={len(hasse(ecp).arcs)}")
    print(f"  max in-degree={ecp.max_in_degree()}  "
          f"max out-degree={ecp.max_out_degree()}")
    print(f"  order complex: {rbs.count(0)} vertices, {rbs.count(1)} edges, "
          f"{rbs.count(2)} triangles;  beta0={b[0]} beta1={b[1]}")
    return ecp, rbs


print("same window, with and without a 40-port scan")
print()
describe(base, "normal window")
print()
ecp, rbs = describe(with_scan, "scan window")

busiest = max(ecp.in_degrees(), key=ecp.in_degrees().get)
print(f"  busiest node is port {busiest} "
      f"(in-degree {ecp.in_degrees()[busiest]}): every scanned port's "
      "support nests inside it")

print()
print("graph Laplacian of the order complex 1-skeleton (L0 spectrum head):")
eigs = spectrum(hodge(rbs, 0))
print(" ", np.array2string(eigs[:8], precision=3))
n_components = int(np.sum(eigs < 1e-8))
print(f"  {n_components} zero eigenvalue(s) = {n_components} connected "
      "component(s), matching beta0")
