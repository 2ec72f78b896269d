"""Topological anomaly detection for network-flow logs.

Pipeline: parse flow CSVs into bidirectional sessions, window them, model
each window as a source-IP / destination-port hypergraph, extract
containment-order and homology features, and score windows against a sliding
baseline via persistent-homology Wasserstein distances.  An autoencoder is
included for direct detection and feature denoising.
"""

from .autoencoder import Mlp, TrainConfig, detection_threshold, train, train_autoencoder
from .detector import (
    FEATURE_NAMES,
    AnomalyReport,
    Baseline,
    FeatureVector,
    attribute,
    calibrate_threshold,
    init_baseline,
    run_detector,
    score_window,
    step,
    summarize_window,
)
from .flows import (
    FlowFormatError,
    FlowRecord,
    SessionRecord,
    TimeWindow,
    pair_bidirectional,
    parse_flows,
    serialize_flows,
    window,
)
from .hypergraph import Hypergraph, HypergraphStats, build_hypergraph, stats
from .persistence import (
    Filtration,
    PersistenceDiagram,
    barcode,
    rips_diagram,
    vietoris_rips,
    wasserstein,
)
from .synth import ScanSpec, TrafficProfile, generate_normal, inject_scan
from .topology import (
    Ecp,
    HodgeLaplacian,
    SimplicialComplex,
    betti,
    build_ecp,
    hasse,
    hodge,
    order_complex,
    spectrum,
)

__version__ = "0.1.0"
