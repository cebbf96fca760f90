"""Exact Ollivier-Ricci curvature on graphs, message-passing simulation
and bound verification, and curvature-guided rewiring."""

__version__ = "0.1.0"

from .curvature import curvature_profile, edge_report, ricci_curvature
from .graphs import Graph, from_edges, generate, parse_edge_list, parse_graph_json
from .mpnn import MpnnSpec, forward, parse_spec
from .transport import wasserstein1

__all__ = [
    "Graph",
    "MpnnSpec",
    "__version__",
    "curvature_profile",
    "edge_report",
    "forward",
    "from_edges",
    "generate",
    "parse_edge_list",
    "parse_graph_json",
    "parse_spec",
    "ricci_curvature",
    "wasserstein1",
]
