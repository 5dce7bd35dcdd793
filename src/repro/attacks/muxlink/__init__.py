"""MuxLink: link-prediction attack on MUX-based locking.

Reimplementation of Alrahis et al. (DATE 2022) on the numpy substrate:
the locked netlist is viewed as a graph with the key-MUXes removed, a
link predictor is trained self-supervised on the remaining wires, and
each MUX's two candidate links are scored to decipher its key bit.

Three interchangeable predictor backends trade fidelity for speed:

========  =====================================  ========================
backend   model                                  role
========  =====================================  ========================
bayes     naive-Bayes pin compatibility          instant fitness probes
mlp       MLP on structural link features        default GA fitness
gnn       DRNL enclosing-subgraph GNN            closest to published attack
========  =====================================  ========================
"""

from repro.attacks.muxlink.attack import MuxLinkAttack
from repro.attacks.muxlink.bayes import BayesLinkPredictor
from repro.attacks.muxlink.gnn import GnnLinkPredictor
from repro.attacks.muxlink.graph import MuxQuery, ObservedGraph, extract_observed
from repro.attacks.muxlink.mlp_predictor import MlpLinkPredictor
from repro.attacks.muxlink.subgraph import (
    EnclosingSubgraph,
    drnl_from_distances,
    extract_enclosing_subgraphs,
)

__all__ = [
    "MuxLinkAttack",
    "BayesLinkPredictor",
    "MlpLinkPredictor",
    "GnnLinkPredictor",
    "MuxQuery",
    "ObservedGraph",
    "extract_observed",
    "EnclosingSubgraph",
    "extract_enclosing_subgraphs",
    "drnl_from_distances",
]
