"""Minimal neural-network library in pure numpy.

The environment has no deep-learning framework, so the MuxLink attack's
models (an MLP link predictor and a message-passing GNN) are built on this
package: explicitly differentiated layers, binary-cross-entropy loss, and the
Adam optimizer.
"""

from repro.ml.layers import Layer, Linear, Param, ReLU
from repro.ml.losses import bce_with_logits
from repro.ml.network import Sequential
from repro.ml.optim import Adam

__all__ = [
    "Param",
    "Layer",
    "Linear",
    "ReLU",
    "bce_with_logits",
    "Sequential",
    "Adam",
]
