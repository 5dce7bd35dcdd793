"""Minimal neural-network library in pure numpy.

The environment has no deep-learning framework, so the MuxLink attack's
models (an MLP link predictor and a message-passing GNN) are built on this
package: explicitly differentiated layers, binary-cross-entropy loss, and
SGD/Adam optimizers.
"""

from repro.ml.layers import Dropout, Layer, Linear, Param, ReLU, Sigmoid, Tanh
from repro.ml.losses import bce_with_logits, mse_loss
from repro.ml.network import Sequential
from repro.ml.optim import Adam, Sgd

__all__ = [
    "Param",
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "bce_with_logits",
    "mse_loss",
    "Sequential",
    "Sgd",
    "Adam",
]
