"""numpy NN library: gradient checks, losses, optimizers, training."""

import numpy as np
import pytest

from repro.ml import Adam, Linear, ReLU, Sequential, bce_with_logits
from repro.ml.network import fit

from reference.gradcheck import gradient_check

_SUM_SQ = lambda out: (float((out**2).sum()), 2 * out)


def mse_loss(pred, targets):
    """Mean squared error with its gradient: the optimiser tests' loss."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs targets {t.shape}")
    diff = p - t
    return float((diff**2).mean()), 2.0 * diff / p.size


@pytest.mark.parametrize(
    "layer_factory",
    [
        lambda: Linear(4, 3, seed_or_rng=1, name="lin"),
        lambda: ReLU(),
        lambda: Sequential(
            [Linear(4, 5, seed_or_rng=2, name="a"), ReLU(), Linear(5, 2, seed_or_rng=3, name="b")]
        ),
    ],
    ids=["linear", "relu", "sequential"],
)
def test_gradient_checks(layer_factory):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4)) + 0.05  # offset avoids ReLU kinks at 0
    layer = layer_factory()
    errors = gradient_check(layer, x, _SUM_SQ)
    for name, err in errors.items():
        assert err < 1e-5, f"{name}: relative error {err}"


def test_linear_shapes_and_params():
    layer = Linear(3, 7, seed_or_rng=0, name="l")
    out = layer.forward(np.zeros((2, 3)))
    assert out.shape == (2, 7)
    params = layer.params()
    assert [p.value.shape for p in params] == [(3, 7), (7,)]
    assert params[0].name == "l.W"


def test_bce_with_logits_matches_manual():
    logits = np.array([0.0, 2.0, -2.0])
    targets = np.array([1.0, 1.0, 0.0])
    loss, grad = bce_with_logits(logits, targets)
    sig = 1 / (1 + np.exp(-logits))
    manual = -(targets * np.log(sig) + (1 - targets) * np.log(1 - sig)).mean()
    assert loss == pytest.approx(manual, rel=1e-9)
    assert grad == pytest.approx((sig - targets) / 3, rel=1e-9)


def test_bce_extreme_logits_stable():
    loss, grad = bce_with_logits(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    assert loss < 1e-6


def test_loss_shape_validation():
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 1)), np.zeros(2))


def test_mse_loss():
    loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(2.5)
    assert grad == pytest.approx(np.array([1.0, 2.0]))


@pytest.mark.parametrize("optimizer_cls", [Adam], ids=["adam"])
def test_optimizers_minimise_quadratic(optimizer_cls):
    layer = Linear(1, 1, seed_or_rng=0)
    opt = optimizer_cls(layer.params(), lr=0.05)
    x = np.array([[1.0]])
    losses = []
    for _ in range(200):
        out = layer.forward(x)
        loss, grad = mse_loss(out, np.array([[3.0]]))
        layer.backward(grad)
        opt.step()
        losses.append(loss)
    assert losses[-1] < 1e-3 < losses[0]


def test_optimizer_validation():
    layer = Linear(1, 1, seed_or_rng=0)
    with pytest.raises(ValueError):
        Adam(layer.params(), lr=0.0)
    with pytest.raises(ValueError):
        Adam(layer.params(), lr=-1)


def test_fit_learns_xor():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([[0], [1], [1], [0]], dtype=float)
    model = Sequential(
        [Linear(2, 8, seed_or_rng=3), ReLU(), Linear(8, 1, seed_or_rng=4)]
    )
    history = fit(
        model, x, y, bce_with_logits, Adam(model.params(), lr=0.05),
        epochs=300, batch_size=4, seed_or_rng=5,
    )
    assert history[-1] < 0.05
    pred = (model.forward(x) > 0).astype(int)
    assert np.array_equal(pred, y.astype(int))


def test_gradients_accumulate_until_step():
    layer = Linear(2, 2, seed_or_rng=0)
    x = np.ones((1, 2))
    layer.forward(x)
    layer.backward(np.ones((1, 2)))
    first = layer.weight.grad.copy()
    layer.forward(x)
    layer.backward(np.ones((1, 2)))
    assert np.allclose(layer.weight.grad, 2 * first)


@pytest.mark.parametrize("first", ["linear", "relu"])
def test_backward_params_equals_backward_without_first_input_grad(
    first, monkeypatch
):
    """Training's backward accumulates the same parameter gradients as a
    full backward, bit for bit, and never forms the first layer's input
    gradient (``grad @ W1.T``)."""
    head = [Linear(4, 5, seed_or_rng=2, name="a"), ReLU(), Linear(5, 1, seed_or_rng=3, name="b")]
    layers = head if first == "linear" else [ReLU()] + head
    model = Sequential(layers)
    x = np.random.default_rng(4).normal(size=(7, 4))
    grad = np.random.default_rng(5).normal(size=(7, 1))
    model.forward(x, train=True)
    model.backward(grad)
    want = [p.grad.copy() for p in model.params()]
    for p in model.params():
        p.zero_grad()

    input_grads = []
    backward = Linear.backward

    def counted(self, grad_out):
        input_grads.append(self)
        return backward(self, grad_out)

    monkeypatch.setattr(Linear, "backward", counted)
    model.forward(x, train=True)
    model.backward_params(grad)
    assert input_grads == ([head[2]] if first == "linear" else head[::-2])
    for p, w in zip(model.params(), want):
        assert np.array_equal(p.grad.view(np.uint64), w.view(np.uint64)), p.name
