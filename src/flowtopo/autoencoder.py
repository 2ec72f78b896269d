"""From-scratch feedforward autoencoder for anomaly detection and denoising.

Five layer sizes [d, h, b, h, d] of at least one unit each, with a strict
bottleneck b < d, checked where an architecture is chosen (Mlp.random),
leaky rectifier hidden units, identity output.  Training is mini-batch
gradient descent with momentum on mean squared reconstruction error, fully
deterministic under the configured seed.

A mini-batch makes a few dozen numpy calls on small arrays, so per-call
overhead, not arithmetic, sets the cost of training.  ``train`` therefore
keeps the parameters, the gradients and the velocities in one flat buffer
each, with every layer's weights and biases as views into them, and makes
the momentum step four whole-buffer operations.  Being elementwise, they
round each float exactly as the per-layer update does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flows import _is_int_in, _is_real, fmt

LEAKY_SLOPE = 0.01
MODEL_FORMAT = "mlp-v1"


def _forward(weights, biases, x: np.ndarray):
    """Per-layer activations of a batch x (n, d) and the rectifier slopes.

    A hidden unit's output is z * g with g = 1 where z > 0, else
    LEAKY_SLOPE; the same g is the rectifier's derivative, so the backward
    pass reuses it.  z * 1.0 == z and z * LEAKY_SLOPE == LEAKY_SLOPE * z
    exactly, for signed zeros, infinities and NaN too.
    """
    acts, slopes = [x], []
    last = len(weights) - 1
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w.T
        a += b
        if i != last:
            g = np.where(a > 0, 1.0, LEAKY_SLOPE)
            a *= g
            slopes.append(g)
        acts.append(a)
    return acts, slopes


def _backward(weights, acts, slopes, dz: np.ndarray, grads) -> None:
    """Writes the gradient of every weight and bias into grads.

    dz is the gradient at the output layer, acts and slopes are _forward's,
    and grads holds one (dw, db) pair of arrays per layer.
    """
    for i in range(len(weights) - 1, -1, -1):
        dw, db = grads[i]
        np.matmul(dz.T, acts[i], out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if i > 0:
            dz = dz @ weights[i]
            dz *= slopes[i - 1]


def _training_rows(m: "Mlp", data) -> np.ndarray:
    """data as a nonempty float batch of m's input width; a vector is one row."""
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.size == 0:
        raise ValueError("training data must be nonempty")
    if x.shape[1] != m.layer_sizes[0]:
        raise ValueError(
            f"training vectors have width {x.shape[1]}, model expects {m.layer_sizes[0]}")
    return x


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the defaults are `flowtopo train-ae`'s, which passes
    only the flags given."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        lr, momentum = self.learning_rate, self.momentum
        if not (_is_real(lr) and 0 <= lr < np.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {lr!r}")
        if not (_is_real(momentum) and 0 <= momentum < 1):
            raise ValueError(f"momentum must be in [0, 1), got {momentum!r}")
        for name, lo in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int_in(value, lo):
                raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


class Mlp:
    """Bottlenecked reconstruction network.

    Holds one weight matrix (out x in) and bias vector per affine layer.
    The middle activation is the latent code.
    """

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if len(self.weights) != 4 or len(self.biases) != 4:
            raise ValueError("expected 4 affine layers (sizes [d, h, b, h, d])")
        sizes = self.layer_sizes
        if sizes[0] != sizes[-1]:
            raise ValueError("input and output widths must match")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError("bias length must match weight rows")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError("adjacent layer shapes do not chain")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @classmethod
    def random(cls, layer_sizes, seed: int = 0) -> "Mlp":
        """Glorot uniform initialization, deterministic under seed.

        Each layer draws from [-a, a] with a = sqrt(6 / (fan_in + fan_out)).
        Every layer needs at least one unit, and the bottleneck b must be
        strictly smaller than the input d.
        """
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) != 5:
            raise ValueError("layer_sizes must be [d, h, b, h, d]")
        for name, size in zip(("input", "hidden", "bottleneck", "hidden", "output"), sizes):
            if size < 1:
                raise ValueError(f"{name} layer size must be >= 1, got {size}")
        if sizes[2] >= sizes[0]:
            raise ValueError(
                f"bottleneck {sizes[2]} must be strictly smaller than input {sizes[0]}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            scale = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def _activations(self, x) -> list[np.ndarray]:
        """Per-layer activations of a single input vector, shape-checked."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.layer_sizes[0],):
            raise ValueError(
                f"input has shape {x.shape}, expected ({self.layer_sizes[0]},)")
        acts, _ = _forward(self.weights, self.biases, x[None, :])
        return [a[0] for a in acts]

    def forward(self, x) -> np.ndarray:
        """Reconstruction of a single input vector."""
        return self._activations(x)[-1]

    def encode(self, x) -> np.ndarray:
        """Bottleneck activation (the latent representation)."""
        return self._activations(x)[2]

    def reconstruction_error(self, x) -> float:
        """Mean squared error between x and its reconstruction."""
        x = np.asarray(x, dtype=float)
        y = self.forward(x)
        return float(np.mean((x - y) ** 2))

    def detect(self, x, threshold: float) -> bool:
        """True when reconstruction error exceeds the calibrated threshold."""
        return self.reconstruction_error(x) > threshold

    def denoise(self, x) -> np.ndarray:
        """Reconstruction used as a cleaned-up stand-in for the input."""
        return self.forward(x)

    def loss_and_gradients(self, batch: np.ndarray):
        """MSE loss over the batch and gradients for every weight and bias.

        Checks the batch as train checks its data."""
        x = _training_rows(self, batch)
        acts, slopes = _forward(self.weights, self.biases, x)
        n, d = x.shape
        diff = acts[-1] - x
        loss = float(np.mean(diff ** 2))
        grads = [(np.empty_like(w), np.empty_like(b))
                 for w, b in zip(self.weights, self.biases)]
        _backward(self.weights, acts, slopes, 2.0 * diff / (n * d), grads)
        return loss, grads

    def dumps(self) -> str:
        """Versioned plain-text serialization; round-trips exactly."""
        lines = [MODEL_FORMAT, " ".join(str(s) for s in self.layer_sizes)]
        for w, b in zip(self.weights, self.biases):
            for row in w:
                lines.append(" ".join(fmt(v) for v in row))
            lines.append(" ".join(fmt(v) for v in b))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Mlp":
        """Inverse of dumps; a malformed model raises ValueError naming its line."""
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines or lines[0][1] != MODEL_FORMAT:
            raise ValueError(f"unrecognized model format (expected {MODEL_FORMAT!r})")
        rows = iter(lines[1:])

        def row(kind, count: int) -> list:
            lineno, line = next(rows, (lines[-1][0] + 1, None))
            if line is None:
                raise ValueError(f"line {lineno}: missing; the model ends early")
            fields = line.split()
            if len(fields) != count:
                raise ValueError(f"line {lineno}: expected {count} numbers, got {len(fields)}")
            try:
                values = [kind(v) for v in fields]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            bad = [v for v in values if not -np.inf < v < np.inf]
            if bad:
                raise ValueError(f"line {lineno}: parameter {bad[0]} is not finite")
            return values

        # no size check: a size below 1 asks a line for fewer than one number
        sizes = row(int, 5)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            weights.append(np.array([row(float, fan_in) for _ in range(fan_out)]))
            biases.append(np.array(row(float, fan_out)))
        extra = next(rows, None)
        if extra is not None:
            raise ValueError(f"line {extra[0]}: trailing data after model parameters")
        return cls(weights, biases)

    @classmethod
    def load(cls, path) -> "Mlp":
        return cls.loads(Path(path).read_text())


# a diverging run overflows on its way to the non-finite loss that train
# reports by epoch, so numpy's warnings would only repeat that one line
@np.errstate(over="ignore", invalid="ignore")
def train(m: Mlp, data, cfg: TrainConfig) -> list[float]:
    """Mini-batch gradient descent with momentum; trains m in place.

    Returns the full-data loss after each epoch.  Identical seeds give
    identical histories.  A loss that is not finite raises ValueError.

    Parameters, gradients and velocities each live in one flat buffer for
    the duration of the call.  The update ``velocity *= momentum``,
    ``step = grad * lr``, ``velocity -= step``, ``params += velocity``
    rounds each element exactly as ``momentum * v - lr * g`` then
    ``w + v`` does layer by layer, since IEEE multiplication commutes and
    every operation is elementwise.  Whether it returns or raises, train
    leaves m holding copies out of the buffer; the arrays m held before
    are never written.
    """
    x = _training_rows(m, data)
    rng = np.random.default_rng(cfg.seed)
    arrays = [a for pair in zip(m.weights, m.biases) for a in pair]
    ends = np.cumsum([a.size for a in arrays])
    params = np.concatenate([a.ravel() for a in arrays])
    grad, step = np.empty_like(params), np.empty_like(params)
    velocity = np.zeros_like(params)

    def views(buf):
        parts = [buf[end - a.size:end].reshape(a.shape) for end, a in zip(ends, arrays)]
        return parts[0::2], parts[1::2]

    weights, biases = views(params)
    grads = list(zip(*views(grad)))
    history = []
    n, d = x.shape
    try:
        for epoch in range(1, cfg.epochs + 1):
            shuffled = x[rng.permutation(n)]
            for start in range(0, n, cfg.batch_size):
                batch = shuffled[start:start + cfg.batch_size]
                acts, slopes = _forward(weights, biases, batch)
                # 2.0 * (output - batch) / (rows * d), in the output's array
                dz = acts[-1]
                dz -= batch
                dz *= 2.0
                dz /= len(batch) * d
                _backward(weights, acts, slopes, dz, grads)
                velocity *= cfg.momentum
                np.multiply(grad, cfg.learning_rate, out=step)
                velocity -= step
                params += velocity
            # the loss expression of loss_and_gradients, without its backward pass
            acts, _ = _forward(weights, biases, x)
            loss = float(np.mean((acts[-1] - x) ** 2))
            if not np.isfinite(loss):
                raise ValueError(f"training diverged: the loss after epoch {epoch} is {loss}")
            history.append(loss)
    finally:
        m.weights = [w.copy() for w in weights]
        m.biases = [b.copy() for b in biases]
    return history


def detection_threshold(m: Mlp, normal_data) -> float:
    """Three-sigma threshold over reconstruction errors of held-out normal data."""
    errors = np.array([m.reconstruction_error(x) for x in np.asarray(normal_data, dtype=float)])
    if errors.size == 0:
        raise ValueError("need at least one calibration vector")
    return float(errors.mean() + 3.0 * errors.std())


def train_autoencoder(data, layer_sizes, cfg: TrainConfig) -> tuple[Mlp, list[float]]:
    """Convenience: build a seeded network and train it on the data."""
    m = Mlp.random(layer_sizes, seed=cfg.seed)
    history = train(m, data, cfg)
    return m, history
