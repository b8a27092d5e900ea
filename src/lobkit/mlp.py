"""Small fully-connected network trained with weighted mini-batch SGD.

Hidden layers use ReLU; the head is a sigmoid (classification, weighted
binary cross-entropy) or the identity (regression, squared loss).  Losses
are normalized by the batch weight mass, so uniformly rescaling the sample
weights leaves the parameter trajectory unchanged.  Feature standardization
is fitted once and frozen with the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class SingleClass(ValueError):
    pass


class NonFiniteLoss(FloatingPointError):
    pass


class DimensionMismatch(ValueError):
    pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, from one exp that never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class MLP:
    """Plain numpy network: ``layer_sizes`` includes input and output widths."""

    def __init__(self, layer_sizes: Sequence[int], output: str = "sigmoid", seed: int = 0):
        if output not in ("sigmoid", "identity"):
            raise ValueError(f"unknown output activation {output!r}")
        if len(layer_sizes) < 2 or layer_sizes[-1] != 1:
            raise ValueError("layer_sizes must end with a single output unit")
        self.layer_sizes = list(layer_sizes)
        self.output = output
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.mean = np.zeros(layer_sizes[0])
        self.std = np.ones(layer_sizes[0])

    # -- standardization ---------------------------------------------------

    def fit_standardization(self, X: np.ndarray) -> None:
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)

    def set_standardization(self, mean: np.ndarray, std: np.ndarray) -> None:
        self.mean = np.asarray(mean, dtype=float)
        self.std = np.asarray(std, dtype=float)

    def standardize(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.layer_sizes[0]:
            raise DimensionMismatch(f"expected {self.layer_sizes[0]} features, got {X.shape[1]}")
        Xs = X - self.mean  # a new array: the caller's X is never written
        Xs /= self.std
        return Xs

    # -- forward / backward -------------------------------------------------

    def _forward(self, Xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns head pre-activation and per-layer post-ReLU activations."""
        acts = [Xs]
        h = Xs
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            # in place on the product, which is the layer's own new array
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
            acts.append(h)
        z = h @ self.weights[-1]
        z += self.biases[-1]
        return z[:, 0], acts

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Model output on raw (unstandardized) inputs.

        Sigmoid outputs are nudged off the exact 0/1 saturation points so the
        open-interval contract survives floating point.
        """
        z, _ = self._forward(self.standardize(X))
        if self.output == "identity":
            return z
        p = _sigmoid(z)
        # np.clip's values, without its Python wrapper
        np.maximum(p, 1e-12, out=p)
        return np.minimum(p, 1.0 - 1e-12, out=p)

    def loss(self, Xs: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        z, _ = self._forward(Xs)
        return self._loss_from_z(z, y, w)

    def _loss_from_z(self, z: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
        wsum = w.sum()
        if wsum <= 0:
            return 0.0
        if self.output == "sigmoid":
            # softplus(z) - y z, numerically stable in either tail
            per = np.logaddexp(0.0, z) - y * z
        else:
            per = (z - y) ** 2
        return float(np.sum(w * per) / wsum)

    def loss_and_grads(self, Xs: np.ndarray, y: np.ndarray, w: np.ndarray):
        z, acts = self._forward(Xs)
        loss = self._loss_from_z(z, y, w)
        wsum = w.sum()
        grads_w = [np.zeros_like(W) for W in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        if wsum <= 0:
            return loss, grads_w, grads_b
        if self.output == "sigmoid":
            dz = (_sigmoid(z) - y) * w / wsum
        else:
            dz = 2.0 * (z - y) * w / wsum
        delta = dz[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return loss, grads_w, grads_b

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "lobkit-mlp-v1",
            "layer_sizes": self.layer_sizes,
            "output": self.output,
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "MLP":
        """The network ``to_dict`` wrote; its shapes must chain from the input
        width to the one output, every array be finite and ``std`` positive."""
        if blob.get("format") != "lobkit-mlp-v1":
            raise ValueError(f"unsupported model format {blob.get('format')!r}")
        sizes = list(blob["layer_sizes"])
        weights = [np.asarray(W, dtype=float) for W in blob["weights"]]
        biases = [np.asarray(b, dtype=float) for b in blob["biases"]]
        mean, std = np.asarray(blob["mean"], dtype=float), np.asarray(blob["std"], dtype=float)
        # checked before the constructor draws weights of the sizes the file claims
        if ([W.shape for W in weights], [b.shape for b in biases], mean.shape, std.shape) != (
            [*zip(sizes, sizes[1:])], [(n,) for n in sizes[1:]], tuple(sizes[:1]), tuple(sizes[:1])
        ):
            raise ValueError(f"weight, bias and standardization shapes do not chain the layer sizes {sizes}")
        if not all(np.isfinite(a).all() for a in (*weights, *biases, mean, std)):
            raise ValueError("a weight, bias, mean or std is not finite")
        if not (std > 0).all():
            raise ValueError(f"std must be positive, got {std.min()}")
        model = cls(sizes, output=blob["output"])
        model.weights, model.biases = weights, biases
        model.set_standardization(mean, std)
        return model


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


MOMENTUM = 0.9  # SGD velocity decay per minibatch


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch: int = 512
    epochs: int = 100
    seed: int = 0
    patience: int = 5
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        for key, low in (("batch", 1), ("epochs", 1), ("patience", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


def held_out_rows(n: int, val_fraction: float) -> int:
    """Trailing rows of ``n`` that ``train_mlp`` holds out for validation."""
    return int(round(n * val_fraction)) if val_fraction > 0 else 0


@dataclass
class TrainingReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False


def train_mlp(model: MLP, X: np.ndarray, y: np.ndarray, w: np.ndarray, cfg: TrainConfig) -> TrainingReport:
    """Momentum SGD with early stopping on the validation loss.

    Rows are assumed time-ordered; the trailing ``val_fraction`` is held out
    so train and validation never interleave in time.  Standardization is
    fitted on the training split only.  Deterministic given ``cfg.seed``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n = len(X)
    n_val = held_out_rows(n, cfg.val_fraction)
    n_train = n - n_val
    if n_train < 1:
        raise ValueError("no training rows after the validation split")
    model.fit_standardization(X[:n_train])
    Xs = model.standardize(X)
    Xtr, ytr, wtr = Xs[:n_train], y[:n_train], w[:n_train]
    Xva, yva, wva = Xs[n_train:], y[n_train:], w[n_train:]

    rng = np.random.default_rng(cfg.seed)
    vel_w = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    report = TrainingReport()
    best_val = np.inf
    best_params: tuple[list[np.ndarray], list[np.ndarray]] | None = None
    stale = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        epoch_mass = 0.0
        for start in range(0, n_train, cfg.batch):
            idx = order[start : start + cfg.batch]
            loss, gw, gb = model.loss_and_grads(Xtr[idx], ytr[idx], wtr[idx])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became non-finite at epoch {epoch}")
            mass = wtr[idx].sum()
            epoch_loss += loss * mass
            epoch_mass += mass
            for i in range(len(model.weights)):
                vel_w[i] = MOMENTUM * vel_w[i] - cfg.lr * gw[i]
                vel_b[i] = MOMENTUM * vel_b[i] - cfg.lr * gb[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        report.train_loss.append(epoch_loss / epoch_mass if epoch_mass > 0 else 0.0)

        if n_val > 0:
            val = model.loss(Xva, yva, wva)
            if not np.isfinite(val):
                raise NonFiniteLoss(f"validation loss became non-finite at epoch {epoch}")
            report.val_loss.append(val)
            if val < best_val - 1e-12:
                best_val = val
                best_params = ([W.copy() for W in model.weights], [b.copy() for b in model.biases])
                report.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale > cfg.patience:
                    report.stopped_early = True
                    break
    if best_params is not None:
        model.weights, model.biases = best_params
    return report


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def gradient_check(
    model: MLP,
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_checks: int = 50,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between backprop and central finite differences."""
    Xs = model.standardize(X)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    _, gw, gb = model.loss_and_grads(Xs, y, w)
    params = [(arr, grad) for arr, grad in zip(model.weights, gw)]
    params += [(arr, grad) for arr, grad in zip(model.biases, gb)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_checks):
        arr, grad = params[rng.integers(len(params))]
        flat = rng.integers(arr.size)
        idx = np.unravel_index(flat, arr.shape)
        original = arr[idx]
        arr[idx] = original + step
        up = model.loss(Xs, y, w)
        arr[idx] = original - step
        down = model.loss(Xs, y, w)
        arr[idx] = original
        numeric = (up - down) / (2.0 * step)
        analytic = grad[idx]
        denom = max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def permutation_importance(
    model: MLP,
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    columns: Sequence[str] | None = None,
    seed: int = 0,
) -> list[tuple[str, float]]:
    """Per-feature loss increase when the feature column is shuffled."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if columns is None:
        columns = [f"f{i}" for i in range(X.shape[1])]
    base = model.loss(model.standardize(X), y, w)
    rng = np.random.default_rng(seed)
    scores: list[tuple[str, float]] = []
    for j in range(X.shape[1]):
        perm = rng.permutation(len(X))
        Xp = X.copy()
        Xp[:, j] = Xp[perm, j]
        scores.append((columns[j], model.loss(model.standardize(Xp), y, w) - base))
    scores.sort(key=lambda item: -item[1])
    return scores
