"""The paper's neural network estimator, implemented on bare numpy.

§III-B's optimized configuration: an input layer taking the x, y, z
coordinates and the one-hot encoded MAC address, one fully connected
hidden layer of 16 nodes with sigmoid activation, a single linear
output node, trained with the Adam optimizer on mean-squared error.

No deep-learning framework is available offline, so forward/backward
passes and Adam are hand-rolled; inputs are standardized and targets
normalized internally (one of the configurations the paper reports
trying), with predictions mapped back to dBm.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..dataset import REMDataset
from .base import Predictor

__all__ = ["MlpRegressor"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class MlpRegressor(Predictor):
    """coordinates+one-hot → sigmoid(16) → linear(1), trained with Adam."""

    PARAM_NAMES = (
        "hidden_units",
        "learning_rate",
        "epochs",
        "batch_size",
        "seed",
        "onehot_scale",
    )
    name = "neural-network"

    def __init__(
        self,
        hidden_units: int = 16,
        learning_rate: float = 3e-3,
        epochs: int = 300,
        batch_size: int = 32,
        seed: int = 0,
        onehot_scale: float = 1.0,
    ):
        super().__init__()
        if hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {hidden_units}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.hidden_units = int(hidden_units)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.onehot_scale = float(onehot_scale)
        self._weights: Dict[str, np.ndarray] = {}
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self.training_loss: list = []

    # ------------------------------------------------------------------
    def fit(self, train: REMDataset) -> "MlpRegressor":
        """Train with Adam on standardized features/targets."""
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.seed)
        X = train.features(self.onehot_scale)
        y = train.rssi_dbm.astype(float)

        self._x_mean = X.mean(axis=0)
        self._x_std = X.std(axis=0)
        self._x_std[self._x_std < 1e-9] = 1.0
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        Xn = (X - self._x_mean) / self._x_std
        yn = (y - self._y_mean) / self._y_std

        n_features = Xn.shape[1]
        h = self.hidden_units
        limit1 = np.sqrt(6.0 / (n_features + h))
        limit2 = np.sqrt(6.0 / (h + 1))
        params = {
            "W1": rng.uniform(-limit1, limit1, size=(n_features, h)),
            "b1": np.zeros(h),
            "W2": rng.uniform(-limit2, limit2, size=(h, 1)),
            "b2": np.zeros(1),
        }
        adam_m = {k: np.zeros_like(v) for k, v in params.items()}
        adam_v = {k: np.zeros_like(v) for k, v in params.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.training_loss = []

        n = len(yn)
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                xb, yb = Xn[idx], yn[idx]
                # Forward.
                z1 = xb @ params["W1"] + params["b1"]
                a1 = _sigmoid(z1)
                pred = (a1 @ params["W2"] + params["b2"]).ravel()
                err = pred - yb
                epoch_loss += float(np.sum(err**2))
                # Backward (MSE).
                m = len(idx)
                d_pred = (2.0 / m) * err[:, None]
                grads = {
                    "W2": a1.T @ d_pred,
                    "b2": d_pred.sum(axis=0),
                }
                d_a1 = d_pred @ params["W2"].T
                d_z1 = d_a1 * a1 * (1.0 - a1)
                grads["W1"] = xb.T @ d_z1
                grads["b1"] = d_z1.sum(axis=0)
                # Adam.
                step += 1
                for key in params:
                    g = grads[key]
                    adam_m[key] = beta1 * adam_m[key] + (1 - beta1) * g
                    adam_v[key] = beta2 * adam_v[key] + (1 - beta2) * (g * g)
                    m_hat = adam_m[key] / (1 - beta1**step)
                    v_hat = adam_v[key] / (1 - beta2**step)
                    params[key] = params[key] - self.learning_rate * m_hat / (
                        np.sqrt(v_hat) + eps
                    )
            self.training_loss.append(epoch_loss / n)
        self._weights = params
        self._mark_fitted(train)
        return self

    # ------------------------------------------------------------------
    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Forward pass, de-normalized back to dBm."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        # The fit-time [x, y, z, one-hot(MAC)] layout (REMDataset.features).
        onehot = np.zeros((len(points), len(self._x_mean) - 3))
        onehot[np.arange(len(points)), mac_indices] = self.onehot_scale
        X = np.hstack([points, onehot])
        Xn = (X - self._x_mean) / self._x_std
        a1 = _sigmoid(Xn @ self._weights["W1"] + self._weights["b1"])
        pred = (a1 @ self._weights["W2"] + self._weights["b2"]).ravel()
        return pred * self._y_std + self._y_mean
