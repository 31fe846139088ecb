"""Extreme-gradient-boosting classifier ("XGB" in Tables 1 and 2).

This is a from-scratch implementation of the XGBoost *algorithm* for
binary classification: additive regression trees fit to the first- and
second-order gradients of the logistic loss, with the regularised
second-order split gain

    gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma

and leaf weights ``w = -G / (H + lambda)`` (Chen & Guestrin, KDD 2016).
XGB is the best-performing algorithm in both of the paper's tables, so
this module is the one that must reproduce the headline F1 numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y
from .tree import _FlatTreeHolder, _pick_split, _Presorted

__all__ = ["GradientBoostingClassifier"]


@dataclass
class _BoostNode:
    weight: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_BoostNode"] = None
    right: Optional["_BoostNode"] = None
    gain: float = 0.0
    cover: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _BoostTree(_FlatTreeHolder):
    """A single regression tree over (gradient, hessian) targets, grown
    with the presorted split search of :mod:`repro.ml.tree`."""

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        colsample: float,
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self.rng = rng
        self.feature_gains: np.ndarray | None = None

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "_BoostTree":
        self.n_features_ = X.shape[1]
        self.feature_gains = np.zeros(self.n_features_, dtype=np.float64)
        data = _Presorted(X)
        self.root_ = self._grow(data, grad, hess, data.rows, data.orders, depth=0)
        return self

    def _leaf_weight(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    @staticmethod
    def _node_value(node: _BoostNode) -> float:
        return node.weight

    def _grow(
        self,
        data: _Presorted,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        orders: np.ndarray,
        depth: int,
    ) -> _BoostNode:
        g_sum = float(grad[rows].sum())
        h_sum = float(hess[rows].sum())
        node = _BoostNode(weight=self._leaf_weight(g_sum, h_sum), cover=h_sum)
        if depth >= self.max_depth or rows.shape[0] < 2:
            return node

        k = max(1, int(self.colsample * self.n_features_))
        if k < self.n_features_:
            feature_ids = self.rng.choice(self.n_features_, size=k, replace=False)
        else:
            feature_ids = np.arange(self.n_features_)

        # One (k, n) prefix sum per target covers every sampled feature;
        # split after position i sends the first i + 1 sorted rows left.
        sub, values = data.sorted_values(orders, feature_ids)
        g_left = np.cumsum(grad[sub], axis=1)[:, :-1]
        h_left = np.cumsum(hess[sub], axis=1)[:, :-1]
        g_right = g_sum - g_left
        h_right = h_sum - h_left
        parent_score = g_sum**2 / (h_sum + self.reg_lambda)
        gains = 0.5 * (
            g_left**2 / (h_left + self.reg_lambda)
            + g_right**2 / (h_right + self.reg_lambda)
            - parent_score
        ) - self.gamma
        valid = (
            (values[:, 1:] != values[:, :-1])
            & (h_left >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
        )
        gains[~valid] = -np.inf
        best_feature, best_threshold, best_gain = _pick_split(gains, values, feature_ids)
        if best_feature < 0:
            return node

        left, right = data.partition(rows, orders, best_feature, best_threshold)
        node.feature = best_feature
        node.threshold = best_threshold
        node.gain = best_gain
        self.feature_gains[best_feature] += best_gain
        node.left = self._grow(data, grad, hess, *left, depth + 1)
        node.right = self._grow(data, grad, hess, *right, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._flat_tree().predict(X)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary XGBoost-style classifier on the logistic loss.

    Parameters
    ----------
    n_estimators, learning_rate, max_depth:
        The usual boosting controls.
    reg_lambda, gamma, min_child_weight:
        XGBoost regularisation: L2 on leaf weights, per-split penalty,
        and minimum hessian mass per child.
    subsample, colsample_bytree:
        Stochastic row/column sampling per boosting round.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        base_score: float = 0.5,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.base_score = base_score
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        if len(self.classes_) == 1:
            # Degenerate training set: constant prediction.
            self._constant_class = True
            self.trees_: list[_BoostTree] = []
            self.base_margin_ = 50.0  # sigmoid ~ 1 for the single class
            return self
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier is binary-only")
        self._constant_class = False
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        target = encoded.astype(np.float64)

        p0 = np.clip(self.base_score, 1e-6, 1.0 - 1e-6)
        self.base_margin_ = float(np.log(p0 / (1.0 - p0)))
        margin = np.full(n, self.base_margin_, dtype=np.float64)

        self.trees_ = []
        self.train_losses_: list[float] = []
        for _ in range(self.n_estimators):
            p = _sigmoid(margin)
            grad = p - target
            hess = p * (1.0 - p)

            if self.subsample < 1.0:
                rows = rng.random(n) < self.subsample
                if not rows.any():
                    rows[rng.integers(0, n)] = True
            else:
                rows = np.ones(n, dtype=bool)

            tree = _BoostTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                colsample=self.colsample_bytree,
                rng=rng,
            )
            tree.fit(X[rows], grad[rows], hess[rows])
            self.trees_.append(tree)
            margin += self.learning_rate * tree.predict(X)

            p = np.clip(_sigmoid(margin), 1e-12, 1 - 1e-12)
            loss = float(-np.mean(target * np.log(p) + (1 - target) * np.log(1 - p)))
            self.train_losses_.append(loss)
        return self

    def decision_function(self, X) -> np.ndarray:
        X = check_array(X)
        margin = np.full(X.shape[0], self.base_margin_, dtype=np.float64)
        for tree in self.trees_:
            margin += self.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        if self._constant_class:
            X = check_array(X)
            return np.ones((X.shape[0], 1), dtype=np.float64)
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised (XGBoost 'gain')."""
        if not self.trees_:
            raise RuntimeError("model has no trees (constant class?)")
        total = np.zeros(self.trees_[0].n_features_, dtype=np.float64)
        for tree in self.trees_:
            total += tree.feature_gains
        s = total.sum()
        return total / s if s else total
