"""Reference tree growers: per-node argsort split search and per-row
traversal, the straightforward form of what :mod:`repro.ml.tree` and
:mod:`repro.ml.gradient_boosting` compute with presorted orders and a
batched descent.  Test oracles only: the production trees must match
them node for node and bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array, check_random_state, check_X_y
from repro.ml.gradient_boosting import _BoostNode, _BoostTree
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, TreeNode, _gini


def reference_best_split_classification(X, onehot, feature_ids, min_samples_leaf):
    """Gini split search over one node's ``X``/``onehot``, sorting each
    feature at the node."""
    n = onehot.shape[0]
    parent_counts = onehot.sum(axis=0)
    parent_impurity = _gini(parent_counts)

    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for feature in feature_ids:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        counts_left = np.cumsum(onehot[order], axis=0)

        distinct = values[1:] != values[:-1]
        positions = np.nonzero(distinct)[0]  # split after index i -> left size i+1
        if positions.size == 0:
            continue
        left_sizes = positions + 1
        valid = (left_sizes >= min_samples_leaf) & (n - left_sizes >= min_samples_leaf)
        positions = positions[valid]
        if positions.size == 0:
            continue

        left = counts_left[positions]
        right = parent_counts - left
        n_left = left.sum(axis=1)
        n_right = right.sum(axis=1)
        gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = n * (parent_impurity - weighted)

        i = int(np.argmax(gains))
        if gains[i] > best_gain + 1e-12:
            best_gain = float(gains[i])
            best_feature = int(feature)
            pos = positions[i]
            best_threshold = float((values[pos] + values[pos + 1]) / 2.0)
    return best_feature, best_threshold, best_gain


def reference_best_split_regression(X, y, feature_ids, min_samples_leaf):
    """Variance-reduction split search over one node's ``X``/``y``."""
    n = y.shape[0]
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for feature in feature_ids:
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        y_sorted = y[order]
        csum = np.cumsum(y_sorted)
        csum2 = np.cumsum(y_sorted**2)

        positions = np.nonzero(values[1:] != values[:-1])[0]
        if positions.size == 0:
            continue
        left_sizes = positions + 1
        valid = (left_sizes >= min_samples_leaf) & (n - left_sizes >= min_samples_leaf)
        positions = positions[valid]
        if positions.size == 0:
            continue

        n_left = positions + 1.0
        n_right = n - n_left
        sum_left = csum[positions]
        sum2_left = csum2[positions]
        sum_right = csum[-1] - sum_left
        sum2_right = csum2[-1] - sum2_left
        sse_left = sum2_left - sum_left**2 / n_left
        sse_right = sum2_right - sum_right**2 / n_right
        gains = parent_sse - (sse_left + sse_right)

        i = int(np.argmax(gains))
        if gains[i] > best_gain + 1e-12:
            best_gain = float(gains[i])
            best_feature = int(feature)
            pos = positions[i]
            best_threshold = float((values[pos] + values[pos + 1]) / 2.0)
    return best_feature, best_threshold, best_gain


def reference_apply(root, X, value_of):
    """Walk each row from the root on its own; stack the leaf outputs."""
    out = []
    for row in X:
        node = root
        while node.left is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(value_of(node))
    return np.array(out, dtype=np.float64)


def _sample_features(rng, n_features, k):
    if k < n_features:
        return rng.choice(n_features, size=k, replace=False)
    return np.arange(n_features)


class ReferenceTreeClassifier(DecisionTreeClassifier):
    """:class:`DecisionTreeClassifier` grown by slicing ``X`` per node."""

    def fit(self, X, y, sample_classes=None):
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_classes_ = sample_classes or len(self.classes_)
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        self._importances = np.zeros(self.n_features_, dtype=np.float64)
        self._n_fit_samples = X.shape[0]
        onehot = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        onehot[np.arange(X.shape[0]), encoded] = 1.0
        self.root_ = self._reference_grow(X, encoded, onehot, depth=0)
        return self

    def _reference_grow(self, X, y, onehot, depth):
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        node = TreeNode(
            value=counts / counts.sum(), n_samples=y.shape[0], impurity=_gini(counts)
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node
        feature_ids = _sample_features(
            self._rng, self.n_features_, self._resolve_max_features()
        )
        feature, threshold, gain = reference_best_split_classification(
            X, onehot, feature_ids, self.min_samples_leaf
        )
        if feature < 0:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        self._importances[feature] += gain / self._n_fit_samples
        node.left = self._reference_grow(X[mask], y[mask], onehot[mask], depth + 1)
        node.right = self._reference_grow(X[~mask], y[~mask], onehot[~mask], depth + 1)
        return node

    def predict_proba(self, X):
        return reference_apply(self.root_, check_array(X), lambda node: node.value)


class ReferenceTreeRegressor(DecisionTreeRegressor):
    """:class:`DecisionTreeRegressor` grown by slicing ``X`` per node."""

    def fit(self, X, y):
        X = check_array(X)
        y = np.asarray(y, dtype=np.float64)
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        self.root_ = self._reference_grow(X, y, depth=0)
        return self

    def _reference_grow(self, X, y, depth):
        mean = float(y.mean())
        sse = float(np.sum((y - mean) ** 2))
        node = TreeNode(value=np.array([mean]), n_samples=y.shape[0], impurity=sse)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.shape[0] < self.min_samples_split
            or sse <= 1e-12
        ):
            return node
        feature_ids = _sample_features(
            self._rng, self.n_features_, self._resolve_max_features()
        )
        feature, threshold, gain = reference_best_split_regression(
            X, y, feature_ids, self.min_samples_leaf
        )
        if feature < 0:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = self._reference_grow(X[mask], y[mask], depth + 1)
        node.right = self._reference_grow(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X):
        return reference_apply(self.root_, check_array(X), lambda node: node.value[0])


class ReferenceBoostTree(_BoostTree):
    """:class:`_BoostTree` grown by slicing ``X`` per node."""

    def fit(self, X, grad, hess):
        self.n_features_ = X.shape[1]
        self.feature_gains = np.zeros(self.n_features_, dtype=np.float64)
        self.root_ = self._reference_grow(X, grad, hess, depth=0)
        return self

    def _reference_grow(self, X, grad, hess, depth):
        g_sum = float(grad.sum())
        h_sum = float(hess.sum())
        node = _BoostNode(weight=self._leaf_weight(g_sum, h_sum), cover=h_sum)
        if depth >= self.max_depth or X.shape[0] < 2:
            return node
        feature_ids = _sample_features(
            self.rng, self.n_features_, max(1, int(self.colsample * self.n_features_))
        )
        parent_score = g_sum**2 / (h_sum + self.reg_lambda)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for feature in feature_ids:
            order = np.argsort(X[:, feature], kind="mergesort")
            values = X[order, feature]
            g_csum = np.cumsum(grad[order])
            h_csum = np.cumsum(hess[order])

            positions = np.nonzero(values[1:] != values[:-1])[0]
            if positions.size == 0:
                continue
            g_left = g_csum[positions]
            h_left = h_csum[positions]
            g_right = g_sum - g_left
            h_right = h_sum - h_left
            valid = (h_left >= self.min_child_weight) & (h_right >= self.min_child_weight)
            if not valid.any():
                continue
            gains = 0.5 * (
                g_left**2 / (h_left + self.reg_lambda)
                + g_right**2 / (h_right + self.reg_lambda)
                - parent_score
            ) - self.gamma
            gains[~valid] = -np.inf
            i = int(np.argmax(gains))
            if gains[i] > best_gain + 1e-12:
                best_gain = float(gains[i])
                best_feature = int(feature)
                pos = positions[i]
                best_threshold = float((values[pos] + values[pos + 1]) / 2.0)
        if best_feature < 0:
            return node
        mask = X[:, best_feature] <= best_threshold
        node.feature = best_feature
        node.threshold = best_threshold
        node.gain = best_gain
        self.feature_gains[best_feature] += best_gain
        node.left = self._reference_grow(X[mask], grad[mask], hess[mask], depth + 1)
        node.right = self._reference_grow(X[~mask], grad[~mask], hess[~mask], depth + 1)
        return node

    def predict(self, X):
        return reference_apply(self.root_, X, lambda node: node.weight)
