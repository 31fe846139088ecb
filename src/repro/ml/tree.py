"""CART decision trees (classification and regression), built from scratch.

These trees are the building blocks for :mod:`repro.ml.forest` (Random
Forest) and :mod:`repro.ml.gradient_boosting` (the XGB-style booster).
The classifier records per-feature *mean decrease in Gini* importances,
which is exactly the importance measure the paper uses for Figures 13
and 14.

Splits are exact.  Every feature is sorted once per fit (a stable
mergesort), and each node hands its per-feature row order down to its
children by a stable boolean partition, so a node's order is the
fit-wide order filtered to its rows.  One prefix sum over all sampled
features then scores every midpoint between distinct values.
Prediction flattens the fitted node tree into arrays and descends all
rows together.  Both are bit-for-bit equal to sorting per node and
walking one row at a time (DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_array, check_random_state, check_X_y

__all__ = ["TreeNode", "DecisionTreeClassifier", "DecisionTreeRegressor"]


@dataclass
class TreeNode:
    """One node of a fitted CART tree.

    Leaves carry ``value`` (class-probability vector or regression mean);
    internal nodes carry a ``feature``/``threshold`` split where samples
    with ``x[feature] <= threshold`` go left.
    """

    value: np.ndarray
    n_samples: int
    impurity: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


def _gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


class _Presorted:
    """Fit-wide split-search state shared by every node of one tree.

    ``orders`` is the ``(F, n)`` stable order of every feature's values;
    ``side`` is scratch space that :meth:`partition` writes per node.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        self.rows = np.arange(X.shape[0])
        self.orders = np.ascontiguousarray(np.argsort(X, axis=0, kind="mergesort").T)
        self.side = np.zeros(X.shape[0], dtype=bool)

    def sorted_values(
        self, orders: np.ndarray, feature_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(k, n)`` sorted row ids and values of the sampled features."""
        sub = orders[feature_ids]
        return sub, self.X[sub, feature_ids[:, None]]

    def partition(
        self, rows: np.ndarray, orders: np.ndarray, feature: int, threshold: float
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Split a node's ``(rows, orders)`` into its children's.

        Boolean selection keeps relative order, so each child's rows stay
        in original order and each of its per-feature orders stays sorted.
        """
        goes_left = self.X[rows, feature] <= threshold
        self.side[rows] = goes_left
        keep = self.side[orders]
        n_features, n_left = orders.shape[0], int(goes_left.sum())
        return (
            (rows[goes_left], orders[keep].reshape(n_features, n_left)),
            (rows[~goes_left], orders[~keep].reshape(n_features, -1)),
        )


def _pick_split(
    gains: np.ndarray, values: np.ndarray, feature_ids: np.ndarray
) -> tuple[int, float, float]:
    """The best masked ``(k, n - 1)`` gain, features tried in order.

    A later feature wins only by more than ``1e-12``, and within a feature
    the first maximal position wins.  ``feature == -1`` means no split.
    """
    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for j, pos in enumerate(np.argmax(gains, axis=1)):
        if gains[j, pos] > best_gain + 1e-12:
            best_gain = float(gains[j, pos])
            best_feature = int(feature_ids[j])
            best_threshold = float((values[j, pos] + values[j, pos + 1]) / 2.0)
    return best_feature, best_threshold, best_gain


def _best_split_classification(
    data: _Presorted,
    onehot: np.ndarray,
    parent_counts: np.ndarray,
    orders: np.ndarray,
    feature_ids: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Search for the Gini-gain-maximising split among ``feature_ids``.

    ``onehot`` is the one-hot label matrix of the fit, encoded once and
    indexed by row id; ``parent_counts`` are the node's class counts.
    Counts are whole numbers, so every class-count sum is exact in any
    order.  Returns ``(feature, threshold, gain)``;
    ``feature == -1`` means no valid split exists.  Gain is the
    *unnormalised* impurity decrease ``N * (impurity_parent - weighted
    child impurity)`` so that summing gains over a tree matches the
    classic mean-decrease-in-Gini totals.
    """
    n = orders.shape[1]
    parent_impurity = _gini(parent_counts)
    sub, values = data.sorted_values(orders, feature_ids)

    # Split after sorted position i sends i + 1 rows left.
    left = np.cumsum(onehot[sub], axis=1)[:, :-1]
    right = parent_counts - left
    n_left = np.arange(1.0, n)
    n_right = n - n_left
    gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=2)
    gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=2)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    gains = n * (parent_impurity - weighted)

    valid = (
        (values[:, 1:] != values[:, :-1])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    gains[~valid] = -np.inf
    return _pick_split(gains, values, feature_ids)


def _best_split_regression(
    data: _Presorted,
    y: np.ndarray,
    parent_sse: float,
    orders: np.ndarray,
    feature_ids: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float]:
    """Variance-reduction split search for regression trees; ``parent_sse``
    is the node's sum of squared deviations."""
    n = orders.shape[1]
    sub, values = data.sorted_values(orders, feature_ids)
    y_sorted = y[sub]
    csum = np.cumsum(y_sorted, axis=1)
    csum2 = np.cumsum(y_sorted**2, axis=1)

    n_left = np.arange(1.0, n)
    n_right = n - n_left
    sum_left = csum[:, :-1]
    sum2_left = csum2[:, :-1]
    sum_right = csum[:, -1:] - sum_left
    sum2_right = csum2[:, -1:] - sum2_left
    sse_left = sum2_left - sum_left**2 / n_left
    sse_right = sum2_right - sum_right**2 / n_right
    gains = parent_sse - (sse_left + sse_right)

    valid = (
        (values[:, 1:] != values[:, :-1])
        & (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
    )
    gains[~valid] = -np.inf
    return _pick_split(gains, values, feature_ids)


@dataclass(frozen=True, eq=False)
class _FlatTree:
    """A fitted node tree as arrays, numbered breadth-first from the root.

    Leaves have ``left == -1``.  ``value`` holds each node's output, one
    row (or scalar) per node.  ``root`` is the node tree it was built
    from, so a holder can tell when it is stale.
    """

    root: object
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def build(cls, root, value_of) -> "_FlatTree":
        nodes = [root]
        left: list[int] = []
        right: list[int] = []
        for node in nodes:  # ``nodes`` grows as children are numbered
            if node.left is None:
                left.append(-1)
                right.append(-1)
            else:
                left.append(len(nodes))
                right.append(len(nodes) + 1)
                nodes.extend((node.left, node.right))
        return cls(
            root=root,
            feature=np.array([node.feature for node in nodes], dtype=np.intp),
            threshold=np.array([node.threshold for node in nodes], dtype=np.float64),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array([value_of(node) for node in nodes], dtype=np.float64),
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id of every row: all rows descend one level per step,
        ``x[feature] <= threshold`` going left (NaN goes right)."""
        leaf = np.zeros(X.shape[0], dtype=np.intp)
        active = np.arange(X.shape[0]) if self.left[0] >= 0 else leaf[:0]
        while active.size:
            node = leaf[active]
            goes_left = X[active, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
            leaf[active] = node
            active = active[self.left[node] >= 0]
        return leaf

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


class _FlatTreeHolder:
    """Mixin: a lazily built :class:`_FlatTree` of ``root_``.

    The arrays are rebuilt whenever ``root_`` is replaced (model import
    assigns it directly) and are left out of the pickled state, so trees
    shipped back from worker processes carry their nodes only.
    """

    @staticmethod
    def _node_value(node):
        return node.value

    def _flat_tree(self) -> _FlatTree:
        flat = self.__dict__.get("_flat")
        if flat is None or flat.root is not self.root_:
            flat = self._flat = _FlatTree.build(self.root_, self._node_value)
        return flat

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_flat", None)
        return state


class DecisionTreeClassifier(_FlatTreeHolder, BaseEstimator, ClassifierMixin):
    """CART classifier with Gini impurity and exact splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until pure or exhausted.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples that must land in each child.
    max_features:
        Number of features sampled per split: ``None`` (all), an int,
        a float fraction, or ``"sqrt"`` / ``"log2"`` (used by forests).
    random_state:
        Seed for per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- fitting -----------------------------------------------------------
    def fit(self, X, y, sample_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        self.n_classes_ = sample_classes or len(self.classes_)
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        self._importances = np.zeros(self.n_features_, dtype=np.float64)
        self._n_fit_samples = X.shape[0]
        # One-hot encode labels once per fit; nodes index it by row id.
        onehot = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        onehot[np.arange(X.shape[0]), encoded] = 1.0
        data = _Presorted(X)
        self.root_ = self._grow(data, encoded, onehot, data.rows, data.orders, depth=0)
        return self

    def _resolve_max_features(self) -> int:
        m = self.max_features
        if m is None:
            return self.n_features_
        if m == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if m == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(m, float):
            return max(1, int(m * self.n_features_))
        return max(1, min(int(m), self.n_features_))

    def _grow(
        self,
        data: _Presorted,
        y: np.ndarray,
        onehot: np.ndarray,
        rows: np.ndarray,
        orders: np.ndarray,
        depth: int,
    ) -> TreeNode:
        counts = np.bincount(y[rows], minlength=self.n_classes_).astype(np.float64)
        node = TreeNode(
            value=counts / counts.sum(), n_samples=rows.shape[0], impurity=_gini(counts)
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or rows.shape[0] < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node

        k = self._resolve_max_features()
        if k < self.n_features_:
            feature_ids = self._rng.choice(self.n_features_, size=k, replace=False)
        else:
            feature_ids = np.arange(self.n_features_)

        feature, threshold, gain = _best_split_classification(
            data, onehot, counts, orders, feature_ids, self.min_samples_leaf
        )
        if feature < 0:
            return node

        left, right = data.partition(rows, orders, feature, threshold)
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        # Mean decrease in Gini: impurity decrease weighted by the fraction
        # of training samples that reach this node.
        self._importances[feature] += gain / self._n_fit_samples
        node.left = self._grow(data, y, onehot, *left, depth + 1)
        node.right = self._grow(data, y, onehot, *right, depth + 1)
        return node

    # -- prediction --------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return self._flat_tree().predict(X)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in Gini, normalised to sum to 1 (when nonzero)."""
        total = self._importances.sum()
        if total == 0.0:
            return self._importances.copy()
        return self._importances / total

    def get_depth(self) -> int:
        return self.root_.depth()

    def get_n_nodes(self) -> int:
        return self.root_.node_count()


class DecisionTreeRegressor(_FlatTreeHolder, BaseEstimator):
    """CART regressor with variance-reduction splits (used in tests and
    as a reference implementation for the boosted trees)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = check_array(X)
        y = np.asarray(y, dtype=np.float64)
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y length mismatch")
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        data = _Presorted(X)
        self.root_ = self._grow(data, y, data.rows, data.orders, depth=0)
        return self

    def _resolve_max_features(self) -> int:
        m = self.max_features
        if m is None:
            return self.n_features_
        if m == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if m == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(m, float):
            return max(1, int(m * self.n_features_))
        return max(1, min(int(m), self.n_features_))

    @staticmethod
    def _node_value(node: TreeNode) -> float:
        return node.value[0]

    def _grow(
        self, data: _Presorted, y: np.ndarray, rows: np.ndarray, orders: np.ndarray, depth: int
    ) -> TreeNode:
        y_node = y[rows]
        mean = float(y_node.mean())
        sse = float(np.sum((y_node - mean) ** 2))
        node = TreeNode(value=np.array([mean]), n_samples=rows.shape[0], impurity=sse)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or rows.shape[0] < self.min_samples_split
            or sse <= 1e-12
        ):
            return node

        k = self._resolve_max_features()
        if k < self.n_features_:
            feature_ids = self._rng.choice(self.n_features_, size=k, replace=False)
        else:
            feature_ids = np.arange(self.n_features_)

        feature, threshold, gain = _best_split_regression(
            data, y, sse, orders, feature_ids, self.min_samples_leaf
        )
        if feature < 0:
            return node
        left, right = data.partition(rows, orders, feature, threshold)
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = self._grow(data, y, *left, depth + 1)
        node.right = self._grow(data, y, *right, depth + 1)
        return node

    def predict(self, X) -> np.ndarray:
        return self._flat_tree().predict(check_array(X))
