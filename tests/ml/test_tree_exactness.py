"""Exactness checks for the presorted CART split search and the batched
tree descent: against a brute-force split search, and node for node and
bit for bit against the per-node-argsort growers and per-row traversal
in :mod:`tests.ml.reference_trees`."""

import pickle
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import GradientBoostingClassifier, RandomForestClassifier
from repro.ml import forest, gradient_boosting
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _best_split_classification,
    _best_split_regression,
    _gini,
    _Presorted,
)

from .reference_trees import (
    ReferenceBoostTree,
    ReferenceTreeClassifier,
    ReferenceTreeRegressor,
    reference_apply,
    reference_best_split_classification,
    reference_best_split_regression,
)


def brute_force_best_gini_split(X, y, n_classes):
    """O(n^2 d) reference: evaluate every midpoint of every feature."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_impurity = _gini(parent_counts)
    best = (-1, 0.0, 0.0)
    for feature in range(X.shape[1]):
        values = np.unique(X[:, feature])
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            left = y[X[:, feature] <= threshold]
            right = y[X[:, feature] > threshold]
            if len(left) == 0 or len(right) == 0:
                continue
            gini_left = _gini(np.bincount(left, minlength=n_classes).astype(float))
            gini_right = _gini(np.bincount(right, minlength=n_classes).astype(float))
            weighted = (len(left) * gini_left + len(right) * gini_right) / n
            gain = n * (parent_impurity - weighted)
            if gain > best[2] + 1e-12:
                best = (feature, threshold, gain)
    return best


def presorted_classification_split(X, y, n_classes, min_samples_leaf=1):
    """The production split search at the root of a fit on ``X``."""
    data = _Presorted(X)
    onehot = np.zeros((len(y), n_classes), dtype=np.float64)
    onehot[np.arange(len(y)), y] = 1.0
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    split = _best_split_classification(
        data, onehot, counts, data.orders, np.arange(X.shape[1]), min_samples_leaf
    )
    return split, onehot


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_tree(a, b, value_of):
    """Same shape, features, threshold/gain bits and node output bytes."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert (x.left is None) == (y.left is None)
        assert np.asarray(value_of(x)).tobytes() == np.asarray(value_of(y)).tobytes()
        if x.left is None:
            continue
        assert x.feature == y.feature
        assert bits(x.threshold) == bits(y.threshold)
        assert bits(x.gain) == bits(y.gain)
        stack.extend([(x.left, y.left), (x.right, y.right)])


def tie_heavy(rng, n, d, decimals):
    """Normal features rounded to ``decimals`` places: many equal values."""
    return rng.normal(0, 1, (n, d)).round(decimals)


class TestSplitExactness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 30), st.integers(1, 3))
    def test_classification_split_matches_brute_force(self, seed, n, d):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, d)).round(1)  # rounding creates ties
        y = rng.integers(0, 2, n)
        fast, _ = presorted_classification_split(X, y, 2)
        slow = brute_force_best_gini_split(X, y, 2)
        assert fast[2] == pytest.approx(slow[2], abs=1e-9)
        if slow[0] >= 0:
            # Equal-gain ties may pick different features; the gains match.
            left_fast = np.sum(X[:, fast[0]] <= fast[1])
            assert 0 < left_fast < n

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000), st.integers(2, 40), st.integers(1, 4),
        st.integers(2, 3), st.integers(1, 4),
    )
    def test_classification_split_matches_reference_bitwise(
        self, seed, n, d, n_classes, min_samples_leaf
    ):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, n, d, 0)
        y = rng.integers(0, n_classes, n)
        fast, onehot = presorted_classification_split(X, y, n_classes, min_samples_leaf)
        slow = reference_best_split_classification(
            X, onehot, np.arange(d), min_samples_leaf
        )
        assert fast[0] == slow[0]
        assert bits(fast[1]) == bits(slow[1]) and bits(fast[2]) == bits(slow[2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(6, 25))
    def test_regression_split_reduces_sse(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, 2))
        y = rng.normal(0, 1, n)
        data = _Presorted(X)
        parent_sse = float(np.sum((y - y.mean()) ** 2))
        feature, threshold, gain = _best_split_regression(
            data, y, parent_sse, data.orders, np.arange(2), min_samples_leaf=1
        )
        assert (feature, threshold, gain) == reference_best_split_regression(
            X, y, np.arange(2), min_samples_leaf=1
        )
        if feature < 0:
            return
        mask = X[:, feature] <= threshold
        parent_sse = np.sum((y - y.mean()) ** 2)
        child_sse = np.sum((y[mask] - y[mask].mean()) ** 2) + np.sum(
            (y[~mask] - y[~mask].mean()) ** 2
        )
        assert gain == pytest.approx(parent_sse - child_sse, abs=1e-8)
        assert gain >= -1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_min_samples_leaf_never_violated(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (40, 3))
        y = rng.integers(0, 2, 40)
        tree = DecisionTreeClassifier(min_samples_leaf=7).fit(X, y)

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 7 or node is tree.root_
                return
            check(node.left)
            check(node.right)

        check(tree.root_)


class TestPresortedEqualsReference:
    """Production trees against the per-node-argsort reference growers."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 120),
        d=st.integers(1, 6),
        decimals=st.integers(0, 2),
        n_classes=st.integers(2, 3),
        max_features=st.sampled_from([None, "sqrt", 2, 0.5]),
        min_samples_leaf=st.integers(1, 5),
        max_depth=st.sampled_from([None, 1, 3]),
        bootstrap=st.booleans(),
    )
    def test_classifier_node_for_node(
        self, seed, n, d, decimals, n_classes, max_features, min_samples_leaf,
        max_depth, bootstrap,
    ):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, n, d, decimals)
        y = rng.integers(0, n_classes, n)
        if bootstrap:  # duplicated rows, as every forest tree sees
            sample = rng.integers(0, n, n)
            X, y = X[sample], y[sample]
        params = dict(
            max_features=max_features, min_samples_leaf=min_samples_leaf,
            max_depth=max_depth, random_state=seed,
        )
        fast = DecisionTreeClassifier(**params).fit(X, y, sample_classes=n_classes)
        slow = ReferenceTreeClassifier(**params).fit(X, y, sample_classes=n_classes)
        assert_same_tree(fast.root_, slow.root_, lambda node: node.value)
        assert fast._importances.tobytes() == slow._importances.tobytes()
        queries = np.vstack([X, tie_heavy(rng, 20, d, decimals)])
        assert fast.predict_proba(queries).tobytes() == slow.predict_proba(queries).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 80),
        decimals=st.integers(0, 2),
        min_samples_leaf=st.integers(1, 4),
        max_features=st.sampled_from([None, "sqrt"]),
    )
    def test_regressor_node_for_node(self, seed, n, decimals, min_samples_leaf, max_features):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, n, 4, decimals)
        y = X[:, 0] + rng.normal(0, 0.5, n)
        params = dict(
            min_samples_leaf=min_samples_leaf, max_features=max_features, random_state=seed
        )
        fast = DecisionTreeRegressor(**params).fit(X, y)
        slow = ReferenceTreeRegressor(**params).fit(X, y)
        assert_same_tree(fast.root_, slow.root_, lambda node: node.value)
        assert fast.predict(X).tobytes() == slow.predict(X).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 120),
        decimals=st.integers(0, 2),
        subsample=st.sampled_from([1.0, 0.8, 0.5]),
        colsample=st.sampled_from([1.0, 0.6, 0.3]),
        min_child_weight=st.sampled_from([0.0, 1.0]),
        max_depth=st.integers(1, 5),
    )
    def test_booster_node_for_node(
        self, seed, n, decimals, subsample, colsample, min_child_weight, max_depth
    ):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, n, 5, decimals)
        y = (X[:, 0] + rng.normal(0, 1, n) > 0).astype(int)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        params = dict(
            n_estimators=8, max_depth=max_depth, subsample=subsample,
            colsample_bytree=colsample, min_child_weight=min_child_weight,
            random_state=seed,
        )
        fast = GradientBoostingClassifier(**params).fit(X, y)
        with mock.patch.object(gradient_boosting, "_BoostTree", ReferenceBoostTree):
            slow = GradientBoostingClassifier(**params).fit(X, y)
        for a, b in zip(fast.trees_, slow.trees_, strict=True):
            assert_same_tree(a.root_, b.root_, lambda node: node.weight)
            assert a.feature_gains.tobytes() == b.feature_gains.tobytes()
        assert np.array(fast.train_losses_).tobytes() == np.array(slow.train_losses_).tobytes()
        assert fast.decision_function(X).tobytes() == slow.decision_function(X).tobytes()

    def test_forest_matches_reference_trees(self, blobs):
        X, y = blobs
        X = X.round(1)
        fast = RandomForestClassifier(n_estimators=15, random_state=4, n_jobs=1).fit(X, y)
        with mock.patch.object(forest, "DecisionTreeClassifier", ReferenceTreeClassifier):
            slow = RandomForestClassifier(n_estimators=15, random_state=4, n_jobs=1).fit(X, y)
        assert fast.predict_proba(X).tobytes() == slow.predict_proba(X).tobytes()
        assert fast.feature_importances_.tobytes() == slow.feature_importances_.tobytes()
        assert fast.oob_score() == slow.oob_score()


class TestBatchedDescent:
    """The flattened-array descent against the per-row walk."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 60), st.floats(0.0, 0.5))
    def test_booster_tree_with_nan_rows(self, seed, n_queries, nan_fraction):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, 60, 4, 1)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = GradientBoostingClassifier(n_estimators=3, max_depth=4, random_state=seed)
        model.fit(X, y)
        queries = tie_heavy(rng, n_queries, 4, 1)
        queries[rng.random(queries.shape) < nan_fraction] = np.nan
        for tree in model.trees_:
            expected = reference_apply(tree.root_, queries, lambda node: node.weight)
            assert tree.predict(queries).tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 60))
    def test_classifier_tree_with_nan_rows(self, seed, n_queries):
        rng = np.random.default_rng(seed)
        X = tie_heavy(rng, 80, 3, 1)
        y = rng.integers(0, 2, 80)
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=seed).fit(X, y)
        queries = tie_heavy(rng, n_queries, 3, 1)
        queries[rng.random(queries.shape) < 0.3] = np.nan
        expected = reference_apply(tree.root_, queries, lambda node: node.value)
        assert tree._flat_tree().predict(queries).tobytes() == expected.tobytes()

    def test_single_leaf_trees(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        pure = DecisionTreeClassifier().fit(X, np.ones(6, int))
        stump = DecisionTreeRegressor(max_depth=0).fit(X, np.arange(6.0))
        queries = np.vstack([X, [[np.nan, np.nan]]])
        assert pure.root_.is_leaf and stump.root_.is_leaf
        np.testing.assert_array_equal(pure._flat_tree().apply(queries), np.zeros(7))
        assert pure._flat_tree().predict(queries).tobytes() == reference_apply(
            pure.root_, queries, lambda node: node.value
        ).tobytes()
        assert stump._flat_tree().predict(queries).tobytes() == np.full(7, 2.5).tobytes()


class TestFlatTreeLifecycle:
    def test_pickled_state_carries_nodes_only(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        before = pickle.dumps(tree)
        expected = tree.predict_proba(X)  # builds the arrays
        assert "_flat" in tree.__dict__
        assert pickle.dumps(tree) == before
        restored = pickle.loads(before)
        assert "_flat" not in restored.__dict__
        assert restored.predict_proba(X).tobytes() == expected.tobytes()

    def test_replaced_root_is_never_stale(self, blobs):
        X, y = blobs
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(random_state=0).fit(X, y)
        shallow.predict_proba(X)
        shallow.root_ = deep.root_
        assert shallow.predict_proba(X).tobytes() == deep.predict_proba(X).tobytes()
