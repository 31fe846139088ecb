"""The data-plane hard contract (DESIGN.md §9): the production store,
observation assembly and batch featurisation produce byte-identical
analyses to the reference oracle (:mod:`repro.reference`) over a dict
replay of the same study's store.

Exact equality throughout: feature matrices compare by ``tobytes()``,
labels and instances by ``==``.  Any deviation, however small, is a
contract violation.
"""

import numpy as np
import pytest

from repro.benchmark import _make_fast_run_docs
from repro.core.app_features import app_feature_matrix
from repro.core.datasets import build_app_dataset, build_device_dataset
from repro.core.device_features import device_feature_matrix
from repro.ml.preprocessing import SimpleImputer
from repro.parallel import spawn_seeds
from repro.platform.store import DocumentStore
from repro.reference import (
    Collection,
    app_feature_vector,
    device_feature_vector,
    reference_observations,
    replay_server,
)

SNAPSHOT_COLLECTIONS = (
    "installs",
    "initial_snapshots",
    "slow_runs",
    "fast_runs",
    "app_changes",
)


@pytest.fixture(scope="module")
def replay(study):
    return replay_server(study.server)


@pytest.fixture(scope="module")
def reference(study, replay):
    return reference_observations(
        study, study.eligible_participants(min_days=2), replay
    )


def test_store_contents_identical(study, replay):
    for name in SNAPSHOT_COLLECTIONS:
        assert replay.store[name].find() == study.server.store[name].find(), name
    # The server's per-install indexed queries agree too.
    for install_id in study.server.install_ids():
        assert replay.initial_snapshot(install_id) == study.server.initial_snapshot(
            install_id
        )
        for query in ("slow_runs", "fast_runs", "app_changes"):
            assert getattr(replay, query)(install_id) == getattr(
                study.server, query
            )(install_id), (query, install_id)


def _signature(obs) -> tuple:
    return (
        obs.install_id,
        dict(obs.initial) if obs.initial else None,
        [dict(run) for run in obs.slow_runs],
        [dict(run) for run in obs.fast_runs],
        [dict(event) for event in obs.app_changes],
        obs.google_ids,
        obs.device_reviews,
        obs.all_account_reviews,
        obs.reported_accounts,
        obs.reported_account_data,
        obs.install_times,
        obs.apk_hashes,
        obs.observed_packages,
        obs.install_event_counts,
        obs.uninstall_event_counts,
        obs.foreground_days,
        obs.foreground_snapshots,
        obs.total_snapshots,
    )


def test_observations_identical(reference, observations):
    assert len(reference) == len(observations)
    for ref, obs in zip(reference, observations):
        assert _signature(ref) == _signature(obs), obs.install_id


def test_app_feature_matrix_byte_identical(study, reference, observations):
    for ref, obs in zip(reference, observations):
        packages = sorted(obs.observed_packages)
        if not packages:
            continue
        scalar = np.vstack(
            [
                app_feature_vector(ref, p, study.catalog, study.vt_client)
                for p in packages
            ]
        )
        batch = app_feature_matrix(obs, packages, study.catalog, study.vt_client)
        assert scalar.tobytes() == batch.tobytes(), obs.install_id


def test_device_feature_matrix_byte_identical(reference, observations):
    scores = [None if i % 3 == 0 else i / 7 for i in range(len(reference))]
    scalar = np.vstack(
        [device_feature_vector(o, s) for o, s in zip(reference, scores)]
    )
    batch = device_feature_matrix(observations, scores)
    assert scalar.tobytes() == batch.tobytes()


def test_datasets_byte_identical(study, reference, observations):
    by_id = {ref.install_id: ref for ref in reference}
    apps = build_app_dataset(study, observations)
    oracle_X = SimpleImputer(strategy="median").fit_transform(
        np.vstack(
            [
                app_feature_vector(
                    by_id[instance.install_id],
                    instance.package,
                    study.catalog,
                    study.vt_client,
                )
                for instance in apps.instances
            ]
        )
    )
    assert oracle_X.tobytes() == apps.X.tobytes()
    assert [instance.label for instance in apps.instances] == apps.y.tolist()

    suspiciousness = {
        o.install_id: i / 11 for i, o in enumerate(observations) if i % 2
    }
    devices = build_device_dataset(study, observations, suspiciousness)
    oracle_X = SimpleImputer(strategy="median").fit_transform(
        np.vstack(
            [
                device_feature_vector(ref, suspiciousness.get(ref.install_id))
                for ref in reference
            ]
        )
    )
    assert oracle_X.tobytes() == devices.X.tobytes()
    assert [int(ref.is_worker) for ref in reference] == devices.y.tolist()


@pytest.mark.parametrize("days", [1, 2, 5, 10])
def test_truncated_features_match_reference(study, reference, observations, days):
    clipped = [obs.truncated(days) for obs in observations]
    clipped_ref = [ref.truncated(days) for ref in reference]
    for ref, obs in zip(clipped_ref, clipped):
        assert _signature(ref) == _signature(obs), obs.install_id
        assert ref.active_days == obs.active_days
        packages = sorted(obs.observed_packages)
        if not packages:
            continue
        scalar = np.vstack(
            [
                app_feature_vector(ref, p, study.catalog, study.vt_client)
                for p in packages
            ]
        )
        batch = app_feature_matrix(obs, packages, study.catalog, study.vt_client)
        assert scalar.tobytes() == batch.tobytes(), (days, obs.install_id)
    scalar = np.vstack([device_feature_vector(ref, 0.5) for ref in clipped_ref])
    batch = device_feature_matrix(clipped, [0.5] * len(clipped))
    assert scalar.tobytes() == batch.tobytes()


# -- interleaved insert/query/ingest workloads -------------------------------
#
# The staged-write data plane defers columnarization and index
# maintenance until a read needs them, so the contract must hold not
# just for settled stores but at every point of an interleaved
# write/read sequence: each query below runs against the oracle and the
# production store mid-ingest and must return byte-identical documents.


def _paired_fast_run_collections(*indexed: str):
    pair = [Collection("fast_runs"), DocumentStore().collection("fast_runs")]
    for collection in pair:
        for fieldname in ("install_id", *indexed):
            collection.create_index(fieldname)
    return pair


def test_interleaved_batch_ingest_and_queries_identical():
    docs = _make_fast_run_docs(12, 6, 3)
    dict_col, columnar_col = _paired_fast_run_collections()
    queries = [
        {"install_id": "inst00003"},
        {"start": {"$gte": 120.0, "$lt": 600.0}},
        {"screen_on": True, "battery": {"$lt": 0.5}},
        {"foreground": {"$in": ["app1", "app2"]}},
        {"foreground": {"$exists": True}},
        {"install_id": "inst00007", "end": {"$gt": 200.0}},
    ]
    chunk = 9
    for lo in range(0, len(docs), chunk):
        batch = docs[lo : lo + chunk]
        assert dict_col.insert_many(batch) == columnar_col.insert_many(batch)
        assert len(dict_col) == len(columnar_col)
        for query in queries:
            assert dict_col.find(query) == columnar_col.find(query), query
            assert dict_col.count(query) == columnar_col.count(query), query
        assert dict_col.distinct("foreground") == columnar_col.distinct(
            "foreground"
        )
    assert dict_col.find() == columnar_col.find()


def test_single_inserts_interleaved_with_indexed_finds_identical():
    # Regression: single inserts must be visible to the very next
    # indexed find (the incremental index used to invalidate; the
    # staged path must merge before probing), byte-for-byte.
    docs = _make_fast_run_docs(6, 5, 5)
    dict_col, columnar_col = _paired_fast_run_collections()
    for i, doc in enumerate(docs):
        dict_col.insert(doc)
        columnar_col.insert(doc)
        query = {"install_id": doc["install_id"]}
        assert dict_col.find(query) == columnar_col.find(query)
        assert dict_col.find_one(query) == columnar_col.find_one(query)
        if i % 3 == 0:
            ranged = {
                "install_id": doc["install_id"],
                "start": {"$lte": doc["start"]},
            }
            assert dict_col.find(ranged) == columnar_col.find(ranged)
    assert dict_col.find() == columnar_col.find()


def _nan_start_docs(root_seed: int) -> list[dict]:
    """Fast runs with a few NaN ``start`` keys (JSON ingest accepts
    ``NaN``): ordering operators must skip them on every path."""
    docs = _make_fast_run_docs(10, 8, root_seed)
    for position in (3, 17, 41):
        docs[position] = {**docs[position], "start": float("nan")}
    return docs


@pytest.mark.parametrize(
    "root_seed, nan_starts",
    [
        pytest.param(0, False, id="0"),
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(4, True, id="nan-start-index"),
    ],
)
def test_randomized_interleaved_workload_equivalence(root_seed, nan_starts):
    # Property-style replay: a seeded random interleaving of
    # insert/insert_many/find/count/distinct against the oracle and the
    # production store.  The NaN case also range-indexes ``start``, so
    # range probes bisect a sorted run that NaN keys must stay out of.
    (seed,) = spawn_seeds(root_seed, 1)
    rng = np.random.default_rng(seed)
    if nan_starts:
        docs = _nan_start_docs(root_seed)
        dict_col, columnar_col = _paired_fast_run_collections("start")
    else:
        docs = _make_fast_run_docs(10, 8, root_seed)
        dict_col, columnar_col = _paired_fast_run_collections()
    install_ids = sorted({doc["install_id"] for doc in docs})
    i = 0
    while i < len(docs):
        choice = int(rng.integers(6))
        if choice == 0:
            n = int(rng.integers(1, 8))
            batch = docs[i : i + n]
            i += n
            assert dict_col.insert_many(batch) == columnar_col.insert_many(batch)
        elif choice == 1:
            dict_col.insert(docs[i])
            columnar_col.insert(docs[i])
            i += 1
        elif choice == 2:
            query = {"install_id": install_ids[int(rng.integers(len(install_ids)))]}
            assert dict_col.find(query) == columnar_col.find(query), query
        elif choice == 3:
            lo = float(rng.random()) * 900.0
            query = {"start": {"$gte": lo, "$lt": lo + 300.0}}
            assert dict_col.find(query) == columnar_col.find(query), query
        elif choice == 4:
            query = {"battery": {"$gte": float(rng.random())}}
            assert dict_col.count(query) == columnar_col.count(query), query
        else:
            assert dict_col.distinct("foreground") == columnar_col.distinct(
                "foreground"
            )
            assert dict_col.distinct(
                "screen_on", {"usage_permission": True}
            ) == columnar_col.distinct("screen_on", {"usage_permission": True})
    for lo in (0.0, 200.0, 450.0, 700.0):
        query = {"start": {"$gte": lo, "$lt": lo + 300.0}}
        assert dict_col.find(query) == columnar_col.find(query), query
    assert dict_col.find() == columnar_col.find()
    assert len(dict_col) == len(columnar_col)
