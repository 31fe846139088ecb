"""``python -m repro bench`` — speedup + determinism benchmark suites.

The ``ml`` suite times Table 1/Table 2-style workloads (repeated
stratified CV over the paper's algorithm suite, a per-tree-parallel
forest fit, and the KNN all-pairs predict) at ``n_jobs = 1`` versus
``n_jobs = max``, asserts that serial and parallel runs produce
byte-identical outputs (the DESIGN.md §8 contract), and writes the
measurements to ``BENCH_ml.json``.

The ``data`` suite times the production data plane (DESIGN.md §9)
against the reference oracle in :mod:`repro.reference` — ingest, the
Mongo-style query workloads, observation assembly, and batch vs scalar
feature extraction — asserts that both return the same documents in the
same order, the same observations and byte-identical feature matrices,
and writes ``BENCH_data.json``.

:func:`study_digest` hashes everything one simulated study produced
(DESIGN.md §12); the chaos gate and the tests compare runs with it.

``--smoke`` shrinks the workloads to CI size; it is the regression gate
that the executor and the columnar store still honour their determinism
contracts on every push.  Speedups are recorded, not asserted:
single-core runners legitimately measure ~1x on the ml suite.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from . import obs
from .ml import (
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    LVQClassifier,
    RandomForestClassifier,
    cross_validate,
)
from .ml.base import check_array
from .parallel import resolve_n_jobs, spawn_seeds

__all__ = [
    "run_bench",
    "run_data_bench",
    "run_lint_bench",
    "make_bench_dataset",
    "study_digest",
]


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def make_bench_dataset(
    n_samples: int, n_features: int, root_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic two-class task shaped like the app/device feature
    matrices (a few informative dimensions, the rest noise).

    Seeds are spawned from ``root_seed`` via ``SeedSequence`` — a fresh
    stream, independent of every existing consumer.
    """
    data_seed, label_seed = spawn_seeds(root_seed, 2)
    rng = np.random.default_rng(data_seed)
    y = (np.arange(n_samples) % 3 == 0).astype(np.int64)  # ~1:2 imbalance
    y = np.random.default_rng(label_seed).permutation(y)
    X = rng.normal(size=(n_samples, n_features))
    informative = max(2, n_features // 4)
    X[:, :informative] += 1.5 * y[:, None]
    return X, y


def _cv_suite(smoke: bool, random_state: int) -> dict[str, object]:
    """Table 1/2-style algorithm suite (trimmed in smoke mode)."""
    if smoke:
        return {
            "RF": RandomForestClassifier(n_estimators=24, random_state=random_state),
            "KNN": KNeighborsClassifier(n_neighbors=5),
            "LR": LogisticRegression(C=1.0),
        }
    return {
        "XGB": GradientBoostingClassifier(
            n_estimators=60, max_depth=3, learning_rate=0.15, random_state=random_state
        ),
        "RF": RandomForestClassifier(n_estimators=120, random_state=random_state),
        "LR": LogisticRegression(C=1.0),
        "KNN": KNeighborsClassifier(n_neighbors=5),
        "LVQ": LVQClassifier(prototypes_per_class=5, epochs=25, random_state=random_state),
    }


def _timed(fn, *args, **kwargs) -> tuple[object, float]:
    with obs.timer() as timed:
        result = fn(*args, **kwargs)
    return result, timed.elapsed


def _speedup(serial: float, parallel: float) -> float:
    return round(serial / parallel, 3) if parallel > 0 else 0.0


def _reference_knn_votes(model: KNeighborsClassifier, X: np.ndarray) -> np.ndarray:
    """The pre-vectorisation per-row vote loop, kept as the before/after
    baseline for the KNN benchmark and its equality check."""
    Z = (check_array(X) - model._mu) / model._sigma
    k = min(model.n_neighbors, model._train.shape[0])
    votes = np.zeros((Z.shape[0], len(model.classes_)), dtype=np.float64)
    chunk = max(1, 2_000_000 // max(1, model._train.shape[0]))
    for start in range(0, Z.shape[0], chunk):
        block = Z[start : start + chunk]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ model._train.T
            + np.sum(model._train**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        for i, row in enumerate(nearest):
            if model.weights == "distance":
                w = 1.0 / (np.sqrt(d2[i, row]) + 1e-12)
            else:
                w = np.ones(k)
            np.add.at(votes[start + i], model._encoded[row], w)
    return votes


def run_bench(
    seed: int = 0,
    n_jobs: int | None = None,
    smoke: bool = False,
    out: str = "BENCH_ml.json",
) -> int:
    """Run the benchmark; returns a non-zero exit code if any serial vs
    parallel output mismatch is detected."""
    n_samples, n_features, n_splits = (240, 10, 5) if smoke else (600, 16, 10)
    max_jobs = resolve_n_jobs(n_jobs if n_jobs is not None else (2 if smoke else 0))
    X, y = make_bench_dataset(n_samples, n_features, seed)
    failures: list[str] = []
    payload: dict = {
        "machine": _machine_info(),
        "smoke": smoke,
        "seed": seed,
        "n_jobs": max_jobs,
        "dataset": {"n_samples": n_samples, "n_features": n_features},
        "cv": [],
    }

    print(f"bench: {n_samples}x{n_features} dataset, n_jobs 1 vs {max_jobs}")
    for name, estimator in _cv_suite(smoke, random_state=seed).items():
        serial, t_serial = _timed(
            cross_validate, estimator, X, y,
            n_splits=n_splits, random_state=seed, name=name, n_jobs=1,
        )
        parallel, t_parallel = _timed(
            cross_validate, estimator, X, y,
            n_splits=n_splits, random_state=seed, name=name, n_jobs=max_jobs,
        )
        equal = serial.summary() == parallel.summary()
        if not equal:
            failures.append(f"cv[{name}]: serial and parallel summaries differ")
        payload["cv"].append(
            {
                "model": name,
                "fit_seconds_serial": round(t_serial, 4),
                "fit_seconds_parallel": round(t_parallel, 4),
                "speedup": _speedup(t_serial, t_parallel),
                "outputs_equal": equal,
            }
        )
        print(
            f"  cv {name:>4}: {t_serial:7.3f}s -> {t_parallel:7.3f}s "
            f"({_speedup(t_serial, t_parallel)}x, equal={equal})"
        )

    # Per-tree forest parallelism: importances must merge in tree order.
    n_trees = 40 if smoke else 150
    f_serial, t_serial = _timed(
        RandomForestClassifier(n_estimators=n_trees, random_state=seed, n_jobs=1).fit,
        X, y,
    )
    f_parallel, t_parallel = _timed(
        RandomForestClassifier(
            n_estimators=n_trees, random_state=seed, n_jobs=max_jobs
        ).fit,
        X, y,
    )
    forest_equal = bool(
        np.array_equal(f_serial.feature_importances_, f_parallel.feature_importances_)
        and f_serial.oob_score() == f_parallel.oob_score()
    )
    if not forest_equal:
        failures.append("forest: importances or OOB score differ across n_jobs")
    payload["forest"] = {
        "n_estimators": n_trees,
        "fit_seconds_serial": round(t_serial, 4),
        "fit_seconds_parallel": round(t_parallel, 4),
        "speedup": _speedup(t_serial, t_parallel),
        "outputs_equal": forest_equal,
    }
    print(
        f"  forest ({n_trees} trees): {t_serial:.3f}s -> {t_parallel:.3f}s "
        f"({payload['forest']['speedup']}x, equal={forest_equal})"
    )

    # KNN predict: vectorised all-pairs scatter vs the old per-row loop.
    knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
    loop_votes, t_loop = _timed(_reference_knn_votes, knn, X)
    fast_votes, t_fast = _timed(knn._neighbor_votes, X)
    knn_equal = bool(np.array_equal(loop_votes, fast_votes))
    if not knn_equal:
        failures.append("knn: vectorised votes differ from the per-row loop")
    payload["knn"] = {
        "rows": n_samples,
        "loop_seconds": round(t_loop, 4),
        "vectorized_seconds": round(t_fast, 4),
        "speedup": _speedup(t_loop, t_fast),
        "outputs_equal": knn_equal,
    }
    print(
        f"  knn predict: loop {t_loop:.3f}s -> vectorised {t_fast:.3f}s "
        f"({payload['knn']['speedup']}x, equal={knn_equal})"
    )

    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- lint suite (DESIGN.md §10) ----------------------------------------------


def run_lint_bench(
    n_jobs: int | None = None,
    smoke: bool = False,
    out: str = "BENCH_lint.json",
    paths: list[str] | None = None,
) -> int:
    """Benchmark the statan two-phase analysis, serial vs fanned out.

    Asserts the determinism contract: the full finding list (rules,
    positions, messages, fingerprints) must be byte-identical at any
    worker count.  Returns non-zero on mismatch.  Speedups are recorded,
    not asserted — single-core runners legitimately measure ~1x.
    """
    import os.path

    from .statan.engine import analyze_tree

    if paths is None:
        paths = ["src"] if os.path.isdir("src") else ["."]
    max_jobs = resolve_n_jobs(n_jobs if n_jobs is not None else (2 if smoke else 0))
    rounds = 1 if smoke else 3
    failures: list[str] = []

    def run_once(jobs: int):
        result = None
        for _ in range(rounds):
            result = analyze_tree(paths, n_jobs=jobs)
        return result

    (serial_findings, stats), t_serial = _timed(run_once, 1)
    (parallel_findings, _), t_parallel = _timed(run_once, max_jobs)

    serial_bytes = json.dumps([f.to_json() for f in serial_findings])
    parallel_bytes = json.dumps([f.to_json() for f in parallel_findings])
    equal = serial_bytes == parallel_bytes
    if not equal:
        failures.append("lint: findings differ between serial and parallel runs")

    payload = {
        "machine": _machine_info(),
        "smoke": smoke,
        "n_jobs": max_jobs,
        "rounds": rounds,
        "paths": paths,
        "stats": stats,
        "findings": len(serial_findings),
        "by_rule": {
            rule: sum(1 for f in serial_findings if f.rule == rule)
            for rule in sorted({f.rule for f in serial_findings})
        },
        "lint_seconds_serial": round(t_serial, 4),
        "lint_seconds_parallel": round(t_parallel, 4),
        "speedup": _speedup(t_serial, t_parallel),
        "outputs_equal": equal,
    }
    print(
        f"bench lint: {stats.get('files', 0)} files x{rounds}: "
        f"{t_serial:.3f}s -> {t_parallel:.3f}s at n_jobs {max_jobs} "
        f"({payload['speedup']}x, equal={equal})"
    )
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- data-plane suite (DESIGN.md §9, §11) ------------------------------------


def _make_fast_run_docs(
    n_installs: int, runs_per_install: int, root_seed: int
) -> list[dict]:
    """Deterministic fast-run payloads shaped like the wire records."""
    (seed,) = spawn_seeds(root_seed, 1)
    rng = np.random.default_rng(seed)
    docs: list[dict] = []
    for i in range(n_installs):
        install_id = f"inst{i:05d}"
        for r in range(runs_per_install):
            start = float(r) * 120.0 + float(rng.random())
            docs.append(
                {
                    "install_id": install_id,
                    "participant_id": str(100_000 + i),
                    "start": start,
                    "end": start + 100.0,
                    "period": 5.0,
                    "foreground": (
                        None
                        if rng.random() < 0.3
                        else f"app{int(rng.integers(50))}"
                    ),
                    "screen_on": bool(rng.random() < 0.5),
                    "battery": float(rng.random()),
                    "usage_permission": True,
                    "_type": "fast_run",
                }
            )
    return docs


def _data_bench_stores(docs: list[dict], repeats: int = 3):
    """The oracle's dict ``fast_runs`` collection and the production
    columnar one, both indexed on install_id, plus their insert_many
    timings.

    Each side ingests into a fresh collection ``repeats`` times and
    keeps the best wall time — the usual guard against scheduler noise
    for a single-shot measurement; the last build is the one handed
    back for the query workloads."""
    from .platform.store import DocumentStore
    from .reference import Collection

    factories = {
        "dict": Collection,
        "columnar": lambda name: DocumentStore().collection(name),
    }
    collections = {}
    timings = {}
    for side, make in factories.items():
        best = float("inf")
        for _ in range(repeats):
            collection = make("fast_runs")
            collection.create_index("install_id")
            _, elapsed = _timed(collection.insert_many, docs)
            best = min(best, elapsed)
        collections[side] = collection
        timings[side] = best
    return collections["dict"], collections["columnar"], timings


def _query_workloads(docs: list[dict], n_installs: int) -> list[tuple[str, str, object]]:
    """(label, method, argument) triples covering the query language."""
    mid = docs[len(docs) // 2]["start"]
    return [
        ("equality_indexed", "find", {"install_id": f"inst{(n_installs // 2):05d}"}),
        ("range_scan", "find", {"start": {"$gte": mid, "$lt": mid + 4000.0}}),
        ("in_scan", "find", {"foreground": {"$in": ["app1", "app7", "app13"]}}),
        ("exists_scan", "count", {"foreground": {"$exists": True}}),
        ("count_eq", "count", {"screen_on": True}),
        ("distinct", "distinct", "foreground"),
    ]


def _observation_signature(obs) -> tuple:
    """Everything one observation carries, normalized to plain python
    containers so reference and production observations compare
    structurally (FrameRow/ColumnRun views materialize to dicts)."""
    return (
        obs.install_id,
        dict(obs.initial) if obs.initial else None,
        [dict(run) for run in obs.slow_runs],
        [dict(run) for run in obs.fast_runs],
        [dict(event) for event in obs.app_changes],
        sorted(obs.google_ids),
        [(package, reviews) for package, reviews in obs.device_reviews.items()],
        obs.all_account_reviews,
        obs.total_snapshots,
        obs.foreground_snapshots,
        obs.install_event_counts,
        obs.reported_accounts,
    )


def _check_baseline(payload: dict, baseline_path: str, failures: list[str]) -> dict:
    """Compare measured speedups against ``bench-baseline.json`` floors.

    Fails (appends to ``failures``) when a tracked workload's speedup
    drops below its recorded floor minus the shared tolerance.  Ratios
    are machine-portable where absolute seconds are not, which is what
    makes this usable as a CI gate on 1-core runners.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    tolerance = float(baseline.get("tolerance", 0.25))
    measured: dict[str, float | None] = {
        "ingest": payload["ingest"].get("speedup"),
        "observations": payload["observations"].get("speedup"),
        "app_features": payload["app_features"].get("speedup"),
        "device_features": payload["device_features"].get("speedup"),
    }
    for entry in payload["queries"]:
        measured[entry["workload"]] = entry.get("speedup")
    checks: dict[str, dict] = {}
    for name, floor in sorted(baseline.get("min_speedups", {}).items()):
        value = measured.get(name)
        ok = value is not None and value >= floor - tolerance
        checks[name] = {"floor": floor, "measured": value, "ok": ok}
        if not ok:
            failures.append(
                f"baseline[{name}]: speedup {value} below floor {floor} "
                f"- tolerance {tolerance}"
            )
    return {"path": baseline_path, "tolerance": tolerance, "checks": checks}


def run_data_bench(
    seed: int = 0,
    smoke: bool = False,
    out: str = "BENCH_data.json",
    baseline: str | None = None,
) -> int:
    """Benchmark the production data plane against the reference oracle.

    Returns non-zero if production and oracle disagree on stored
    documents, query results or assembled observations, if any batch
    feature matrix differs from the scalar oracle by a byte, or (smoke
    mode, with ``bench-baseline.json`` present) a tracked speedup
    regresses below its committed floor.
    """
    from .core.app_features import app_feature_matrix
    from .core.device_features import device_feature_matrix
    from .core.observations import build_observations
    from .reference import (
        app_feature_vector,
        device_feature_vector,
        reference_observations,
        replay_server,
    )
    from .simulation.config import SimulationConfig
    from .simulation.world import run_study

    n_installs, runs_per_install, query_rounds = (
        (40, 12, 3) if smoke else (200, 50, 10)
    )
    failures: list[str] = []
    payload: dict = {
        "command": f"python -m repro --seed {seed} bench data"
        + (" --smoke" if smoke else ""),
        "machine": _machine_info(),
        "smoke": smoke,
        "seed": seed,
        "queries": [],
    }

    # 1. Ingest: insert_many into an indexed collection, oracle vs
    # production.
    docs = _make_fast_run_docs(n_installs, runs_per_install, seed)
    dict_col, columnar_col, ingest = _data_bench_stores(docs)
    ingest_equal = dict_col.find() == columnar_col.find()
    if not ingest_equal:
        failures.append("ingest: production disagrees with the oracle")
    payload["ingest"] = {
        "documents": len(docs),
        "dict_seconds": round(ingest["dict"], 4),
        "columnar_seconds": round(ingest["columnar"], 4),
        "speedup": _speedup(ingest["dict"], ingest["columnar"]),
        "outputs_equal": ingest_equal,
    }
    print(
        f"bench data: ingest {len(docs)} docs: dict {ingest['dict']:.3f}s, "
        f"columnar {ingest['columnar']:.3f}s "
        f"({payload['ingest']['speedup']}x, equal={ingest_equal})"
    )

    # 2. Query workloads: same operator language on both stores; the
    # contract is same documents, same order.
    for label, method, argument in _query_workloads(docs, n_installs):
        def run_workload(collection):
            result = None
            for _ in range(query_rounds):
                result = getattr(collection, method)(argument)
            return result

        dict_result, t_dict = _timed(run_workload, dict_col)
        columnar_result, t_columnar = _timed(run_workload, columnar_col)
        equal = dict_result == columnar_result
        if not equal:
            failures.append(f"query[{label}]: production disagrees with the oracle")
        payload["queries"].append(
            {
                "workload": label,
                "rounds": query_rounds,
                "dict_seconds": round(t_dict, 4),
                "columnar_seconds": round(t_columnar, 4),
                "speedup": _speedup(t_dict, t_columnar),
                "outputs_equal": equal,
            }
        )
        print(
            f"  query {label:>16}: dict {t_dict:7.3f}s -> columnar "
            f"{t_columnar:7.3f}s ({_speedup(t_dict, t_columnar)}x, equal={equal})"
        )

    # 3. End-to-end: simulate once, replay the store into the oracle's
    # dict collections, then time observation assembly (per-install
    # indexed queries vs one-pass frame partitions).
    config = SimulationConfig.small() if smoke else SimulationConfig()
    data = run_study(config.scaled(seed=config.seed + seed))
    participants = data.eligible_participants(min_days=2)
    replay = replay_server(data.server)
    obs_dict, t_dict = _timed(reference_observations, data, participants, replay)
    obs_columnar, t_columnar = _timed(build_observations, data, participants)
    obs_equal = [_observation_signature(o) for o in obs_dict] == [
        _observation_signature(o) for o in obs_columnar
    ]
    if not obs_equal:
        failures.append("observations: production disagrees with the oracle")
    payload["observations"] = {
        "devices": len(obs_columnar),
        "dict_seconds": round(t_dict, 4),
        "columnar_seconds": round(t_columnar, 4),
        "speedup": _speedup(t_dict, t_columnar),
        "outputs_equal": obs_equal,
    }
    print(
        f"  observations ({len(obs_columnar)} devices): dict {t_dict:.3f}s -> "
        f"columnar {t_columnar:.3f}s "
        f"({payload['observations']['speedup']}x, equal={obs_equal})"
    )

    # 4. Feature extraction: the oracle's scalar per-(app, device) loops
    # vs batch column slices, over the same observations.  Must be
    # byte-identical (DESIGN.md §9).  Warm the VT cache first so neither
    # timed path pays the one-time scan cost.
    packages_per_obs = [
        (obs, sorted(obs.observed_packages)) for obs in obs_columnar
    ]
    for obs_, packages in packages_per_obs:
        app_feature_matrix(obs_, packages, data.catalog, data.vt_client)

    def scalar_app_pass():
        return [
            np.vstack(
                [
                    app_feature_vector(obs_, p, data.catalog, data.vt_client)
                    for p in packages
                ]
            )
            for obs_, packages in packages_per_obs
            if packages
        ]

    def batch_app_pass():
        return [
            app_feature_matrix(obs_, packages, data.catalog, data.vt_client)
            for obs_, packages in packages_per_obs
            if packages
        ]

    scalar_blocks, t_scalar = _timed(scalar_app_pass)
    batch_blocks, t_batch = _timed(batch_app_pass)
    n_rows = int(sum(len(block) for block in batch_blocks))
    app_equal = all(
        s.tobytes() == b.tobytes() for s, b in zip(scalar_blocks, batch_blocks)
    )
    if not app_equal:
        failures.append("features[app]: batch matrix differs from scalar rows")
    payload["app_features"] = {
        "rows": n_rows,
        "scalar_seconds": round(t_scalar, 4),
        "batch_seconds": round(t_batch, 4),
        "speedup": _speedup(t_scalar, t_batch),
        "outputs_equal": app_equal,
    }
    print(
        f"  app features ({n_rows} rows): scalar {t_scalar:.3f}s -> batch "
        f"{t_batch:.3f}s ({payload['app_features']['speedup']}x, equal={app_equal})"
    )

    def scalar_device_pass():
        return np.vstack([device_feature_vector(o, None) for o in obs_columnar])

    scalar_device, t_scalar = _timed(scalar_device_pass)
    batch_device, t_batch = _timed(device_feature_matrix, obs_columnar)
    device_equal = scalar_device.tobytes() == batch_device.tobytes()
    if not device_equal:
        failures.append("features[device]: batch matrix differs from scalar rows")
    payload["device_features"] = {
        "rows": len(obs_columnar),
        "scalar_seconds": round(t_scalar, 4),
        "batch_seconds": round(t_batch, 4),
        "speedup": _speedup(t_scalar, t_batch),
        "outputs_equal": device_equal,
    }
    print(
        f"  device features ({len(obs_columnar)} rows): scalar {t_scalar:.3f}s "
        f"-> batch {t_batch:.3f}s "
        f"({payload['device_features']['speedup']}x, equal={device_equal})"
    )

    # 5. Regression gate: in smoke mode (CI) compare speedups against
    # the committed floors; a missing baseline file skips the gate so
    # ad-hoc runs from other directories still work.
    if baseline is None and smoke:
        baseline = "bench-baseline.json"
    if baseline and os.path.exists(baseline):
        payload["baseline"] = _check_baseline(payload, baseline, failures)
        gate_ok = all(c["ok"] for c in payload["baseline"]["checks"].values())
        print(f"  baseline gate ({baseline}): {'ok' if gate_ok else 'FAIL'}")
    elif baseline:
        print(f"  baseline gate skipped: {baseline} not found")

    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {out}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- study identity (DESIGN.md §12) -------------------------------------------


def study_digest(data) -> str:
    """SHA-256 over everything one study run produced.

    Covers the server store, the crawled review corpus, per-participant
    device state (events, sessions, installed set, app install ids), the
    campaign board delivery totals, and the rank-tracker series — the
    byte-identity contract of the two-phase engine.  Device ids are
    normalized positionally: they come from a process-global counter, so
    their absolute values differ between *any* two runs in one process,
    independent of worker count.

    Store records are hashed in *canonical* (sorted serialized) order
    per collection, not arrival order: the exactly-once ingest contract
    says faults may move *when* a chunk lands (retries, next-day
    redelivery), never *what* the study contains, so the digest must be
    insensitive to ingest timing while still pinning the full record
    multiset.
    """
    import hashlib

    h = hashlib.sha256()
    device_alias: dict[str, str] = {}
    for participant in data.participants:
        device_alias.setdefault(
            participant.device.device_id, f"dev#{len(device_alias)}"
        )
    for name in sorted(data.server.store.collection_names()):
        for line in sorted(
            json.dumps(record, sort_keys=True, default=str)
            for record in data.server.store[name].find()
        ):
            h.update(line.encode())
    for package in sorted(data.review_crawler.tracked_apps()):
        for review in data.review_store.reviews_for_app(package):
            h.update(
                repr(
                    (review.app_package, review.google_id, review.rating,
                     review.timestamp)
                ).encode()
            )
    for participant in data.participants:
        device = participant.device
        h.update(
            repr(
                (
                    participant.participant_id,
                    device_alias[device.device_id],
                    participant.app.install_id,
                    participant.app.installed_at,
                    participant.app.uninstalled_at,
                    sorted(device.installed),
                    device.battery_level,
                )
            ).encode()
        )
        for event in device.events:
            h.update(
                repr((event.timestamp, int(event.event_type), event.package)).encode()
            )
        for session in device.sessions:
            h.update(repr((session.start, session.end, session.package)).encode())
    for campaign in data.board.campaigns():
        h.update(
            repr(
                (campaign.app_package, campaign.delivered_installs,
                 campaign.delivered_reviews)
            ).encode()
        )
    if data.rank_tracker is not None:
        for package, keyword in data.rank_tracker.tracked():
            for sample in data.rank_tracker.series(package, keyword):
                h.update(
                    repr(
                        (package, keyword, sample.day, sample.rank,
                         sample.install_count, sample.review_count)
                    ).encode()
                )
    return h.hexdigest()
