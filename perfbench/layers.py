"""Which public functions the traced run wraps, and the per-layer metrics.

Span names here are the benchmark's own; ``metrics()`` maps them to the
metric names listed in ``BENCHMARK.json``.  Every traced run reports
every per-layer metric: a layer that does no work on a workload reports
0, which is the prediction for any change to that layer there.
"""

from __future__ import annotations

from . import spans as sp

APP_MODELS = ("XGB", "RF", "LR", "KNN", "LVQ")
DEVICE_MODELS = ("XGB", "RF", "SVM", "KNN", "LVQ")

#: Measurement reports read by the ingest workload, classifier reports
#: run by the detect workload (``fig13`` is timed on its own).
MEASUREMENT_REPORTS = (
    "fig00", "fig01", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "table3",
)
CLASSIFIER_REPORTS = ("table1", "fig13", "table2", "fig14", "fig15")

STORE_QUERIES = ("find", "find_one", "count", "distinct", "find_views")


def _rows_returned(span, args, kwargs, result) -> None:
    if isinstance(result, list):
        rows = len(result)
    elif isinstance(result, dict):
        rows = 1
    else:  # count() returns a number, find_one() may return None
        rows = 0
    sp.set_attr(span, "rows", rows)


def _rows_inserted(span, args, kwargs, result) -> None:
    sp.set_attr(span, "rows", int(result))


def _matrix_rows(span, args, kwargs, result) -> None:
    sp.set_attr(span, "rows", int(result.shape[0]))


def install(tracer: sp.Tracer) -> None:
    """Wrap each layer's public entry points (parent process only)."""
    from repro.core import app_classifier, datasets, device_classifier, pipeline
    from repro.experiments import common
    from repro.parallel.executor import ProcessExecutor
    from repro.platform.server import RacketStoreServer
    from repro.platform.store import ColumnarCollection, DocumentStore
    from repro.playstore.rank_tracker import RankTracker
    from repro.playstore.reviews import ReviewCrawler
    from repro.simulation import world

    wrap = tracer.wrap
    # simulation/ — the names world.py resolves at call time.
    wrap(world, "build_world", "simulation.build_world")
    wrap(world, "parallel_map", "simulation.phase1")
    wrap(world, "commit_day", "simulation.commit")
    wrap(RankTracker, "record_day", "playstore.rank")
    wrap(ReviewCrawler, "crawl_round", "playstore.crawl")
    # platform/ and store
    wrap(RacketStoreServer, "receive_chunk", "platform.receive")
    wrap(DocumentStore, "compact", "store.compact")
    # The default columnar backend's collections.
    wrap(ColumnarCollection, "insert_many", "store.insert", _rows_inserted)
    wrap(ColumnarCollection, "mark", "store.mark")
    for method in STORE_QUERIES:
        wrap(ColumnarCollection, method, "store.query", _rows_returned)
    # parallel/: pools, tasks and pickled bytes each way.
    _wrap_process_map(tracer, ProcessExecutor)
    # core/ features and datasets
    for module in (common, pipeline):
        wrap(module, "build_observations", "core.observations")
    wrap(datasets, "label_apps", "core.labeling")
    for module in (datasets, pipeline):
        wrap(module, "app_feature_matrix", "core.app_features", _matrix_rows)
        wrap(module, "device_feature_matrix", "core.device_features")
    wrap(pipeline.DetectionPipeline, "score_devices", "core.score_devices")
    # ml/: CV per model; the evaluate span minus its CV spans is the
    # importance forest fitted after the CV loop.
    wrap(app_classifier, "cross_validate", _cv_name("app"))
    wrap(device_classifier, "cross_validate", _cv_name("device"))
    wrap(pipeline, "evaluate_app_algorithms", "ml.evaluate")
    wrap(pipeline, "evaluate_device_algorithms", "ml.evaluate")


def _cv_name(target: str):
    def name(args, kwargs) -> str:
        return f"ml.cv.{target}.{kwargs.get('name', '?')}"

    return name


def _wrap_process_map(tracer: sp.Tracer, cls) -> None:
    original = cls.__dict__["map"]

    def counted_map(executor, fn, tasks):
        if not tracer.active:
            return original(executor, fn, tasks)
        tasks = list(tasks)
        span = tracer.open("parallel.map")
        try:
            results = original(executor, fn, tasks)
        finally:
            tracer.close(span)
        with tracer.span(sp.PROBE):
            sp.set_attr(span, "tasks", len(tasks))
            sp.set_attr(span, "task_bytes", sum(sp.pickled_size((fn, t)) for t in tasks))
            sp.set_attr(span, "result_bytes", sum(sp.pickled_size(r) for r in results))
        return results

    tracer.patch(cls, "map", counted_map)


def _attr_sum(tracer: sp.Tracer, name: str, key: str) -> int:
    return sum(
        (s.attrs or {}).get(key, 0) for s in tracer.spans if s.name == name
    )


def metrics(
    tracer: sp.Tracer,
    *,
    workload: str,
    fallbacks: int,
    registry,
    servers,
    untraced_wall_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration (root span first)."""
    agg = sp.aggregate(tracer.spans)

    def total(name: str) -> float:
        return agg.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(agg.get(name, {}).get("calls", 0))

    root = tracer.spans[0]
    if root.name != sp.ROOT:
        raise RuntimeError("the traced run must open the workload span first")
    traced_wall = root.duration
    residual = own(sp.ROOT)

    receives = [s for s in tracer.spans if s.name == "platform.receive"]
    stored = _sends_that_stored(tracer, receives)
    fit_hists = registry.series("ml_fit_seconds")

    out: dict[str, tuple[float, str]] = {
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.residual_s": (residual, "s"),
        "bench.probe_s": (total(sp.PROBE), "s"),
        "bench.trace_overhead": (traced_wall / untraced_wall_s, "ratio"),
        "simulation.build_world_s": (total("simulation.build_world"), "s"),
        "simulation.phase1_s": (total("simulation.phase1"), "s"),
        "simulation.commit_self_s": (own("simulation.commit"), "s"),
        "simulation.other_s": (residual if workload == "study" else 0.0, "s"),
        "platform.ingest_s": (total("platform.receive"), "s"),
        "platform.ingest_calls": (calls("platform.receive"), "count"),
        "platform.receive_self_s": (own("platform.receive"), "s"),
        "platform.duplicate_acks": (
            sum(server.stats.duplicate_chunks for server in servers), "count"
        ),
        "platform.first_delivery_ratio": (
            stored / len(receives) if receives else 0.0, "ratio"
        ),
        "platform.dashboard_s": (total("platform.dashboard"), "s"),
        "playstore.rank_s": (total("playstore.rank"), "s"),
        "playstore.crawl_s": (total("playstore.crawl"), "s"),
        "store.compact_s": (total("store.compact"), "s"),
        "store.insert_s": (total("store.insert"), "s"),
        "store.insert_calls": (calls("store.insert"), "count"),
        "store.rows_inserted": (_attr_sum(tracer, "store.insert", "rows"), "count"),
        "store.mark_s": (total("store.mark"), "s"),
        "store.query_s": (total("store.query"), "s"),
        "store.query_calls": (calls("store.query"), "count"),
        "store.rows_returned": (_attr_sum(tracer, "store.query", "rows"), "count"),
        "parallel.pools": (calls("parallel.map"), "count"),
        "parallel.tasks": (_attr_sum(tracer, "parallel.map", "tasks"), "count"),
        "parallel.task_bytes": (_attr_sum(tracer, "parallel.map", "task_bytes"), "bytes"),
        "parallel.result_bytes": (
            _attr_sum(tracer, "parallel.map", "result_bytes"), "bytes"
        ),
        "parallel.serial_fallbacks": (fallbacks, "count"),
        "core.observations_s": (total("core.observations"), "s"),
        "core.labeling_s": (total("core.labeling"), "s"),
        "core.app_features_s": (total("core.app_features"), "s"),
        "core.app_feature_rows": (
            _attr_sum(tracer, "core.app_features", "rows"), "count"
        ),
        "core.device_features_s": (total("core.device_features"), "s"),
        "core.score_devices_s": (total("core.score_devices"), "s"),
        "ml.importances_s": (
            total("ml.evaluate")
            - sum(v["total_s"] for k, v in agg.items() if k.startswith("ml.cv.")),
            "s",
        ),
        "ml.fits": (sum(h.count for h in fit_hists), "count"),
        "ml.fit_s": (sum(h.sum for h in fit_hists), "s"),
        "experiments.measure_s": (total("experiments.measure"), "s"),
        "experiments.fig13_s": (total("experiments.fig13"), "s"),
        "experiments.classifier_reports_s": (
            total("experiments.classifier_reports"), "s"
        ),
    }
    for model in APP_MODELS:
        out[f"ml.cv.app.{model}_s"] = (total(f"ml.cv.app.{model}"), "s")
    for model in DEVICE_MODELS:
        out[f"ml.cv.device.{model}_s"] = (total(f"ml.cv.device.{model}"), "s")
    return out


def _sends_that_stored(tracer: sp.Tracer, receives) -> int:
    """Receive spans with at least one non-empty insert directly inside."""
    receive_ids = {s.id for s in receives}
    stored: set[int] = set()
    for span in tracer.spans:
        if (
            span.name == "store.insert"
            and span.parent in receive_ids
            and (span.attrs or {}).get("rows", 0) > 0
        ):
            stored.add(span.parent)
    return len(stored)
