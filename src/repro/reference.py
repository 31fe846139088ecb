"""Frozen reference oracle for the data plane.

The production store (:class:`~repro.platform.store.ColumnarCollection`),
observation assembly (:func:`~repro.core.observations.build_observations`)
and featurisation (:func:`~repro.core.app_features.app_feature_matrix`,
:func:`~repro.core.device_features.device_feature_matrix`) are each one
optimised path.  This module keeps the straightforward form of all
three — one python dict per document with per-document query matching,
row-by-row observation accessors over per-install ``find`` + ``sort``
queries, and per-(app, device) feature dicts — so the equivalence tests
and ``python -m repro bench data`` can hold production to exact
equality: same documents in the same order, same observations, and
feature matrices equal by ``tobytes()``.

Test oracle only: no production module imports it
(``tests/test_reference_boundary.py`` enforces that).
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property
from typing import Any, Callable, Iterator

import numpy as np

from .core.app_features import APP_FEATURE_NAMES, NEVER_REVIEWED_SENTINEL_DAYS
from .core.device_features import DEVICE_FEATURE_NAMES
from .core.observations import DeviceObservation, _join_crawls
from .platform.server import RacketStoreServer
from .playstore.catalog import Catalog
from .simulation.clock import SECONDS_PER_DAY
from .simulation.world import Participant, StudyData
from .virustotal.client import VirusTotalClient

__all__ = [
    "Collection",
    "ReferenceStore",
    "ReferenceObservation",
    "replay_server",
    "reference_observations",
    "extract_app_features",
    "app_feature_vector",
    "extract_device_features",
    "device_feature_vector",
]


# -- store: one dict per document ------------------------------------------

#: Sentinel distinguishing "key absent" from an explicit ``None`` value,
#: so ``$exists`` tests presence while every other operator keeps the
#: historical reads-as-None behaviour for missing keys.
_MISSING = object()


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda value, operand: value == operand,
    "$ne": lambda value, operand: value != operand,
    "$gt": lambda value, operand: value is not None and value > operand,
    "$gte": lambda value, operand: value is not None and value >= operand,
    "$lt": lambda value, operand: value is not None and value < operand,
    "$lte": lambda value, operand: value is not None and value <= operand,
    "$in": lambda value, operand: value in operand,
    "$exists": lambda value, operand: (value is not _MISSING) == bool(operand),
}


def _matches(document, query: dict) -> bool:
    for fieldname, condition in query.items():
        raw = document.get(fieldname, _MISSING)
        value = None if raw is _MISSING else raw
        if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
            for op, operand in condition.items():
                handler = _OPERATORS.get(op)
                if handler is None:
                    raise ValueError(f"unknown query operator {op!r}")
                if not handler(raw if op == "$exists" else value, operand):
                    return False
        elif value != condition:
            return False
    return True


class Collection:
    """One named collection of dict documents, matched one by one."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._documents: list[dict] = []
        self._indexes: dict[str, dict[Any, list[int]]] = {}

    def __len__(self) -> int:
        return len(self._documents)

    def insert(self, document: dict) -> None:
        if not isinstance(document, dict):
            raise TypeError("documents must be dicts")
        position = len(self._documents)
        self._documents.append(document)
        for fieldname, index in self._indexes.items():
            index[document.get(fieldname)].append(position)

    def insert_many(self, documents) -> int:
        count = 0
        for document in documents:
            self.insert(document)
            count += 1
        return count

    def create_index(self, fieldname: str) -> None:
        if fieldname in self._indexes:
            return
        index: dict[Any, list[int]] = defaultdict(list)
        for position, document in enumerate(self._documents):
            index[document.get(fieldname)].append(position)
        self._indexes[fieldname] = index

    # -- transactional marks -------------------------------------------
    def mark(self) -> int:
        """Watermark for :meth:`rollback_to` (current document count)."""
        return len(self._documents)

    def rollback_to(self, mark: int) -> None:
        """Undo every insert since ``mark`` (atomic chunk commit: a
        receive that fails mid-insert must not leave partial state).
        Index buckets append positions in insertion order, so the
        entries to drop are exactly each bucket's tail."""
        while len(self._documents) > mark:
            document = self._documents.pop()
            for fieldname, index in self._indexes.items():
                bucket = index.get(document.get(fieldname))
                if bucket:
                    bucket.pop()

    def _candidates(self, query: dict) -> Iterator[dict]:
        # Use an index when the query has an equality match on an
        # indexed field; otherwise scan.
        for fieldname, index in self._indexes.items():
            condition = query.get(fieldname)
            if condition is not None and not isinstance(condition, dict):
                for position in index.get(condition, ()):
                    yield self._documents[position]
                return
        yield from self._documents

    def find(self, query: dict | None = None) -> list[dict]:
        query = query or {}
        return [doc for doc in self._candidates(query) if _matches(doc, query)]

    def find_one(self, query: dict | None = None) -> dict | None:
        query = query or {}
        for doc in self._candidates(query):
            if _matches(doc, query):
                return doc
        return None

    def count(self, query: dict | None = None) -> int:
        if not query:
            return len(self._documents)
        return sum(1 for doc in self._candidates(query) if _matches(doc, query))

    def distinct(self, fieldname: str, query: dict | None = None) -> list:
        query = query or {}
        seen: set = set()
        for doc in self._candidates(query):
            if not _matches(doc, query):
                continue
            value = doc.get(fieldname)
            if isinstance(value, (list, tuple)):
                seen.update(value)
            else:
                seen.add(value)
        seen.discard(None)
        return sorted(seen, key=repr)


class ReferenceStore:
    """A set of named :class:`Collection` objects with the
    :class:`~repro.platform.store.DocumentStore` interface."""

    def __init__(self) -> None:
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def compact(self) -> None:
        """Nothing is staged, so there is nothing to merge."""

    def total_documents(self) -> int:
        return sum(len(c) for c in self._collections.values())


def replay_server(server: RacketStoreServer) -> RacketStoreServer:
    """A server over a :class:`ReferenceStore` holding a dict copy of
    every document in ``server``'s store, in insertion order, with the
    server's own ``install_id`` indexes."""
    replay = RacketStoreServer(ReferenceStore())
    for name in server.store.collection_names():
        replay.store[name].insert_many(
            [dict(document) for document in server.store[name].find()]
        )
    return replay


# -- observations: row-by-row accessors ------------------------------------


def _snapshot_total(runs) -> int:
    return sum(1 + int((r["end"] - r["start"]) // r["period"]) for r in runs)


class ReferenceObservation(DeviceObservation):
    """A :class:`DeviceObservation` over plain dict lists whose derived
    accessors walk the rows one by one."""

    @cached_property
    def reported_accounts(self) -> tuple[tuple[str, str], ...]:
        for run in reversed(self.slow_runs):
            if run.get("accounts_permission", True) and run["accounts"]:
                return tuple(tuple(pair) for pair in run["accounts"])
        return ()

    @property
    def reported_account_data(self) -> bool:
        return any(run.get("accounts_permission", True) for run in self.slow_runs)

    @cached_property
    def install_times(self) -> dict[str, float]:
        times = {a["package"]: a["install_time"] for a in self.initial_apps}
        for event in self.app_changes:
            if event["action"] == "install" and event.get("install_time") is not None:
                times[event["package"]] = event["install_time"]
        return times

    @cached_property
    def apk_hashes(self) -> dict[str, str]:
        hashes = {
            a["package"]: a["apk_hash"] for a in self.initial_apps if a["apk_hash"]
        }
        for event in self.app_changes:
            if event["action"] == "install" and event.get("apk_hash"):
                hashes[event["package"]] = event["apk_hash"]
        return hashes

    @cached_property
    def observed_packages(self) -> frozenset[str]:
        packages = set(self.initial_packages)
        packages.update(
            e["package"] for e in self.app_changes if e["action"] == "install"
        )
        return frozenset(packages)

    def _event_counts(self, wanted: str) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for event in self.app_changes:
            if event["action"] == wanted:
                counts[event["package"]] += 1
        return dict(counts)

    @cached_property
    def foreground_days(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = defaultdict(set)
        for run in self.fast_runs:
            package = run["foreground"]
            if package is None:
                continue
            first = int(run["start"] // SECONDS_PER_DAY)
            last = int(run["end"] // SECONDS_PER_DAY)
            for day in range(first, last + 1):
                out[package].add(day)
        return dict(out)

    @cached_property
    def foreground_snapshots(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for run in self.fast_runs:
            package = run["foreground"]
            if package is None:
                continue
            out[package] += 1 + int((run["end"] - run["start"]) // run["period"])
        return dict(out)

    @cached_property
    def total_snapshots(self) -> int:
        return _snapshot_total(self.fast_runs) + _snapshot_total(self.slow_runs)

    def truncated(self, days: float) -> "ReferenceObservation":
        cutoff = self.installed_at + days * SECONDS_PER_DAY
        clipped = ReferenceObservation(
            participant=self.participant,
            install_id=self.install_id,
            initial=self.initial,
            slow_runs=[
                {**run, "end": min(run["end"], cutoff)}
                for run in self.slow_runs
                if run["start"] < cutoff
            ],
            fast_runs=[
                {**run, "end": min(run["end"], cutoff)}
                for run in self.fast_runs
                if run["start"] < cutoff
            ],
            app_changes=[
                event for event in self.app_changes if event["timestamp"] < cutoff
            ],
            google_ids=self.google_ids,
            device_reviews=self.device_reviews,
            all_account_reviews=self.all_account_reviews,
        )
        clipped._active_days_override = max(1, int(min(days, self.active_days)))
        return clipped


def reference_observations(
    data: StudyData,
    participants: list[Participant] | None = None,
    server: RacketStoreServer | None = None,
) -> list[ReferenceObservation]:
    """:func:`~repro.core.observations.build_observations`, assembled
    from the server's per-install ``find`` + ``sort`` queries over
    ``server`` (default: a :func:`replay_server` of ``data.server``)."""
    server = server if server is not None else replay_server(data.server)
    participants = participants if participants is not None else data.participants
    observations: list[ReferenceObservation] = []
    for participant in participants:
        install_id = participant.app.install_id
        if install_id is None:
            continue
        obs = ReferenceObservation(
            participant=participant,
            install_id=install_id,
            initial=server.initial_snapshot(install_id),
            slow_runs=server.slow_runs(install_id),
            fast_runs=server.fast_runs(install_id),
            app_changes=server.app_changes(install_id),
            google_ids=frozenset(),
        )
        observations.append(_join_crawls(obs, data))
    return observations


# -- features: one dict per (app, device) ----------------------------------


def _mean_or_sentinel(values: list[float]) -> float:
    return float(np.mean(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def _min_or_sentinel(values: list[float]) -> float:
    return float(min(values)) if values else NEVER_REVIEWED_SENTINEL_DAYS


def extract_app_features(
    obs: DeviceObservation,
    package: str,
    catalog: Catalog,
    vt_client: VirusTotalClient | None = None,
) -> dict[str, float]:
    """Feature dict for one (app, device) instance."""
    reviews = obs.reviews_for_app(package)
    start, end = obs.installed_at, obs.uninstalled_at

    before = {r.google_id for r in reviews if r.timestamp < start}
    during = {r.google_id for r in reviews if start <= r.timestamp <= end}
    after = {r.google_id for r in reviews if r.timestamp > end}

    # (2) install-to-review.
    i2r = obs.install_to_review_days(package)

    # (3) inter-review gaps.
    timestamps = sorted(r.timestamp for r in reviews)
    gaps = [
        (b - a) / SECONDS_PER_DAY for a, b in zip(timestamps, timestamps[1:])
    ]

    # (4)/(5) usage.
    days_used = obs.foreground_days.get(package, set())
    onscreen = obs.foreground_snapshots.get(package, 0)

    # (7) inner retention: overlap of the app's installed interval with
    # the RacketStore observation window.
    install_time = obs.install_times.get(package)
    uninstall_events = [
        e["timestamp"]
        for e in obs.app_changes
        if e["action"] == "uninstall" and e["package"] == package
    ]
    if install_time is None:
        retention_days = math.nan
        spans_window = 0.0
    else:
        seen_from = max(install_time, start)
        seen_to = min(uninstall_events[-1], end) if uninstall_events else end
        retention_days = max(0.0, (seen_to - seen_from) / SECONDS_PER_DAY)
        spans_window = float(install_time <= start and not uninstall_events)

    # (8)/(9) permissions: requested from the Play listing, granted and
    # denied from the device-side records.
    if package in catalog:
        profile = catalog.get(package).permissions
        n_normal, n_dangerous = len(profile.normal), len(profile.dangerous)
    else:
        n_normal = n_dangerous = 0
    granted = denied = 0
    for app_info in obs.initial_apps:
        if app_info["package"] == package:
            granted, denied = app_info["n_granted"], app_info["n_denied"]
            break
    else:
        for event in obs.app_changes:
            if event["action"] == "install" and event["package"] == package:
                granted, denied = event.get("n_granted", 0), event.get("n_denied", 0)

    # (10) VirusTotal flags.
    apk_hash = obs.apk_hashes.get(package)
    vt_flags = (
        float(vt_client.positives(apk_hash))
        if vt_client is not None and apk_hash
        else 0.0
    )

    return {
        "accounts_reviewed_before": float(len(before)),
        "accounts_reviewed_during": float(len(during)),
        "accounts_reviewed_after": float(len(after)),
        "accounts_reviewed_total": float(len(before | during | after)),
        "install_to_review_mean_days": _mean_or_sentinel(i2r),
        "install_to_review_min_days": _min_or_sentinel(i2r),
        "inter_review_mean_days": _mean_or_sentinel(gaps),
        "inter_review_min_days": _min_or_sentinel(gaps),
        "opened_multiple_days": float(len(days_used) > 1),
        "onscreen_snapshots_per_day": onscreen / max(obs.active_days, 1),
        "device_snapshots_per_day": obs.snapshots_per_day,
        "inner_retention_days": retention_days,
        "spans_study_window": spans_window,
        "n_normal_permissions": float(n_normal),
        "n_dangerous_permissions": float(n_dangerous),
        "n_permissions_granted": float(granted),
        "n_permissions_denied": float(denied),
        "vt_flags": vt_flags,
        "n_install_events": float(obs.install_event_counts.get(package, 0)),
        "n_uninstall_events": float(obs.uninstall_event_counts.get(package, 0)),
    }


def app_feature_vector(
    obs: DeviceObservation,
    package: str,
    catalog: Catalog,
    vt_client: VirusTotalClient | None = None,
) -> np.ndarray:
    """Feature dict flattened into the canonical APP_FEATURE_NAMES order."""
    features = extract_app_features(obs, package, catalog, vt_client)
    return np.array([features[name] for name in APP_FEATURE_NAMES], dtype=np.float64)


def extract_device_features(
    obs: DeviceObservation,
    app_suspiciousness: float | None = None,
) -> dict[str, float]:
    """Feature dict for one device.

    ``app_suspiciousness`` is the fraction of the device's installed apps
    the app classifier flagged as promotion-installed; pass ``None``
    (→ NaN, imputed downstream) when the app classifier has not run.
    """
    n_accounts = max(obs.n_gmail_accounts, 1)
    return {
        "n_preinstalled_apps": float(obs.n_preinstalled),
        "n_user_installed_apps": float(obs.n_user_installed),
        "app_suspiciousness": (
            float(app_suspiciousness) if app_suspiciousness is not None else math.nan
        ),
        "n_stopped_apps": float(len(obs.stopped_apps_first)),
        "daily_installs": obs.daily_installs,
        "daily_uninstalls": obs.daily_uninstalls,
        "n_gmail_accounts": float(obs.n_gmail_accounts),
        "n_non_gmail_accounts": float(obs.n_non_gmail_accounts),
        "n_account_types": float(obs.n_account_types),
        "n_installed_and_reviewed": float(obs.n_installed_and_reviewed),
        "total_apps_reviewed": float(obs.apps_reviewed_total),
        "total_reviews": float(obs.total_account_reviews),
        "reviews_per_account_mean": obs.total_account_reviews / n_accounts,
        "apps_used_per_day": obs.apps_used_per_day,
        "snapshots_per_day": obs.snapshots_per_day,
    }


def device_feature_vector(
    obs: DeviceObservation,
    app_suspiciousness: float | None = None,
) -> np.ndarray:
    features = extract_device_features(obs, app_suspiciousness)
    return np.array(
        [features[name] for name in DEVICE_FEATURE_NAMES], dtype=np.float64
    )
