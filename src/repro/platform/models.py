"""Snapshot schema and PII registry for the RacketStore platform.

§3 defines two snapshot families: *slow* (every 2 minutes: identifiers,
registered accounts, save-mode status, stopped apps) and *fast* (every
5 seconds: identifiers, foreground app, screen/battery status, and
install/uninstall deltas).  Because consecutive snapshots are almost
always identical, the wire format here is run-length encoded: one
``*SnapshotRun`` record stands for every periodic snapshot taken while
the captured state was constant.  ``n_snapshots`` recovers exact counts,
so the §6.1 engagement statistics are unaffected.

Table 3's PII inventory is reproduced as :data:`PII_REGISTRY`.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Any

__all__ = [
    "SlowSnapshotRun",
    "FastSnapshotRun",
    "AppChangeEvent",
    "InstalledAppInfo",
    "InitialSnapshot",
    "PIIEntry",
    "PII_REGISTRY",
    "record_to_dict",
    "record_from_dict",
    "validate_record",
]


def _run_count(start: float, end: float, period: float) -> int:
    """Number of periodic samples in [start, end) at ``period`` spacing
    (at least one: the sample at ``start``)."""
    if end < start:
        raise ValueError(f"run ends before it starts ({end} < {start})")
    return 1 + int(math.floor(max(end - start, 0.0) / period))


@dataclass(frozen=True, slots=True)
class SlowSnapshotRun:
    """RLE run of slow (2-minute) snapshots with constant state."""

    install_id: str
    participant_id: str
    android_id: str | None
    start: float
    end: float
    period: float
    #: (service, identifier) pairs; empty tuple when GET_ACCOUNTS denied.
    accounts: tuple[tuple[str, str], ...]
    save_mode: bool
    stopped_apps: tuple[str, ...]
    accounts_permission: bool = True

    @property
    def n_snapshots(self) -> int:
        return _run_count(self.start, self.end, self.period)


@dataclass(frozen=True, slots=True)
class FastSnapshotRun:
    """RLE run of fast (5-second) snapshots with constant state."""

    install_id: str
    participant_id: str
    start: float
    end: float
    period: float
    foreground: str | None
    screen_on: bool
    battery: float
    usage_permission: bool = True

    @property
    def n_snapshots(self) -> int:
        return _run_count(self.start, self.end, self.period)


@dataclass(frozen=True, slots=True)
class AppChangeEvent:
    """Install/uninstall delta between consecutive installed-app sets."""

    install_id: str
    participant_id: str
    timestamp: float
    action: str  # "install" | "uninstall"
    package: str
    install_time: float | None = None
    apk_hash: str | None = None
    n_granted: int = 0
    n_denied: int = 0
    n_normal_permissions: int = 0
    n_dangerous_permissions: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("install", "uninstall"):
            raise ValueError(f"unknown app-change action {self.action!r}")


@dataclass(frozen=True, slots=True)
class InstalledAppInfo:
    """Per-app metadata in the initial snapshot (§3 initial collector)."""

    package: str
    install_time: float
    last_update_time: float
    apk_hash: str
    n_granted: int
    n_denied: int
    n_normal_permissions: int
    n_dangerous_permissions: int
    stopped: bool
    preinstalled: bool


@dataclass(frozen=True, slots=True)
class InitialSnapshot:
    """First report after sign-in: device info + full installed-app list."""

    install_id: str
    participant_id: str
    android_id: str | None
    api_level: int
    model: str
    manufacturer: str
    timestamp: float
    installed_apps: tuple[InstalledAppInfo, ...]


@dataclass(frozen=True)
class PIIEntry:
    """One row of Table 3 (PII / collector / reasons / deletion)."""

    pii: str
    collector: str
    reason: str
    deletion: str


#: Table 3 of the paper, verbatim.
PII_REGISTRY: tuple[PIIEntry, ...] = (
    PIIEntry("Accounts", "RacketStore", "Classification", "After use"),
    PIIEntry("Accounts", "RacketStore", "Review collection", "After use"),
    PIIEntry("Email", "Website", "Recruitment", "After use"),
    PIIEntry("IP address", "Backend", "Statistics", "Not stored"),
    PIIEntry("Device ID", "RacketStore", "Snap. fingerprint", "After use"),
    PIIEntry("Payment Info", "Author", "Payment", "Not stored"),
)


_RECORD_TYPES = {
    "slow_run": SlowSnapshotRun,
    "fast_run": FastSnapshotRun,
    "app_change": AppChangeEvent,
    "initial": InitialSnapshot,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}

#: Wire field names per record class, in dataclass field order (the key
#: order of every JSON line).
_FIELD_NAMES = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (*_RECORD_TYPES.values(), InstalledAppInfo)
}

#: Per wire type: (required keys, allowed keys), both with the tag.
_KEY_SETS = {
    name: (
        frozenset(f.name for f in fields(cls) if f.default is MISSING) | {"_type"},
        frozenset(_FIELD_NAMES[cls]) | {"_type"},
    )
    for name, cls in _RECORD_TYPES.items()
}
_APP_KEYS = frozenset(_FIELD_NAMES[InstalledAppInfo])
_ACTIONS = ("install", "uninstall")
_ARRAY = (list, tuple)


def record_to_dict(record: Any) -> dict:
    """Serialise a snapshot record to a JSON-compatible dict with a type tag.

    Keys follow the dataclass field order with ``_type`` last.  Values
    are the record's own (immutable) attributes, not copies: the dict
    only ever goes to the JSON encoder.
    """
    cls = type(record)
    type_name = _TYPE_NAMES.get(cls)
    if type_name is None:
        raise TypeError(f"not a snapshot record: {cls.__name__}")
    payload = {name: getattr(record, name) for name in _FIELD_NAMES[cls]}
    if cls is InitialSnapshot:
        app_fields = _FIELD_NAMES[InstalledAppInfo]
        payload["installed_apps"] = [
            a if isinstance(a, dict) else {name: getattr(a, name) for name in app_fields}
            for a in record.installed_apps
        ]
    payload["_type"] = type_name
    return payload


def validate_record(payload: Any) -> str:
    """Check one decoded wire record and return its type tag.

    The single acceptance rule of the ingest path: a JSON object whose
    key set holds every required and only allowed fields of its type,
    an app-change action of ``install``/``uninstall``, ``accounts`` an
    array of arrays, ``stopped_apps`` an array, and ``installed_apps``
    an array of objects with exactly the :class:`InstalledAppInfo`
    fields.  Raises :class:`ValueError` otherwise.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"record is a {type(payload).__name__}, not an object")
    type_name = payload.get("_type")
    key_sets = _KEY_SETS.get(type_name) if isinstance(type_name, str) else None
    if key_sets is None:
        raise ValueError(f"unknown record type {type_name!r}")
    required, allowed = key_sets
    keys = payload.keys()
    if not (keys >= required and keys <= allowed):
        raise ValueError(
            f"{type_name} record: missing {sorted(required - keys)}, "
            f"unexpected {sorted(keys - allowed)}"
        )
    if type_name == "app_change":
        if payload["action"] not in _ACTIONS:
            raise ValueError(f"unknown app-change action {payload['action']!r}")
    elif type_name == "slow_run":
        accounts = payload["accounts"]
        if not (
            isinstance(accounts, _ARRAY)
            and all(isinstance(pair, _ARRAY) for pair in accounts)
            and isinstance(payload["stopped_apps"], _ARRAY)
        ):
            raise ValueError("slow_run accounts/stopped_apps are not arrays")
    elif type_name == "initial":
        apps = payload["installed_apps"]
        if not (
            isinstance(apps, _ARRAY)
            and all(isinstance(a, dict) and a.keys() == _APP_KEYS for a in apps)
        ):
            raise ValueError("initial installed_apps entry has the wrong fields")
    return type_name


def record_from_dict(payload: dict) -> Any:
    """Inverse of :func:`record_to_dict`: :func:`validate_record`, then
    construction."""
    type_name = validate_record(payload)
    cls = _RECORD_TYPES[type_name]
    kwargs = {key: value for key, value in payload.items() if key != "_type"}
    if cls is InitialSnapshot:
        kwargs["installed_apps"] = tuple(
            InstalledAppInfo(**a) for a in kwargs["installed_apps"]
        )
    elif cls is SlowSnapshotRun:
        kwargs["accounts"] = tuple(tuple(pair) for pair in kwargs["accounts"])
        kwargs["stopped_apps"] = tuple(kwargs["stopped_apps"])
    return cls(**kwargs)
