"""Reference wire kernels: the ``dataclasses.asdict`` encoder and the
dataclass-building validator that :mod:`repro.platform.models` used
before its field-table encoder and :func:`validate_record`.  Test
oracles only: the production kernels must match them byte for byte
(encode) and verdict for verdict (validate).
"""

from __future__ import annotations

from dataclasses import asdict

from repro.platform.models import (
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
)

RECORD_TYPES = {
    "slow_run": SlowSnapshotRun,
    "fast_run": FastSnapshotRun,
    "app_change": AppChangeEvent,
    "initial": InitialSnapshot,
}
TYPE_NAMES = {cls: name for name, cls in RECORD_TYPES.items()}


def asdict_record_to_dict(record) -> dict:
    """Serialise through a recursive ``asdict`` copy, tag last."""
    cls = type(record)
    if cls not in TYPE_NAMES:
        raise TypeError(f"not a snapshot record: {cls.__name__}")
    payload = asdict(record)
    if cls is InitialSnapshot:
        payload["installed_apps"] = [asdict(a) if not isinstance(a, dict) else a
                                     for a in record.installed_apps]
    payload["_type"] = TYPE_NAMES[cls]
    return payload


def dataclass_record_from_dict(payload):
    """Validate by building (and returning) the frozen dataclass.

    Raises ``ValueError``/``TypeError`` for a rejected payload, and
    ``KeyError`` for an ``initial`` without ``installed_apps`` or a
    ``slow_run`` without ``accounts``/``stopped_apps``.
    """
    payload = dict(payload)
    type_name = payload.pop("_type", None)
    if type_name not in RECORD_TYPES:
        raise ValueError(f"unknown record type {type_name!r}")
    cls = RECORD_TYPES[type_name]
    if cls is InitialSnapshot:
        payload["installed_apps"] = tuple(
            InstalledAppInfo(**a) for a in payload["installed_apps"]
        )
    if cls is SlowSnapshotRun:
        payload["accounts"] = tuple(tuple(pair) for pair in payload["accounts"])
        payload["stopped_apps"] = tuple(payload["stopped_apps"])
    return cls(**payload)
