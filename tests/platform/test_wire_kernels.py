"""The device->server wire kernels against their reference oracles.

* encode: the field-table :func:`record_to_dict` and the buffer's shared
  compact encoder give JSON lines byte-equal to the ``asdict`` path;
* validate: :func:`validate_record` accepts exactly what building the
  dataclass accepted, except the payloads that used to escape as
  ``KeyError`` (they now count as malformed records);
* draw: CDF-table draws pick the same value from the same double as
  ``Generator.choice(..., p=...)``;
* seal: chunk bytes do not depend on the wall clock.
"""

from __future__ import annotations

import copy
import gzip
import json
import time
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.buffer import DataBuffer, chunk_hash
from repro.platform.models import (
    AppChangeEvent,
    FastSnapshotRun,
    InitialSnapshot,
    InstalledAppInfo,
    SlowSnapshotRun,
    record_from_dict,
    record_to_dict,
    validate_record,
)
from repro.platform.server import RacketStoreServer
from repro.simulation.behavior import choice_cdf, review_rating
from repro.simulation.config import SimulationConfig

from .wire_oracle import asdict_record_to_dict, dataclass_record_from_dict


def oracle_line(record) -> str:
    return json.dumps(asdict_record_to_dict(record), separators=(",", ":"))


def sealed_lines(kind: str, records) -> list[str]:
    """Lines of the chunk a :class:`DataBuffer` seals for ``records``."""
    buffer = DataBuffer()
    for record in records:
        buffer.append(kind, record)
    buffer.seal_all()
    (chunk,) = buffer._pending
    return gzip.decompress(chunk.data).decode().splitlines()


def app_info(package: str, stopped: bool = False) -> InstalledAppInfo:
    return InstalledAppInfo(package, -10.5, -2.25, "ab12", 3, 1, 2, 2, stopped, False)


APP_DICT = {
    "package": "com.dict.app", "install_time": -1.0, "last_update_time": 0.0,
    "apk_hash": "ff", "n_granted": 0, "n_denied": 0, "n_normal_permissions": 0,
    "n_dangerous_permissions": 0, "stopped": False, "preinstalled": True,
}

FAST = [
    FastSnapshotRun("i", "100001", 0.0, 60.0, 5.0, "com.app", True, 0.9),
    FastSnapshotRun("i", "100001", 1e-7, 86399.999, 5.0, None, False, 0.05,
                    usage_permission=False),
    AppChangeEvent("i", "100001", 5.5, "install", "com.app", 1.0, "hash", 3, 1, 2, 2),
    AppChangeEvent("i", "100001", 7.0, "uninstall", "com.app"),
    AppChangeEvent("i", "100001", 8.0, "install", "com.été", None, None),
]
SLOW = [
    SlowSnapshotRun("i", "100001", None, 0.0, 240.0, 120.0, (), False, ()),
    SlowSnapshotRun("i", "100001", "aid", 0.0, 240.0, 120.0,
                    (("com.google", "x@gmail.com"), ("com.whatsapp", "+1555")),
                    True, ("stopped.a", "stopped.b"), accounts_permission=False),
    InitialSnapshot("i", "100001", "aid", 28, "SM-A105F", "Samsung", 0.0,
                    (app_info("com.a"), app_info("com.b", stopped=True))),
    InitialSnapshot("i", "100001", None, 30, "Pixel", "Google", 1.5, ()),
    InitialSnapshot("i", "100001", "aid", 29, "X", "Y", 2.0,
                    (app_info("com.a"), APP_DICT)),
]


class TestEncode:
    @pytest.mark.parametrize("kind, records", [("fast", FAST), ("slow", SLOW)])
    def test_sealed_lines_byte_equal_to_asdict(self, kind, records):
        assert sealed_lines(kind, records) == [oracle_line(r) for r in records]

    def test_non_record_rejected(self):
        with pytest.raises(TypeError):
            record_to_dict(app_info("com.a"))

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.floats(-1e9, 1e9, allow_nan=False),
        span=st.floats(0.0, 1e6, allow_nan=False),
        foreground=st.none() | st.text(max_size=12),
        battery=st.floats(0.0, 1.0),
        accounts=st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)),
                          max_size=3).map(tuple),
        stopped=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    )
    def test_random_records_byte_equal(
        self, start, span, foreground, battery, accounts, stopped
    ):
        fast = FastSnapshotRun("i", "p", start, start + span, 5.0, foreground,
                               foreground is not None, battery)
        slow = SlowSnapshotRun("i", "p", foreground, start, start + span, 120.0,
                               accounts, battery > 0.5, stopped)
        assert sealed_lines("fast", [fast]) == [oracle_line(fast)]
        assert sealed_lines("slow", [slow]) == [oracle_line(slow)]


def wire_payloads() -> list[dict]:
    """One decoded JSON line per sample record (what the server sees)."""
    return [json.loads(oracle_line(r)) for r in FAST + SLOW]


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5)
)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3) | st.dictionaries(
    st.text(max_size=5), JSON_SCALARS, max_size=3
)
#: Keys whose absence the dataclass path reported as ``KeyError``.
KEY_ERROR_FIELDS = {"initial": {"installed_apps"}, "slow_run": {"accounts", "stopped_apps"}}


@st.composite
def mutated(draw):
    payload = copy.deepcopy(draw(st.sampled_from(wire_payloads())))
    mutation = draw(st.sampled_from(
        ["none", "drop", "extra", "type", "action", "app", "not_object"]
    ))
    if mutation == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif mutation == "extra":
        payload[draw(st.text(max_size=8).filter(lambda k: k not in payload))] = (
            draw(JSON_VALUES)
        )
    elif mutation == "type":
        payload["_type"] = draw(JSON_VALUES.filter(
            lambda v: v not in ("slow_run", "fast_run", "app_change", "initial")
        ))
    elif mutation == "action" and payload["_type"] == "app_change":
        payload["action"] = draw(JSON_VALUES)
    elif mutation == "app" and payload["_type"] == "initial":
        apps = payload["installed_apps"]
        bad = draw(st.sampled_from(["drop", "extra", "value"]))
        entry = dict(APP_DICT)
        if bad == "drop":
            del entry[draw(st.sampled_from(sorted(entry)))]
            apps.insert(draw(st.integers(0, len(apps))), entry)
        elif bad == "extra":
            entry[draw(st.text(max_size=8).filter(lambda k: k not in entry))] = 1
            apps.insert(draw(st.integers(0, len(apps))), entry)
        else:
            apps.insert(draw(st.integers(0, len(apps))), draw(
                JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
            ))
    elif mutation == "not_object":
        payload = draw(JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3))
    return payload


def oracle_verdict(payload) -> str:
    try:
        dataclass_record_from_dict(payload)
    except (ValueError, TypeError):
        return "rejected"
    except KeyError:
        return "key_error"
    return "accepted"


class TestValidate:
    def test_every_sample_accepted_and_round_trips(self):
        for record in FAST + SLOW:
            payload = json.loads(oracle_line(record))
            assert validate_record(payload) == payload["_type"]
            assert record_from_dict(payload) == dataclass_record_from_dict(payload)

    @settings(max_examples=400, deadline=None)
    @given(payload=mutated())
    def test_accepts_exactly_what_the_oracle_accepts(self, payload):
        verdict = oracle_verdict(payload)
        if verdict == "key_error":
            # The one intended difference: a missing container field is
            # a malformed record now, not an escaping KeyError.
            missing = KEY_ERROR_FIELDS[payload["_type"]] - payload.keys()
            assert missing
            with pytest.raises(ValueError):
                validate_record(payload)
        elif verdict == "accepted":
            assert validate_record(payload) == payload["_type"]
            assert record_from_dict(payload) == dataclass_record_from_dict(payload)
        else:
            with pytest.raises(ValueError):
                validate_record(payload)
            with pytest.raises(ValueError):
                record_from_dict(payload)


def gzip_lines(lines: list[str]) -> bytes:
    return gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0)


class TestPoisonChunk:
    def test_missing_container_fields_count_as_malformed_and_chunk_is_acked(self):
        payloads = wire_payloads()
        good_fast = next(p for p in payloads if p["_type"] == "fast_run")
        initial = next(p for p in payloads if p["_type"] == "initial")
        slow = next(p for p in payloads if p["_type"] == "slow_run")
        no_apps = {k: v for k, v in initial.items() if k != "installed_apps"}
        no_accounts = {k: v for k, v in slow.items() if k != "accounts"}
        no_stopped = {k: v for k, v in slow.items() if k != "stopped_apps"}
        data = gzip_lines([json.dumps(p) for p in
                           (good_fast, no_apps, no_accounts, no_stopped)])
        server = RacketStoreServer()
        assert server.receive_chunk("slow", data) == chunk_hash(data)
        assert server.stats.malformed_records == 3
        assert server.stats.records_inserted == 1
        assert server.fast_runs("i") == [good_fast]
        assert server.slow_runs("i") == []
        assert server.initial_snapshot("i") is None
        # The chunk is remembered: a retransmit is absorbed, not re-ingested.
        assert server.receive_chunk("slow", data) == chunk_hash(data)
        assert server.stats.duplicate_chunks == 1
        assert server.stats.records_inserted == 1


class TestSealIsClockFree:
    def test_same_records_seal_to_same_bytes_at_different_wall_times(
        self, monkeypatch
    ):
        chunks = []
        for now in (1_000_000_000.0, 1_700_000_000.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            buffer = DataBuffer()
            for record in FAST:
                buffer.append("fast", record)
            buffer.seal_all()
            (chunk,) = buffer._pending
            chunks.append(chunk.data)
        assert chunks[0] == chunks[1]


def choice_rating(rng: np.random.Generator, promo: bool) -> int:
    """The ``Generator.choice`` form of :func:`review_rating`."""
    if promo:
        return int(rng.choice((4, 5), p=(0.2, 0.8)))
    return int(rng.choice((1, 2, 3, 4, 5), p=(0.07, 0.06, 0.12, 0.3, 0.45)))


def zipf_weights(n: int) -> np.ndarray:
    """The behaviour engine's popular-pool install weights."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -SimulationConfig().zipf_exponent
    return weights / weights.sum()


SEEDS = range(256)


class TestCdfDraws:
    def test_review_rating_matches_choice_stream(self):
        for seed in SEEDS:
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for i in range(40):
                promo = i % 3 == 0
                assert review_rating(ours, promo) == choice_rating(oracle, promo)
            assert ours.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_churn_pick_matches_choice_stream(self, n):
        weights = zipf_weights(n)
        cdf = choice_cdf(weights)
        for seed in SEEDS:
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                assert bisect_right(cdf, ours.random()) == int(
                    oracle.choice(n, p=weights)
                )
            assert ours.bit_generator.state == oracle.bit_generator.state
