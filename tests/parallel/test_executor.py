"""Unit tests for the deterministic executor abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    draw_seeds,
    get_executor,
    in_worker,
    parallel_map,
    resolve_n_jobs,
    run_job,
    spawn_seeds,
)
from repro.parallel import executor as executor_module


def square(x):
    return x * x


def add(a, b):
    return a + b


def draw_normal(seed):
    return float(np.random.default_rng(seed).normal())


def bump_counter(amount):
    obs.counter("test_jobs_total").inc(amount)
    obs.histogram("test_job_seconds").observe(0.5)
    return amount


def report_worker_state(_index):
    return in_worker()


def open_missing_file(index):
    if index == 1:
        open("/nonexistent/repro-test-input")
    return index


class TestResolveNJobs:
    def test_explicit_value_wins(self):
        assert resolve_n_jobs(3) == 3

    def test_one_is_serial(self):
        assert resolve_n_jobs(1) == 1

    def test_none_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "4")
        assert resolve_n_jobs(None) == 4

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "0")
        assert resolve_n_jobs(None) >= 1

    def test_nonpositive_means_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_N_JOBS"):
            resolve_n_jobs(None)

    def test_get_executor_picks_serial_or_process(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(2), ProcessExecutor)


class TestSeeding:
    def test_spawn_seeds_deterministic_and_distinct(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert a == b
        assert len(set(a)) == 8
        assert spawn_seeds(43, 8) != a

    def test_spawn_seeds_prefix_stable(self):
        # Extending the fan-out must not change earlier children.
        assert spawn_seeds(7, 3) == spawn_seeds(7, 6)[:3]

    def test_draw_seeds_matches_serial_lineage(self):
        # draw_seeds consumes the generator exactly like the historical
        # serial loops did, one integers() call per seed.
        rng = np.random.default_rng(0)
        expected = [int(np.random.default_rng(0).integers(0, 2**31 - 1))]
        assert draw_seeds(rng, 1) == expected
        reference = np.random.default_rng(0)
        reference.integers(0, 2**31 - 1)
        assert draw_seeds(rng, 2) == [
            int(reference.integers(0, 2**31 - 1)) for _ in range(2)
        ]


class TestExecutors:
    def test_serial_map_preserves_order(self):
        result = SerialExecutor().map(square, [(i,) for i in range(6)])
        assert result == [i * i for i in range(6)]

    def test_process_map_preserves_submission_order(self):
        result = ProcessExecutor(2).map(square, [(i,) for i in range(12)])
        assert result == [i * i for i in range(12)]

    def test_process_map_multiple_args(self):
        result = ProcessExecutor(2).map(add, [(i, 10 * i) for i in range(5)])
        assert result == [11 * i for i in range(5)]

    def test_process_map_empty(self):
        assert ProcessExecutor(2).map(square, []) == []

    def test_process_executor_rejects_serial_count(self):
        with pytest.raises(ValueError):
            ProcessExecutor(1)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes here")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", ExplodingPool)
        result = ProcessExecutor(2).map(square, [(i,) for i in range(4)])
        assert result == [0, 1, 4, 9]

    def test_job_oserror_propagates_without_serial_rerun(self, monkeypatch):
        # A job's own OSError is not a pool failure: no task may run a
        # second time in the parent.
        serial_calls = []
        serial_map = SerialExecutor.map

        def spy(self, fn, tasks):
            serial_calls.append(fn)
            return serial_map(self, fn, tasks)

        monkeypatch.setattr(SerialExecutor, "map", spy)
        with pytest.raises(FileNotFoundError):
            ProcessExecutor(2).map(open_missing_file, [(i,) for i in range(3)])
        assert serial_calls == []

    def test_parallel_map_matches_serial(self):
        tasks = [(seed,) for seed in spawn_seeds(123, 9)]
        assert parallel_map(draw_normal, tasks, n_jobs=3) == parallel_map(
            draw_normal, tasks, n_jobs=1
        )


class TestWorkerState:
    def test_run_job_sets_and_restores_flag(self):
        assert not in_worker()
        result, snapshot = run_job(report_worker_state, (0,), capture_metrics=False)
        assert result is True
        assert snapshot is None
        assert not in_worker()

    def test_nested_n_jobs_resolves_serial_in_worker(self):
        def probe(_x):
            return resolve_n_jobs(8)

        result, _ = run_job(probe, (0,), capture_metrics=False)
        assert result == 1

    def test_workers_report_worker_state(self):
        flags = parallel_map(report_worker_state, [(i,) for i in range(3)], n_jobs=2)
        assert flags == [True, True, True]
        assert not in_worker()


class TestMetricsRoundTrip:
    def test_worker_metrics_merge_into_parent(self):
        obs.configure(metrics=True, tracing=False, registry=obs.MetricsRegistry())
        try:
            amounts = [1, 2, 3, 4]
            result = parallel_map(bump_counter, [(a,) for a in amounts], n_jobs=2)
            assert result == amounts
            assert obs.counter("test_jobs_total").value == sum(amounts)
            assert obs.histogram("test_job_seconds").count == len(amounts)
        finally:
            obs.reset()

    def test_no_capture_when_metrics_disabled(self):
        obs.reset()
        result = parallel_map(bump_counter, [(a,) for a in (5, 6)], n_jobs=2)
        assert result == [5, 6]
        assert not obs.metrics_enabled()
