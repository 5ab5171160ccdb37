"""The execution layer: serial path, warm pool reuse, crash retry."""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path

import pytest

import repro.exec as exec_mod
from repro.api import (
    CampaignSpec,
    FaultPlanSpec,
    RepeatSpec,
    RunSpec,
    SamplingSpec,
    WorkloadSpec,
)
from repro.campaigns import repeat_campaign
from repro.canon import digest16
from repro.errors import ConfigurationError, WorkerCrashError
from repro.exec import MAX_ATTEMPTS, run_tasks
from repro.obs import MemorySink, Telemetry


def _square(task, _telemetry):
    return task * task


def _pid(_task, _telemetry):
    return os.getpid()


def _fail_at_seven(task, _telemetry):
    if task == 7:
        raise ValueError("task seven")
    return task


def _kill(task, _telemetry):
    """SIGKILL the worker when the marker says so, else square.

    ``task`` is ``(value, marker, always)``: a non-empty ``marker`` kills
    the worker on the first attempt (the marker file records it), or
    on every attempt when ``always`` is set.
    """
    value, marker, always = task
    if marker and (always or not Path(marker).exists()):
        Path(marker).touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _session() -> Telemetry:
    return Telemetry(MemorySink())


def _events(telemetry: Telemetry, kind: str):
    return [e["data"] for e in telemetry.sink.events if e["type"] == kind]


def _keys(n: int):
    return [f"task-{i:02d}" for i in range(n)]


@pytest.fixture(autouse=True)
def _cold_pool():
    """Each test starts and ends without a warm executor."""
    exec_mod.shutdown()
    yield
    exec_mod.shutdown()


class TestModes:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ordered_results_for_any_worker_count(self, workers):
        results = list(run_tasks(_square, range(23), keys=_keys(23),
                                 workers=workers))
        assert results == [i * i for i in range(23)]

    def test_unordered_yields_every_result_once(self):
        results = run_tasks(_square, range(9), keys=_keys(9), workers=2,
                            ordered=False)
        assert sorted(results) == [i * i for i in range(9)]

    def test_serial_path_runs_in_process(self):
        telemetry = _session()
        pids = list(run_tasks(_pid, range(3), keys=_keys(3), workers=1,
                              telemetry=telemetry))
        assert pids == [os.getpid()] * 3
        assert exec_mod._warm is None
        starts = _events(telemetry, "shard_start")
        assert starts == [{"key": key, "pooled": False} for key in _keys(3)]

    def test_keys_must_name_every_task_once(self):
        with pytest.raises(ConfigurationError, match="distinct key"):
            list(run_tasks(_square, range(3), keys=["a", "a", "b"],
                           workers=2))
        with pytest.raises(ConfigurationError, match="distinct key"):
            list(run_tasks(_square, range(3), keys=["a"], workers=2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_task_is_named(self, workers):
        telemetry = _session()
        with pytest.raises(ValueError, match="task seven"):
            list(run_tasks(_fail_at_seven, range(20), keys=_keys(20),
                           workers=workers, telemetry=telemetry))
        (error,) = _events(telemetry, "worker_error")
        assert error["key"] == "task-07"


class TestWarmPool:
    def test_same_worker_count_reuses_one_executor(self):
        first = set(run_tasks(_pid, range(6), keys=_keys(6), workers=2))
        executor = exec_mod._warm[2]
        second = set(run_tasks(_pid, range(6), keys=_keys(6), workers=2))
        assert exec_mod._warm[2] is executor
        assert os.getpid() not in first | second
        assert len(first | second) <= 2  # no process was forked again

    def test_a_different_worker_count_replaces_it(self):
        before = set(run_tasks(_pid, range(6), keys=_keys(6), workers=2))
        executor = exec_mod._warm[2]
        after = set(run_tasks(_pid, range(6), keys=_keys(6), workers=3))
        assert exec_mod._warm[2] is not executor
        assert exec_mod._warm[1] == 3
        assert not before & after

    def test_registering_a_scheduler_retires_the_warm_pool(self):
        from repro.api.engine import Engine
        from repro.gpu.scheduler import registry
        from repro.gpu.scheduler.srrs import SRRSScheduler

        def specs(policy):
            return [RunSpec(workload=WorkloadSpec(benchmark=name),
                            policy=policy) for name in ("hotspot", "nn")]

        before = Engine().run_many(specs("srrs"), workers=2)
        assert exec_mod._warm is not None
        registry.register_scheduler("exec-test-srrs", SRRSScheduler)
        try:
            assert exec_mod._warm is None
            after = Engine().run_many(specs("exec-test-srrs"), workers=2)
        finally:
            del registry._REGISTRY["exec-test-srrs"]
        assert [a.timing for a in after] == [b.timing for b in before]

    def test_repeat_campaign_forks_once_for_all_its_waves(
            self, monkeypatch):
        created = []

        class Counting(exec_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(exec_mod, "ProcessPoolExecutor", Counting)
        spec = CampaignSpec(
            run=RunSpec(workload=WorkloadSpec(benchmark="hotspot"),
                        policy="default"),
            faults=FaultPlanSpec(transient_ccf=120, permanent_sm=40,
                                 seu=40, seed=7),
            sampling=SamplingSpec(method="stratified", transient_ccf=1,
                                  permanent_sm=2, seu=1),
            repeat=RepeatSpec(metric="sdc", relative_half_width=0.2,
                              batch=50, max_total=1000),
        )
        pooled = repeat_campaign(spec, workers=2)
        assert pooled.batches >= 5  # at least three waves of two shards
        assert created == [2]
        solo = repeat_campaign(spec, workers=1)
        assert pooled.report.digest() == solo.report.digest()


class TestCrashRetry:
    def _tasks(self, tmp_path, *, always: bool):
        marker = str(tmp_path / "killed-task-03")
        return [(i, marker if i == 3 else "", always) for i in range(8)]

    @pytest.mark.parametrize("ordered", [True, False])
    def test_a_worker_killed_once_is_retried(self, tmp_path, ordered):
        telemetry = _session()
        results = list(run_tasks(
            _kill, self._tasks(tmp_path, always=False), keys=_keys(8),
            workers=2, telemetry=telemetry, ordered=ordered))
        assert sorted(results) == [i * i for i in range(8)]
        if ordered:
            assert results == [i * i for i in range(8)]
        assert (digest16(json.dumps(sorted(results)))
                == digest16(json.dumps([i * i for i in range(8)])))
        (retry,) = _events(telemetry, "retry")
        assert "task-03" in retry["keys"]
        assert retry["attempt"] == 2
        assert _events(telemetry, "worker_error") == []
        # the broken pool was replaced by a working one
        assert list(run_tasks(_square, range(4), keys=_keys(4),
                              workers=2)) == [0, 1, 4, 9]

    def test_a_task_that_always_kills_its_worker_is_named(self, tmp_path):
        telemetry = _session()
        with pytest.raises(WorkerCrashError, match="task-03") as info:
            list(run_tasks(_kill, self._tasks(tmp_path, always=True),
                           keys=_keys(8), workers=2, telemetry=telemetry))
        assert info.value.key == "task-03"
        assert info.value.attempts == MAX_ATTEMPTS
        retries = _events(telemetry, "retry")
        assert [r["attempt"] for r in retries] == list(
            range(2, MAX_ATTEMPTS + 1))
        assert retries[-1]["keys"] == ["task-03"]
        (error,) = _events(telemetry, "worker_error")
        assert error["key"] == "task-03"
