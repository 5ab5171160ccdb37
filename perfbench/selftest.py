"""Self-test of the benchmark at tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

It checks that each workload's run reports exactly the metric names and
units ``BENCHMARK.json`` declares, that every op matches its pin on the
development and the held-out seed, that the traced run gives the
untraced run's digests with exact counts that repeat, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
DEV_SEED = PINS["dev_seed"]
HELDOUT_SEED = PINS["heldout_seed"]

#: Layers each workload must exercise (the rest may read zero).
EXERCISED = {
    "campaign-store": (
        "faults.fault_at", "faults.apply_fault", "faults.classify",
        "campaigns.store.append", "campaigns.store.load_records",
        "campaigns.fold_report", "campaigns.baseline_campaign",
        "campaigns.pool", "redundancy.compare",
    ),
    "stream-soak": (
        "streams.resolve_jobs", "streams.substream", "streams.iter_arrivals",
        "streams.accumulator.observe", "streams.fault_overlay",
        "streams.run_stream", "faults.classify", "gpu.simulator.run",
    ),
    "design-sweep": (
        "gpu.simulator.run", "gpu.baseline_makespan", "redundancy.compare",
        "redundancy.diversity", "api.engine.run", "api.spec.resolve",
    ),
}


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(DEV_SEED, 0), (HELDOUT_SEED, 1)])
def test_tiny_run_reports_declared_metrics(workload, seed, trace):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    env = json.loads(lines[-2])["environment"]
    for key in ("cpu_count", "python", "loadavg_1m_before",
                "loadavg_1m_after", "store_filesystem"):
        assert key in env
    if trace:
        for layer in EXERCISED[workload]:
            assert result["metrics"][f"{layer}.self_us_per_item"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_matches_untraced(workload, tmp_path):
    bench = workloads.build(workload, DEV_SEED, "tiny", tmp_path)
    bench.setup()
    harness = run.Harness(bench, PINS[workload])
    plain = harness.run_round(run.untimed_call)
    tracer = tracing.Tracer(tmp_path)

    def traced_call(fn):
        return run.untimed_call(lambda: tracer.run_op(fn))

    with tracing.installed(tracer):
        first = harness.run_round(traced_call, tracer)
        second = harness.run_round(traced_call, tracer)
    assert harness.failed == 0, harness.problems
    assert first["digests"] == plain["digests"] == second["digests"]
    assert first["counts"] == second["counts"]
    assert any(first["counts"].values())


def test_wrong_pin_fails_the_op(tmp_path):
    bench = workloads.build("stream-soak", DEV_SEED, "tiny", tmp_path)
    pins = {key: "0" * 16 for key in PINS["stream-soak"]}
    harness = run.Harness(bench, pins)
    harness.run_round(run.untimed_call)
    assert harness.failed == harness.attempted == 1


def test_every_seed_maps_to_a_pin():
    for seed in (0, 7, 15, 16, 12345):
        for name in ("campaign-store", "stream-soak"):
            bench = workloads.build(name, seed, "full", Path("."))
            for key, _ in bench.round():
                assert key in PINS[name]
    sweep = workloads.build("design-sweep", 99, "full", Path("."))
    assert len(sweep.specs) == 132
    assert {key for key, _ in sweep.round()} == set(PINS["design-sweep"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("stream-soak", DEV_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
