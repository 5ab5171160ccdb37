"""Repo benchmark: campaign-store, stream-soak and design-sweep.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One load-generating process drives the program through its public
functions in a closed loop with one client: the next op starts when the
previous one returns.  Every op's output digest is checked against
``perfbench/pins.json``.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``items_per_s``
and ``peak_rss_mb``.  ``--trace 1`` measures untraced for half the time,
then traced for the other half, and reports the per-layer metrics, the
tracing overhead and the unattributed share; it also writes the traced
spans as a ``repro-telemetry/v1`` log under ``.perfbench-out/``.

The last line of standard output is the result object; the line before
it records the environment.  The exit code is 0 only for a correct run.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh-interpreter set-ups per ``--trace 0`` run; ``setup_s`` is their
#: median.
SETUP_PROBES = 7

#: Calibration-loop iterations measured per round and per set-up probe,
#: and the seconds they take on the reference host.  Timings are
#: reported at the reference host's speed: each round and probe is
#: scaled by how much slower the host ran the loop beside it (README.md,
#: "Steadiness").
CALIBRATION_ITERATIONS = 2000
CALIBRATION_BLOCK = 500
REFERENCE_CALIBRATION_S = {False: 0.02, True: 0.03}   # by ``objects``

#: Rounds each timed phase runs at least, whatever ``--seconds`` says:
#: the exact-count check compares rounds with each other.
MIN_ROUNDS = 2

WORKLOAD_NAMES = ("campaign-store", "stream-soak", "design-sweep")


class Harness:
    """Runs rounds of one workload and checks every op against its pin."""

    def __init__(self, workload, pins: Dict[str, str]) -> None:
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run_round(self, timed, tracer=None) -> Dict[str, Any]:
        """One round of ops; returns its timing, digests and trace."""
        seconds = 0.0
        items = 0
        digests: Dict[str, str] = {}
        worker_spans: Dict[Tuple[str, ...], List[int]] = {}
        if tracer is not None:
            tracer.reset()
        ops = self.workload.round()
        # the round's calibration runs in a few blocks spread over its
        # ops, so it samples the host all through the round; a block is
        # long enough that the caches an op left behind barely matter
        blocks = min(len(ops), CALIBRATION_ITERATIONS // CALIBRATION_BLOCK)
        objects = self.workload.calibrate_objects
        calibration = 0.0
        for index, (key, op) in enumerate(ops):
            if (index * blocks) // len(ops) != ((index + 1) * blocks) // len(ops):
                calibration += calibration_s(CALIBRATION_ITERATIONS // blocks,
                                             objects)
            self.attempted += 1
            try:
                elapsed, count, digest = op(timed)
            except Exception:  # a failed op is counted, the run goes on
                self.failed += 1
                self.problems.append(f"op {key} raised:\n"
                                     + traceback.format_exc())
                continue
            finally:
                if tracer is not None:
                    tracing.add_rows(worker_spans, tracer.collect_workers())
            if digest != self.pins.get(key):
                self.failed += 1
                self.problems.append(f"op {key}: digest {digest}, pinned "
                                     f"{self.pins.get(key)}")
                continue
            seconds += elapsed
            items += count
            digests[key] = digest
        rate = items / seconds if seconds else 0.0
        slowness = calibration / REFERENCE_CALIBRATION_S[objects]
        record = {"seconds": seconds, "items": items, "digests": digests,
                  "rate": rate, "slowness": slowness,
                  "scaled_rate": rate * slowness}
        if tracer is not None:
            record.update(tracer.snapshot())
            record["worker_spans"] = worker_spans
            record["digest"] = _digest_of(digests)
        return record

    def run_phase(self, budget_s: float, timed, tracer=None
                  ) -> List[Dict[str, Any]]:
        """Timed rounds until ``budget_s`` has passed (and MIN_ROUNDS)."""
        rounds: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start < budget_s):
            round_start_ms = (time.perf_counter() - start) * 1e3
            record = self.run_round(timed, tracer)
            record["start_ms"] = round_start_ms
            rounds.append(record)
        return rounds


class _Node:
    __slots__ = ("t", "n", "tag")

    def __init__(self, i: int) -> None:
        self.t = float(i)
        self.n = 0
        self.tag = str(i)


def calibration_s(iterations: int = CALIBRATION_ITERATIONS,
                  objects: bool = False) -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop does what the program's hot paths do (SHA-256 prefix
    copies, PRNG reseeding, dict and list churn, float sums) but calls
    no code of the program, so a change to the program can move it only
    through the caches an op leaves behind.  With ``objects`` it also
    churns small objects through a heap and a dict, as the simulator
    does; the simulator slows more than the hashing loop on a busy host.
    """
    start = time.perf_counter()
    prefix = hashlib.sha256(b"perfbench-calibration:")
    rng = random.Random()
    table: Dict[Any, Any] = {}
    for i in range(iterations):
        digest = prefix.copy()
        digest.update(str(i).encode("ascii"))
        rng.seed(int.from_bytes(digest.digest()[:8], "big"))
        row = table.setdefault(i % 251, [0.0, 0.0])
        row[0] += rng.random()
        row[1] += len([(j, str(j)) for j in range(i % 23)])
    if objects:
        nodes = [_Node(i) for i in range(4096)]
        heap: List[Tuple[float, int, _Node]] = []
        table.clear()
        for i in range(iterations):
            node = nodes[(i * 2654435761) % 4096]
            node.t += 1.25
            node.n += 1
            heapq.heappush(heap, (node.t, i, node))
            if len(heap) > 256:
                heapq.heappop(heap)
            table[(node.tag, i % 97)] = [node.t, node.n, (i, node.tag)]
            if len(table) > 3000:
                table.clear()
    return time.perf_counter() - start


def items_per_s(rounds: List[Dict[str, Any]]) -> float:
    """Median over rounds of the round's rate at the reference host."""
    return statistics.median(r["scaled_rate"] for r in rounds)


def _digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def untimed_call(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# set-up, memory and environment
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int, size: str, scratch: Path
                  ) -> Tuple[List[float], List[float]]:
    """Seconds from starting a fresh interpreter to its ``ready`` line,
    each with the host's slowness measured right after it."""
    times, slowness = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed),
                 size, str(scratch)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
        slowness.append(calibration_s() / REFERENCE_CALIBRATION_S[False])
    return times, slowness


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(scratch: Path) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(),
        "loadavg_1m_before": os.getloadavg()[0],
        "store_filesystem": filesystem_type(scratch),
    }


# ----------------------------------------------------------------------
# exact-count check across runs
# ----------------------------------------------------------------------
def code_hash() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_across_runs(key: str, counts: Dict[str, int]) -> Optional[str]:
    """Compare ``counts`` with the last run of the same code and input.

    The record lives in ``.perfbench-out/exact_counts.json`` and keeps
    only the current code's entries.
    """
    path = OUT / "exact_counts.json"
    current = code_hash()
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    if record.get("code") != current:
        record = {"code": current, "counts": {}}
    previous = record["counts"].get(key)
    if previous is not None and previous != counts:
        return (f"exact counts for {key} differ from an earlier run of the "
                f"same code: {previous} != {counts}")
    record["counts"][key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True, indent=1),
                   encoding="utf-8")
    os.replace(tmp, path)
    return None


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        return _run(args, scratch, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path, workloads) -> int:
    env = environment(scratch)
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    if not args.trace:
        setup_times, setup_slowness = measure_setup(
            args.workload, args.seed, args.size, scratch)
    workload = workloads.build(args.workload, args.seed, args.size, scratch)
    workload.setup()
    harness = Harness(workload, pins[args.workload])
    harness.run_round(untimed_call)            # warm-up, checked, untimed

    metrics: Dict[str, Tuple[float, str]] = {}
    if not args.trace:
        rounds = harness.run_phase(args.seconds, untimed_call)
        metrics["setup_s"] = (statistics.median(
            t / k for t, k in zip(setup_times, setup_slowness)), "s")
        metrics["items_per_s"] = (items_per_s(rounds), "1/s")
        env["setup_s_raw"] = setup_times
        env["setup_slowness"] = setup_slowness
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        rounds = harness.run_phase(args.seconds / 2, untimed_call)
        tracer = tracing.Tracer(scratch)

        def traced_call(fn):
            return untimed_call(lambda: tracer.run_op(fn))

        with tracing.installed(tracer):
            traced = harness.run_phase(args.seconds / 2, traced_call, tracer)
        metrics.update(tracing.layer_metrics(traced))
        metrics["trace.overhead_frac"] = (
            1.0 - items_per_s(traced) / items_per_s(rounds),
            "ratio")
        _check_traced(harness, rounds, traced, workload)
        log = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        log.unlink(missing_ok=True)
        tracing.write_telemetry(log, args.workload, args.seed, traced)
        env["telemetry_log"] = log.relative_to(ROOT).as_posix()
        rounds = rounds + traced

    env["loadavg_1m_after"] = os.getloadavg()[0]
    env["rounds"] = len(rounds)
    env["round_rates"] = [r["rate"] for r in rounds]
    env["round_slowness"] = [r["slowness"] for r in rounds]
    for problem in harness.problems:
        print(problem, file=sys.stderr)
    correct = harness.failed == 0 and not harness.problems
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0 if correct else 1


def _check_traced(harness: Harness, untraced: List[Dict[str, Any]],
                  traced: List[Dict[str, Any]], workload) -> None:
    """Traced digests equal untraced ones; exact counts repeat."""
    plain = {k: v for r in untraced for k, v in r["digests"].items()}
    for rnd in traced:
        for key, digest in rnd["digests"].items():
            if plain.get(key, digest) != digest:
                harness.problems.append(
                    f"op {key}: traced digest {digest} != untraced "
                    f"{plain[key]}")
    first = traced[0]["counts"]
    for rnd in traced[1:]:
        if rnd["counts"] != first:
            harness.problems.append(
                f"exact counts differ between rounds: {first} != "
                f"{rnd['counts']}")
    problem = check_counts_across_runs(
        f"{workload.name}/{workload.count_key}", first)
    if problem:
        harness.problems.append(problem)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
