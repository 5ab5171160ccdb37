"""Event-loop liveness at the limits of float resolution.

Two small redundant workloads used to stop the simulator:

* Under ``srrs``, the DRAM virtual clock reached about 6e5 cycles and
  its last finish key sat 2e-9 ahead of it, more than ``_EPS``, while
  the wall-clock time of that completion rounded to ``now``.  No clock
  could move, so the loop repeated one event forever.
* Under ``staggered``, a copy's retry time lay less than ``_EPS`` above
  ``now``.  It counted neither as due nor as a future event, and the run
  ended in a spurious "scheduler deadlock".

Both cores must now finish these workloads and agree bit for bit.
"""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig, SMConfig
from repro.gpu.kernel import KernelDescriptor
from repro.gpu.reference import ReferenceSimulator
from repro.gpu.scheduler.registry import make_scheduler
from repro.gpu.simulator import GPUSimulator
from repro.redundancy.manager import build_redundant_workload


def _gpu(num_sms, max_threads, max_blocks, throughput, dram, mixing):
    return GPUConfig(
        name="float-edge",
        num_sms=num_sms,
        sm=SMConfig(max_threads=max_threads, max_blocks=max_blocks,
                    registers=32768, shared_memory=32768,
                    issue_throughput=throughput),
        dram_bandwidth=dram,
        dispatch_latency=0.0,
        allow_kernel_mixing=mixing,
    )


def _kernels(*shapes):
    return [
        KernelDescriptor(name=f"edge/k{i}", grid_blocks=grid,
                         threads_per_block=threads, regs_per_thread=regs,
                         shared_mem_per_block=smem, work_per_block=work,
                         bytes_per_block=mem)
        for i, (grid, threads, regs, smem, work, mem) in enumerate(shapes)
    ]


CASES = {
    "dram-clock-rounding": (
        _gpu(2, 512, 5, 0.5, 96.0, True),
        _kernels((12, 32, 24, 1024, 5000.0, 333.0),
                 (17, 256, 8, 0, 5000.0, 2048.0)),
        "srrs", 2,
    ),
    "stagger-retry-within-eps": (
        _gpu(2, 1024, 2, 1.0, 48.0, False),
        _kernels((18, 128, 16, 0, 123.0, 2048.0),
                 (18, 128, 24, 0, 0.3, 64.0),
                 (3, 32, 16, 8192, 400.0, 333.0)),
        "staggered", 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_both_cores_finish_and_agree(case):
    gpu, kernels, policy, copies = CASES[case]
    launches = build_redundant_workload(kernels, copies=copies)
    fast = GPUSimulator(gpu, make_scheduler(policy)).run(launches)
    ref = ReferenceSimulator(gpu, make_scheduler(policy)).run(launches)
    assert len(fast.trace.tb_records) == sum(
        k.grid_blocks for k in kernels) * copies
    assert not fast.trace.differences(ref.trace)
    assert fast.events == ref.events
    assert fast.makespan == ref.makespan
