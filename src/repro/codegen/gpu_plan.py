"""GPU launch planning: grid geometry and the ``#OMP_Rep`` factor.

Mirrors what the XL OpenMP runtime does when it encounters a target region:
launch its default 128-thread blocks, cap the grid at what the device can
co-schedule, and — when the capped grid leaves fewer threads than parallel
loop iterations — assign each thread ``#OMP_Rep`` distinct iterations (the
paper's OpenMP-specific extension to the Hong model, Figure 4).  This is
the one place the block size is decided; the models and the simulator read
it from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import GPUDescriptor

__all__ = ["GPULaunchPlan", "plan_gpu_launch", "DEFAULT_THREADS_PER_BLOCK"]

#: The runtime's default thread-block size (the paper's example uses 128).
DEFAULT_THREADS_PER_BLOCK = 128


@dataclass(frozen=True)
class GPULaunchPlan:
    """Resolved kernel launch geometry for a given iteration count."""

    parallel_iterations: int
    threads_per_block: int
    num_blocks: int
    omp_rep: int  # distinct loop iterations executed by each thread
    resident_blocks_per_sm: int
    active_sms: int
    active_warps_per_sm: int  # the Hong model's N
    rep: int  # Hong's #Rep: waves of resident blocks

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    @property
    def warps_per_block(self) -> int:
        return -(-self.threads_per_block // 32)

    @property
    def total_warps(self) -> int:
        return self.num_blocks * self.warps_per_block

    def describe(self) -> str:
        return (
            f"<<<{self.num_blocks}, {self.threads_per_block}>>> "
            f"OMP_Rep={self.omp_rep} Rep={self.rep} N={self.active_warps_per_sm} "
            f"activeSMs={self.active_sms}"
        )


def plan_gpu_launch(parallel_iterations: int, gpu: GPUDescriptor) -> GPULaunchPlan:
    """Select grid geometry the way the OpenMP runtime would.

    Blocks hold :data:`DEFAULT_THREADS_PER_BLOCK` threads.  The grid is
    capped at the device's co-residency limit (``num_sms ×
    max_blocks_per_sm``, further limited by threads/SM); a larger
    iteration space is covered by giving every thread ``omp_rep``
    iterations (static schedule: thread ``t`` takes ``t``, ``t+T``, ...).
    """
    if parallel_iterations <= 0:
        raise ValueError("parallel_iterations must be positive")
    threads_per_block = DEFAULT_THREADS_PER_BLOCK
    if gpu.max_threads_per_block < threads_per_block:
        raise ValueError(
            f"{gpu.name} caps blocks at {gpu.max_threads_per_block} threads, "
            f"below the runtime's {threads_per_block}"
        )

    blocks_needed = -(-parallel_iterations // threads_per_block)
    blocks_per_sm_limit = min(
        gpu.max_blocks_per_sm,
        max(1, gpu.max_threads_per_sm // threads_per_block),
    )
    grid_cap = gpu.num_sms * blocks_per_sm_limit
    num_blocks = min(blocks_needed, grid_cap)

    total_threads = num_blocks * threads_per_block
    omp_rep = -(-parallel_iterations // total_threads)

    active_sms = min(num_blocks, gpu.num_sms)
    resident = min(blocks_per_sm_limit, -(-num_blocks // active_sms))
    warps_per_block = -(-threads_per_block // gpu.warp_size)
    n_warps = min(resident * warps_per_block, gpu.max_warps_per_sm)
    rep = -(-num_blocks // (resident * active_sms))

    return GPULaunchPlan(
        parallel_iterations=parallel_iterations,
        threads_per_block=threads_per_block,
        num_blocks=num_blocks,
        omp_rep=omp_rep,
        resident_blocks_per_sm=resident,
        active_sms=active_sms,
        active_warps_per_sm=max(1, n_warps),
        rep=max(1, rep),
    )
