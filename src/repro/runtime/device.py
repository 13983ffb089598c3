"""Device abstractions the offloading runtime dispatches to.

A :class:`Device` wraps "hardware" (a timing simulator) behind the execute
interface the runtime uses.  ``execute`` returns the region's wall time the
way the paper measures it: host time is the parallel region itself; device
time includes data transfers but never CUDA context initialization.

``execute`` takes the region's compiled record
(:class:`~repro.analysis.RegionAttributes`), not the bare region, and
hands it whole to the simulators, so a launch only evaluates its
products (IPDA strides, trip plan, loadout monomials and, on the host,
the loop nest lowered for this device's CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..analysis import RegionAttributes
from ..machines import CPUDescriptor, GPUDescriptor, InterconnectDescriptor
from ..sim import simulate_cpu, simulate_gpu_kernel, simulate_transfers

__all__ = ["Device", "HostDevice", "AcceleratorDevice", "ExecutionRecord"]


@dataclass(frozen=True)
class ExecutionRecord:
    """Outcome of executing one region on one device."""

    device_name: str
    kind: str  # "cpu" | "gpu"
    seconds: float
    detail: object  # the underlying simulator result(s)


class Device:
    """Common interface of execution targets."""

    name: str
    kind: str

    def execute(
        self, attrs: RegionAttributes, env: Mapping[str, int]
    ) -> ExecutionRecord:
        raise NotImplementedError


class HostDevice(Device):
    """The host CPU running the parallel fallback version."""

    kind = "cpu"

    def __init__(self, cpu: CPUDescriptor, *, num_threads: int | None = None):
        self.cpu = cpu
        self.num_threads = num_threads
        self.name = cpu.name if num_threads is None else f"{cpu.name}x{num_threads}"

    def execute(
        self, attrs: RegionAttributes, env: Mapping[str, int]
    ) -> ExecutionRecord:
        res = simulate_cpu(attrs, self.cpu, env, num_threads=self.num_threads)
        return ExecutionRecord(self.name, self.kind, res.seconds, res)

    def __repr__(self) -> str:
        return f"HostDevice({self.name})"


class AcceleratorDevice(Device):
    """A GPU behind a bus, running the SIMT version of the region."""

    kind = "gpu"

    def __init__(
        self,
        gpu: GPUDescriptor,
        bus: InterconnectDescriptor,
        *,
        threads_per_block: int = 128,
    ):
        self.gpu = gpu
        self.bus = bus
        self.threads_per_block = threads_per_block
        self.name = f"{gpu.name} via {bus.name}"

    def execute(
        self, attrs: RegionAttributes, env: Mapping[str, int]
    ) -> ExecutionRecord:
        kernel = simulate_gpu_kernel(
            attrs, self.gpu, env, threads_per_block=self.threads_per_block
        )
        xfer = simulate_transfers(attrs.region, self.bus, env)
        total = kernel.seconds + xfer.total_seconds
        return ExecutionRecord(self.name, self.kind, total, (kernel, xfer))

    def __repr__(self) -> str:
        return f"AcceleratorDevice({self.name})"
