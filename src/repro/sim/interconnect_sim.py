"""Interconnect transfer simulator.

More detailed than the predictor's transfer model: each mapped array is a
separate DMA (its own setup latency), moved through pinned staging buffers
with a realistic efficiency factor — the small systematic difference
between this simulator and :mod:`repro.models.transfer` is part of the
predictor's error budget, as on real machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..ir import Region
from ..machines import InterconnectDescriptor

__all__ = ["TransferSimResult", "simulate_dmas", "simulate_transfers"]

#: Fraction of nominal bus bandwidth achieved through staging buffers.
STAGING_EFFICIENCY = 0.92


@dataclass(frozen=True)
class TransferSimResult:
    """Simulated host↔device data movement for one region launch."""

    bytes_to_device: int
    bytes_to_host: int
    seconds_to_device: float
    seconds_to_host: float
    num_transfers: int

    @property
    def total_seconds(self) -> float:
        """Wall time of all transfers.

        Both studied buses are full duplex and the runtime issues the two
        directions asynchronously, so they overlap: the slower direction
        hides the faster one.  (The analytical transfer model adds the two
        — a deliberate predictor/hardware discrepancy.)
        """
        return max(self.seconds_to_device, self.seconds_to_host)

    @property
    def total_bytes(self) -> int:
        return self.bytes_to_device + self.bytes_to_host


def simulate_dmas(
    to_device: Sequence[int],
    to_host: Sequence[int],
    bus: InterconnectDescriptor,
) -> TransferSimResult:
    """Price one DMA per byte count in each direction.

    Each DMA pays the bus setup latency and moves its bytes through
    pinned staging buffers at :data:`STAGING_EFFICIENCY` of the nominal
    bandwidth; a direction's DMAs run back to back, in the given order.
    """
    latency_s = bus.latency_us * 1e-6
    rate = bus.bandwidth_gbs * 1e9 * STAGING_EFFICIENCY

    def seconds(dmas: Sequence[int]) -> float:
        total = 0.0
        for nbytes in dmas:
            total += latency_s + nbytes / rate
        return total

    return TransferSimResult(
        bytes_to_device=sum(to_device),
        bytes_to_host=sum(to_host),
        seconds_to_device=seconds(to_device),
        seconds_to_host=seconds(to_host),
        num_transfers=len(to_device) + len(to_host),
    )


def simulate_transfers(
    region: Region,
    bus: InterconnectDescriptor,
    env: Mapping[str, int],
) -> TransferSimResult:
    """Simulate the per-array DMAs the OpenMP runtime issues for a region.

    One DMA per mapped array and direction, in declaration order.
    """
    to_device: list[int] = []
    to_host: list[int] = []
    for arr in region.arrays.values():
        nbytes = int(arr.element_count().evaluate(env)) * arr.dtype.size
        if arr.is_input:
            to_device.append(nbytes)
        if arr.is_output:
            to_host.append(nbytes)
    return simulate_dmas(to_device, to_host, bus)
