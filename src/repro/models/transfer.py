"""Host↔device data-transfer cost model.

Kernel execution time in all the paper's experiments *includes data
transfer* (but not CUDA context initialization), so the GPU predictor must
price moving the region's mapped arrays both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import InterconnectDescriptor

__all__ = ["TransferEstimate", "estimate_transfer"]


@dataclass(frozen=True)
class TransferEstimate:
    """Predicted host↔device movement cost for one region launch."""

    bytes_to_device: int
    bytes_to_host: int
    seconds_to_device: float
    seconds_to_host: float

    @property
    def total_seconds(self) -> float:
        return self.seconds_to_device + self.seconds_to_host


def estimate_transfer(
    bytes_to_device: int,
    bytes_to_host: int,
    bus: InterconnectDescriptor,
) -> TransferEstimate:
    """Price the two mapped-data movements over the given bus.

    Raises :class:`ValueError` on a negative byte count in either
    direction — a sign of a corrupted binding upstream that would
    otherwise surface as a nonsensical (negative) predicted time.
    """
    if bytes_to_device < 0 or bytes_to_host < 0:
        raise ValueError(
            f"negative transfer size (to_device={bytes_to_device}, "
            f"to_host={bytes_to_host} bytes)"
        )
    return TransferEstimate(
        bytes_to_device=bytes_to_device,
        bytes_to_host=bytes_to_host,
        seconds_to_device=bus.transfer_seconds(bytes_to_device),
        seconds_to_host=bus.transfer_seconds(bytes_to_host),
    )
