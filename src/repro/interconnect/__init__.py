"""Off-chip pin link and message modeling."""

from repro.interconnect.link import PinLink

__all__ = ["PinLink"]
