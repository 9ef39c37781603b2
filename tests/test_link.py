"""Tests for the pin link model."""

from __future__ import annotations

from repro.interconnect.link import PinLink
from repro.params import LinkConfig


def make_link(gbs=20.0, compressed=False, clock=5.0) -> PinLink:
    return PinLink(LinkConfig(bandwidth_gbs=gbs, compressed=compressed), clock_ghz=clock)


class TestRequests:
    def test_request_has_fixed_transit(self):
        link = make_link()
        assert link.send_request(100.0) == 100.0 + PinLink.REQUEST_TRANSIT

    def test_requests_never_queue_behind_data(self):
        link = make_link(gbs=5.0)
        link.send_data(0.0, segments=8)  # occupies data pins for a while
        assert link.send_request(1.0) == 1.0 + PinLink.REQUEST_TRANSIT

    def test_request_bytes_counted(self):
        link = make_link()
        link.send_request(0.0)
        assert link.stats.bytes_total == 8
        assert link.stats.bytes_header == 8


class TestDataTransfers:
    def test_serialization_time(self):
        # 20 GB/s at 5 GHz = 4 bytes/cycle; 72-byte message = 18 cycles.
        link = make_link(gbs=20.0)
        assert link.send_data(0.0, segments=8) == 18.0

    def test_back_to_back_queues(self):
        link = make_link(gbs=20.0)
        first = link.send_data(0.0, segments=8)
        second = link.send_data(0.0, segments=8)
        assert second == first + 18.0
        assert link.stats.queue_cycles == first

    def test_compressed_message_is_shorter(self):
        link = make_link(gbs=20.0, compressed=True)
        # 1 segment: header(8) + 8 bytes = 16 bytes = 4 cycles.
        assert link.send_data(0.0, segments=1) == 4.0

    def test_infinite_bandwidth_never_queues(self):
        link = make_link(gbs=None)
        for t in (0.0, 0.5, 0.5):
            assert link.send_data(t, segments=8) == t
        assert link.stats.queue_cycles == 0.0
        assert link.stats.bytes_total == 3 * 72

    def test_idle_gap_then_transfer(self):
        link = make_link(gbs=20.0)
        link.send_data(0.0, segments=8)  # busy until 18
        assert link.send_data(100.0, segments=8) == 118.0
        assert link.stats.queue_cycles == 0.0


class TestAccounting:
    def test_uncompressed_equivalent(self):
        link = make_link(compressed=True)
        link.send_data(0.0, segments=2)
        assert link.stats.bytes_data == 16
        assert link.stats.uncompressed_equiv_bytes == 72
        assert link.stats.data_messages == 1

    def test_flit_counts(self):
        link = make_link(compressed=True)
        link.send_data(0.0, segments=3)
        assert link.stats.flits == 4  # header + 3 segments

    def test_occupancy(self):
        link = make_link(gbs=20.0)
        link.send_data(0.0, segments=8)
        assert abs(link.occupancy(36.0) - 0.5) < 1e-9
        assert make_link(gbs=None).occupancy(100.0) == 0.0

    def test_demand_gbs(self):
        link = make_link(gbs=None)
        link.send_data(0.0, segments=8)  # 72 bytes
        # 72 bytes over 72 cycles at 5 GHz = 5 GB/s
        assert abs(link.stats.demand_gbs(72.0, 5.0) - 5.0) < 1e-9
