"""External trace ingestion: validated text format, structured errors,
skip-and-count recovery, and endless replay through
:meth:`TracePack.iterator`."""

from __future__ import annotations

import pytest

from repro.trace.format import TraceHeader
from repro.trace.io import (
    TraceFormatError,
    TracePack,
    load_external_trace,
    record_trace,
)
from repro.workloads.base import IFETCH, LOAD, STORE

GOOD = """\
# captured outside the repo
workload = oltp
cores = 2
seed = 7

0 3 ifetch 0x40      # kinds by name ...
1 0 load 64
0 1 2 100            # ... or by number (2 = store)
1 12 store 0xFFFF
"""


def _write(tmp_path, text, name="ext.trace"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestTextParsing:
    def test_good_trace(self, tmp_path):
        pack = load_external_trace(_write(tmp_path, GOOD))
        assert (pack.workload, pack.n_cores, pack.header.seed) == ("oltp", 2, 7)
        assert pack.per_core_events[0] == [(3, IFETCH, 0x40), (1, STORE, 100)]
        assert pack.per_core_events[1] == [(0, LOAD, 64), (12, STORE, 0xFFFF)]
        assert pack.skipped_records == 0 and pack.dropped_tail == 0

    def test_autodetects_text_vs_binary(self, tmp_path):
        text = _write(tmp_path, GOOD)
        assert TracePack.load(text).n_cores == 2
        binary = tmp_path / "bin.rptr"
        record_trace("oltp", n_cores=2, events_per_core=10).save(binary)
        pack = TracePack.load(binary)
        assert (pack.n_cores, pack.events_per_core) == (2, 10)

    def test_ragged_cores_drop_tail(self, tmp_path):
        text = GOOD + "0 1 load 7\n0 1 load 8\n"
        pack = load_external_trace(_write(tmp_path, text))
        assert pack.events_per_core == 2
        assert pack.dropped_tail == 2

    @pytest.mark.parametrize("line,field", [
        ("9 0 load 64", "core"),
        ("0 x load 64", "gap"),
        ("0 0 bogus 64", "kind"),
        ("0 0 load nope", "addr"),
        ("0 0 load", "record"),
        ("0 -1 load 64", "gap"),
        ("0 0 load 0x10000000000000000", "addr"),
    ])
    def test_bad_record_names_file_line_field(self, tmp_path, line, field):
        path = _write(tmp_path, GOOD + line + "\n")
        with pytest.raises(TraceFormatError) as err:
            load_external_trace(path)
        assert (err.value.path, err.value.line, err.value.field) == (
            str(path), 10, field
        )
        assert str(err.value).startswith(f"{path}:10: bad {field}:")

    def test_unknown_workload_directive(self, tmp_path):
        path = _write(tmp_path, "workload=not_a_workload\ncores=1\n0 0 load 1\n")
        with pytest.raises(TraceFormatError) as err:
            load_external_trace(path)
        assert err.value.field == "workload" and err.value.line == 1

    def test_missing_directive(self, tmp_path):
        with pytest.raises(TraceFormatError) as err:
            load_external_trace(_write(tmp_path, "cores=2\n0 0 load 1\n"))
        assert err.value.field == "workload"

    def test_unknown_directive(self, tmp_path):
        with pytest.raises(TraceFormatError) as err:
            load_external_trace(_write(tmp_path, "speed=9\n"))
        assert err.value.field == "directive"

    def test_empty_file(self, tmp_path):
        with pytest.raises(TraceFormatError) as err:
            load_external_trace(_write(tmp_path, "# nothing here\n"))
        assert err.value.field == "body" and err.value.line == 0

    def test_skip_bad_records_counts(self, tmp_path):
        text = GOOD + "0 0 bogus 64\n1 zz load 64\n0 1 load 5\n1 1 load 5\n"
        path = _write(tmp_path, text)
        pack = load_external_trace(path, skip_bad_records=True)
        assert pack.skipped_records == 2
        assert pack.events_per_core == 3

    def test_skip_cannot_rescue_empty_core(self, tmp_path):
        text = "workload=oltp\ncores=2\n0 0 load 1\n1 0 bogus 1\n"
        with pytest.raises(TraceFormatError, match="core 1 has no valid"):
            load_external_trace(_write(tmp_path, text), skip_bad_records=True)


class TestBinaryReader:
    def test_truncated_body(self, tmp_path):
        path = tmp_path / "t.rptr"
        record_trace("oltp", n_cores=2, events_per_core=8).save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError) as err:
            TracePack.load(path)
        assert err.value.field == "record" and err.value.line == 16

    def test_bad_kind_skip_and_count(self, tmp_path):
        path = tmp_path / "t.rptr"
        record_trace("oltp", n_cores=2, events_per_core=4).save(path)
        data = bytearray(path.read_bytes())
        # Record layout after the header: u32 gap, u8 kind, u64 addr.
        header_len = len(TraceHeader(workload="oltp", n_cores=2,
                                     events_per_core=4, seed=0).encode())
        data[header_len + 4] = 0xEE  # first record's kind byte
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as err:
            TracePack.load(path)
        assert err.value.field == "kind" and err.value.line == 1
        pack = TracePack.load(path, skip_bad_records=True)
        assert pack.skipped_records == 1
        assert pack.events_per_core == 3  # truncated to shortest stream

    def test_mangled_header_is_header_error(self, tmp_path):
        path = tmp_path / "t.rptr"
        path.write_bytes(b"RPTR\x00")  # right magic, truncated header
        with pytest.raises(TraceFormatError) as err:
            TracePack.load(path)
        assert err.value.field == "header" and err.value.line == 0

    def test_non_trace_bytes_fall_through_to_text_error(self, tmp_path):
        path = tmp_path / "t.rptr"
        path.write_bytes(b"NOPE garbage bytes\n")
        with pytest.raises(TraceFormatError):
            TracePack.load(path)


class TestPackIterator:
    EVENTS = [(1, LOAD, 10), (2, STORE, 20), (3, IFETCH, 30)]

    def _pack(self, *per_core):
        return TracePack(TraceHeader("zeus", len(per_core), 3, 0), per_core)

    def test_wraps_around(self):
        it = self._pack(self.EVENTS).iterator(0)
        drawn = [next(it) for _ in range(5)]
        assert drawn == self.EVENTS + self.EVENTS[:2]

    def test_rejects_empty(self):
        # An endless replay of nothing would never yield: refuse it.
        with pytest.raises(ValueError):
            self._pack(self.EVENTS, []).iterator(1)


class TestReplayCLI:
    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = _write(tmp_path, GOOD + "0 0 bogus 64\n", name="bad.trace")
        code = main(["replay", str(path), "--events", "50", "--warmup", "50",
                     "--scale", "16"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:10: bad kind:" in err

    def test_skip_bad_records_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = _write(tmp_path, GOOD + "0 0 bogus 64\n0 1 load 5\n1 1 load 5\n")
        code = main(["replay", str(path), "--skip-bad-records", "--events",
                     "50", "--warmup", "50", "--scale", "16", "--json"])
        assert code == 0
        out = capsys.readouterr()
        row = json.loads(out.out)[0]
        assert row["extra"]["skipped_records"] == 1.0
        assert "skipped 1 malformed record" in out.err
