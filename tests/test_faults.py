"""Fault-injection subsystem: plan parsing, selectors, determinism.

The injector is the foundation the resilience tests stand on, so its
own semantics are pinned here: clause grammar, selector matching,
attempt gating, occurrence counting and the parsed-plan cache.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults.inject import parse_plan


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestParsing:
    def test_single_clause(self):
        plan = parse_plan("kill@3")
        (clause,) = plan["kill"]
        assert clause.selectors == [("at", 3)]
        assert clause.times == 1
        assert clause.arg is None

    def test_arg_and_times(self):
        plan = parse_plan("hang(2.5)@0,4x3")
        (clause,) = plan["hang"]
        assert clause.arg == 2.5
        assert clause.selectors == [("at", 0), ("at", 4)]
        assert clause.times == 3

    def test_all_selector_forms(self):
        plan = parse_plan("hang@1-4;corrupt@2,5;kill@*")
        assert plan["hang"][0].selectors == [("range", 1, 4)]
        assert plan["corrupt"][0].selectors == [("at", 2), ("at", 5)]
        assert plan["kill"][0].selectors == [("always",)]

    def test_multiple_clauses_same_kind(self):
        plan = parse_plan("kill@1;kill@5")
        assert len(plan["kill"]) == 2

    def test_empty_clauses_skipped(self):
        assert parse_plan(" ; kill@1 ; ") == {"kill": parse_plan("kill@1")["kill"]}

    @pytest.mark.parametrize("bad", [
        "explode@1",          # unknown kind
        "kill",               # no selector
        "kill@",              # empty selector
        "kill@x",             # not an index
        "kill@1x0",           # zero times
        "hang(fast)@1",       # non-numeric arg
        "slowio@p:2.0:1",     # a kind and a selector that are gone
        "corrupt@every:0",    # a selector that is gone
        "slowio@p:0.5",       # a kind and a selector that are gone
        "snapkill@1",         # a kind whose site is gone
        "transient@1",        # a kind nothing but the injector raised
        "slowio(0.01)@1",     # a kind whose only effect was a sleep
        "kill@every:3",       # the modulo selector is gone
        "kill@p:0.5:1",       # the probabilistic selector is gone
    ])
    def test_malformed_clause_readable_error(self, bad):
        with pytest.raises(ValueError) as err:
            parse_plan(bad)
        assert "REPRO_FAULTS" in str(err.value)


class TestSelection:
    def test_inactive_is_none(self):
        assert faults.should("kill", index=0) is None
        assert not faults.active()

    def test_index_match(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@2")
        assert faults.should("kill", index=1) is None
        hit = faults.should("kill", index=2)
        assert hit is not None and hit.kind == "kill"
        assert faults.should("hang", index=2) is None  # other kinds silent

    def test_attempt_gating_defaults_to_first_attempt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@2")
        assert faults.should("kill", index=2, attempt=0) is not None
        assert faults.should("kill", index=2, attempt=1) is None

    def test_times_widens_attempt_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@2x3")
        fired = [faults.should("kill", index=2, attempt=a) is not None
                 for a in range(5)]
        assert fired == [True, True, True, False, False]

    def test_range_and_every(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@2-4;corrupt@0,3,6;hang@*")
        assert [faults.should("kill", index=i) is not None for i in range(6)] == [
            False, False, True, True, True, False,
        ]
        assert [faults.should("corrupt", index=i) is not None for i in range(7)] == [
            True, False, False, True, False, False, True,
        ]
        assert all(faults.should("hang", index=i) is not None for i in range(7))

    def test_occurrence_counter_when_no_index(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@1")
        # First call is occurrence 0, second is occurrence 1, ...
        assert faults.should("corrupt") is None
        assert faults.should("corrupt") is not None
        assert faults.should("corrupt") is None

    def test_arg_carried_on_hit(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang(0.125)@*")
        hit = faults.should("hang", index=3)
        assert hit is not None and hit.arg == 0.125

    def test_reset_restarts_occurrence_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@0")
        assert faults.should("corrupt") is not None
        assert faults.should("corrupt") is None
        faults.reset()
        assert faults.should("corrupt") is not None


class TestDeterminism:
    def test_plan_cache_tracks_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@0")
        assert faults.should("kill", index=0) is not None
        monkeypatch.setenv("REPRO_FAULTS", "kill@5")
        assert faults.should("kill", index=0) is None
        assert faults.should("kill", index=5) is not None
