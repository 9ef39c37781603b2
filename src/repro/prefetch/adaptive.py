"""The paper's adaptive prefetching mechanism (Section 3).

One saturating counter per cache scales the number of startup prefetches
a newly-allocated stream launches; at zero, prefetching for that cache is
disabled entirely.  The counter starts at its maximum and moves by one on
three events observed at the cache:

* **useful** — a demand hit finds the line's prefetch bit set (+1);
* **useless** — a replacement victimises a line whose prefetch bit is
  still set, i.e. it was prefetched but never referenced (−1);
* **harmful** — a demand miss matches one of the set's invalid *victim
  tags* while the set still holds an unreferenced prefetched line, so a
  prefetch plausibly displaced a useful line (−1, the paper's
  "conservative assumption").
"""

from __future__ import annotations

from repro.stats.counters import PrefetchStats


class AdaptiveController:
    """Saturating counter + event hooks for one cache's prefetcher."""

    #: When the counter is pinned at zero, every Nth confirmed stream still
    #: launches a single probe prefetch.  Without this the mechanism can
    #: never observe a useful prefetch again and stays off forever, even
    #: when the workload enters a prefetch-friendly phase.
    PROBE_INTERVAL = 8

    def __init__(self, counter_max: int = 16, enabled: bool = True) -> None:
        if counter_max <= 0:
            raise ValueError("counter_max must be positive")
        self.counter_max = counter_max
        self.enabled = enabled
        self.counter = counter_max
        self.useful_events = 0
        self.useless_events = 0
        self.harmful_events = 0
        self._probe_clock = 0
        # The one observer reference (repro.obs.observers) and the name
        # its feedback events carry, both set by MemoryHierarchy.observe.
        # Observers read the counter; they never influence it.
        self.observer = None
        self.name = ""

    @property
    def prefetching_enabled(self) -> bool:
        return not self.enabled or self.counter > 0

    def startup_count(self, max_startup: int) -> int:
        """Startup prefetches a new stream may launch right now.

        Without adaptation this is always ``max_startup``; with it, the
        count scales linearly with the counter (Table 1's "at most for
        the adaptive scheme") and reaches zero when disabled.
        """
        if not self.enabled or max_startup <= 0:
            # A configured degree of zero is an upper bound like any
            # other: the trickle/probe bumps below must not raise it,
            # or ``throttled = max_startup - startup`` goes negative
            # and the "off" configuration issues prefetches.
            return max_startup
        startup = max_startup * self.counter // self.counter_max
        if startup == 0 and self.counter > 0:
            startup = 1  # a live counter always lets streams trickle
        if startup == 0:
            self._probe_clock += 1
            if self._probe_clock % self.PROBE_INTERVAL == 0:
                return 1
        return startup

    def on_useful(self) -> None:
        self.useful_events += 1
        if self.enabled and self.counter < self.counter_max:
            self.counter += 1
        if self.observer is not None:
            self.observer.throttle_feedback(self.name, "useful", self.counter)

    def on_useless(self) -> None:
        self.useless_events += 1
        if self.enabled and self.counter > 0:
            self.counter -= 1
        if self.observer is not None:
            self.observer.throttle_feedback(self.name, "useless", self.counter)

    def on_harmful(self) -> None:
        self.harmful_events += 1
        if self.enabled and self.counter > 0:
            self.counter -= 1
        if self.observer is not None:
            self.observer.throttle_feedback(self.name, "harmful", self.counter)

    def record(self, stats: PrefetchStats) -> None:
        """Copy event totals into a stats bundle at end of run."""
        stats.useful = self.useful_events
        stats.useless = self.useless_events
        stats.harmful = self.harmful_events
