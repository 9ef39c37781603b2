"""Command-line interface, for example::

    python -m repro run zeus --config pref_compr --events 10000
    python -m repro run zeus --config pref_compr --audit --verify
    python -m repro run zeus --config pref_compr --why why.json --trace trace.json
    python -m repro run zeus --config adaptive_compr --metrics metrics.csv --interval 2000
    python -m repro sweep --workloads zeus,jbb --configs base,pref,compr
    python -m repro sweep --workloads zeus,jbb --jobs 4
    python -m repro sweep --workloads zeus,jbb --jobs 4 --resume
    python -m repro cache stats
    python -m repro cache verify
    python -m repro record zeus trace.rpt --events 20000
    python -m repro replay trace.rpt --config compr
    python -m repro table5
    python -m repro figure8 --workloads oltp --attribution
    python -m repro matrix --workloads chase -o matrix.csv
    python -m repro matrix --workloads chase --attribution
    python -m repro schemes oltp
    python -m repro telemetry runs.jsonl
    python -m repro profile zeus -o profile.json
    python -m repro config

``run``, ``sweep`` and ``replay`` print an aligned table; ``--json`` /
``--csv`` switch their format for piping into other tools.  ``run``'s
lens flags (``--audit``, ``--trace``, ``--metrics``, ``--why``,
``--verify``) arm their observers together on the one simulated system
and print one section each after the table (on stderr under ``--json``
/ ``--csv``, so stdout stays machine-readable).
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Iterator, List, Optional

from repro import settings
from repro.core import durable
from repro.core.experiment import completed, run_points, stored_points
from repro.core.interaction import InteractionBreakdown
from repro.core.results import SimulationResult
from repro.core.runner import PointSpec
from repro.params import CONFIG_FEATURES, config_features, make_config
from repro.report.export import results_to_csv, results_to_json
from repro.report.tables import Table
from repro.workloads.registry import all_names, get_spec


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", type=int, default=10_000, help="measured events per core")
    p.add_argument("--warmup", type=int, default=None, help="warmup events per core")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=4, help="capacity scale divisor")
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--bandwidth", type=float, default=20.0, help="pin GB/s; 0 = infinite")


def _add_format_args(p: argparse.ArgumentParser) -> None:
    """``--json`` / ``--csv``: only on the commands :func:`_emit` prints for."""
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")


def _emit(results: List[SimulationResult], args) -> None:
    if args.json:
        print(results_to_json(results))
        return
    if args.csv:
        print(results_to_csv(results), end="")
        return
    table = Table(
        ["workload", "config", "cycles", "ipc", "l2 miss%", "GB/s", "ratio"],
        float_format="{:.3f}",
    )
    for r in results:
        table.add_row(
            [
                r.workload,
                r.config_name,
                int(r.elapsed_cycles),
                r.ipc,
                100 * r.l2.miss_rate,
                r.bandwidth_gbs,
                r.compression_ratio,
            ]
        )
    print(table.render())


def _machine(args) -> dict:
    """:func:`make_config`'s machine arguments from the run flags."""
    return dict(
        n_cores=args.cores,
        scale=args.scale,
        bandwidth_gbs=args.bandwidth or None,
        infinite_bandwidth=args.bandwidth == 0,
    )


def _sizing(args) -> dict:
    warmup = args.warmup if args.warmup is not None else args.events
    return dict(seed=args.seed, events=args.events, warmup=warmup)


def _point(workload: str, key: str, args, attribution: bool = False) -> PointSpec:
    """One named config at the command's sizing, as a pipeline point;
    ``attribution`` turns causal attribution on in its config."""
    if attribution:
        config = replace(make_config(key, **_machine(args)), attribution=True)
        return (workload, config), dict(_sizing(args), name=key)
    return (workload, key), dict(_sizing(args), **_machine(args))


def _workloads(args) -> List[str]:
    """The ``--workloads`` list (every workload when unset); an unknown
    name is an operator error before any point runs."""
    workloads = args.workloads.split(",") if args.workloads else all_names()
    for workload in workloads:
        get_spec(workload)
    return workloads


def _configs(args) -> List[str]:
    """The ``--configs`` list; an unknown key is an operator error
    before any point runs or any cache entry is written."""
    keys = args.configs.split(",")
    for key in keys:
        config_features(key)
    return keys


def _run_points(points: List[PointSpec]) -> List[SimulationResult]:
    """Run a command's points, on ``REPRO_JOBS`` workers when it is set."""
    return completed(run_points(points, jobs=settings.get("REPRO_JOBS")))


def cmd_run(args) -> int:
    """Simulate one point, never through the result cache.  Each lens
    flag turns its observer's config field on, so all of them ride the
    one run; ``--verify`` runs it under the functional oracle.  An audit
    violation or an oracle mismatch stops the run (exit 1); after it,
    each lens prints its section and the worst section code is the
    exit code."""
    from repro.core.system import CMPSystem

    plain = make_config(args.config, **_machine(args))
    lenses = dict(audit=args.audit, trace=args.trace is not None,
                  metrics=args.metrics is not None, attribution=args.why is not None)
    if args.interval is not None:
        lenses["metrics_interval"] = args.interval
    system = CMPSystem(replace(plain, **lenses), args.workload, seed=args.seed)
    run, stops = CMPSystem.run, []
    if args.audit:
        from repro.obs.audit import AuditViolation

        stops.append(AuditViolation)
    if args.verify:
        from repro.verify.oracle import OracleMismatch, verify_system

        stops.append(OracleMismatch)

        def run(*a, **kw):
            return verify_system(*a, **kw)[0]
    try:
        result = run(system, args.events, warmup_events=_sizing(args)["warmup"],
                     config_name=args.config)
    except tuple(stops) as exc:
        print(f"{type(exc).__name__} in {args.workload}/{args.config}:", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    _emit([result], args)
    out = sys.stderr if args.json or args.csv else sys.stdout
    code = 0
    if args.audit:
        print(f"audit OK: {system.auditor.checks_run} check(s), 0 violations", file=out)
    if args.verify:
        print(f"oracle OK: {args.workload}/{args.config}, {args.events} events/core",
              file=out)
    if args.trace is not None:
        code = max(code, _trace_lens(system.tracer, args.trace, out))
    if args.metrics is not None:
        code = max(code, _metrics_lens(system.sampler, args, out))
    if args.why is not None:
        code = max(code, _why_lens(system.observer.attribution, result, args, out))
    if args.properties:
        code = max(code, _properties(plain, args, out))
    return code


def _trace_lens(tracer, path: str, out) -> int:
    """Write the Perfetto/Chrome trace; exit 1 on a schema problem."""
    from repro.obs.trace import validate_trace

    problems = validate_trace(tracer.to_dict())
    tracer.write(path)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {len(tracer.events)} trace event(s){dropped} to {path}", file=out)
    print("open in https://ui.perfetto.dev or chrome://tracing", file=out)
    for problem in problems[:10]:
        print(f"schema: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _metrics_lens(sampler, args, out) -> int:
    """Write and chart the interval series; exit 1 on no samples, 2 on
    an unknown ``--columns`` name."""
    from repro.report.charts import timeseries_chart

    if args.metrics:
        sampler.write(args.metrics)
        print(f"wrote {sampler.samples} sample(s) to {args.metrics}", file=out)
    if sampler.samples == 0:
        print("no samples recorded (run shorter than one interval); "
              "lower --interval", file=sys.stderr)
        return 1
    columns = (
        args.columns.split(",") if args.columns
        else [c for c in sampler.columns if c != "cycle"]
    )
    unknown = [c for c in columns if c not in sampler.series]
    if unknown:
        print(f"error: unknown metric column(s): {', '.join(unknown)}; "
              f"choose from {', '.join(sampler.columns)}", file=sys.stderr)
        return 2
    print(f"{args.workload}/{args.config}: {sampler.samples} sample(s) "
          f"every {sampler.interval} simulated cycles", file=out)
    print(timeseries_chart({c: sampler.series[c] for c in columns}), file=out)
    return 0


def _why_lens(tracker, result, args, out) -> int:
    """Print (and write) the why table; exit 1 unless it reconciles."""
    print(
        f"{args.workload}/{args.config}: {result.events} event(s), "
        f"{result.l2.demand_misses} L2 demand miss(es), "
        f"{result.l2.evictions} L2 eviction(s)", file=out,
    )
    print(tracker.table(), file=out)
    if args.why:
        tracker.write(args.why)
        print(f"wrote attribution JSON to {args.why}", file=out)
    problems = tracker.reconcile_result(result)
    for problem in problems:
        print(f"reconcile: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("attribution reconciles exactly with the stats counters", file=out)
    return 0


def _properties(plain, args, out) -> int:
    """The metamorphic property suite on the point's plain config."""
    from repro.verify.properties import ALL_PROPERTIES, PropertyViolation

    failed = 0
    for name, check in ALL_PROPERTIES.items():
        if name == "bandwidth_monotonicity" and plain.link.bandwidth_gbs is None:
            print(f"property {name}: skipped (bandwidth already infinite)", file=out)
            continue
        try:
            check(plain, args.workload, seed=args.seed, events=args.events)
        except PropertyViolation as exc:
            failed += 1
            print(f"property {name}: FAILED", file=sys.stderr)
            print(str(exc), file=sys.stderr)
        else:
            print(f"property {name}: OK", file=out)
    return 1 if failed else 0


@contextmanager
def resume_guard(
    points: Optional[List[PointSpec]], resume_command: str, stream=None
) -> Iterator[None]:
    """Install SIGINT/SIGTERM handlers for the duration of a sweep: on
    either signal the resume command is printed and the usual
    interrupt/terminate control flow proceeds (exit code 130/143).

    ``points`` are the sweep's points when the result cache is on for
    it (every completed point is already stored there); None says the
    cache is off, so nothing was kept and no resume is promised.
    Harmless outside the main thread or where signals are unavailable —
    it degrades to a no-op context.
    """
    out = stream if stream is not None else sys.stderr

    def _handler(signum, _frame):
        if points is None:
            print("\ninterrupted: the result cache is off (REPRO_CACHE=0), so no "
                  "point was kept; --resume keeps it on:", file=out)
            print(f"  {resume_command}", file=out)
        else:
            print(f"\ninterrupted: {stored_points(points)} completed point(s) "
                  f"stored in {settings.get('REPRO_CACHE_DIR')}", file=out)
            print(f"resume with:\n  {resume_command}", file=out)
        if signum == getattr(signal, "SIGTERM", None):
            raise SystemExit(143)
        raise KeyboardInterrupt

    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # not the main thread / unsupported
                pass
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass


def cmd_sweep(args) -> int:
    from repro.core.sweep import Sweep

    if args.jobs < 0:
        raise ValueError(f"--jobs must be >= 0 (0 = REPRO_JOBS/cpu count), got {args.jobs}")
    workloads = _workloads(args)
    keys = _configs(args)
    coords = [(w, k) for w in workloads for k in keys]
    # Live progress on stderr when it is a terminal; --quiet suppresses.
    progress = None
    if not args.quiet:
        from repro.obs.progress import default_progress

        progress = default_progress()
    run_kwargs = dict(_sizing(args), **_machine(args))
    resume_command = "python -m repro " + " ".join(sys.argv[1:] if sys.argv else [])
    if "--resume" not in resume_command:
        resume_command += " --resume"
    sweep = Sweep().dimension("workload", workloads).dimension("key", keys)
    if args.jobs == 0:
        from repro.core.runner import default_jobs

        jobs = default_jobs()
    else:
        jobs = args.jobs
    # The result cache is the sweep's checkpoint: --resume keeps it on
    # for this sweep and the workers it forks, even under REPRO_CACHE=0.
    with settings.suspended("REPRO_CACHE") if args.resume else nullcontext():
        points = None
        if settings.get("REPRO_CACHE"):
            points = [(coord, run_kwargs) for coord in coords]
        loaded = stored_points(points) if args.resume else 0
        if loaded:
            print(
                f"resuming: {loaded} completed point(s) loaded from "
                f"{settings.get('REPRO_CACHE_DIR')}",
                file=sys.stderr,
            )
        with resume_guard(points, resume_command):
            results = sweep.run(jobs=jobs, progress=progress, **run_kwargs)
    ordered = []
    failed = 0
    for w, k in coords:
        point = results.points.get((w, k))
        if point is not None:
            ordered.append(point)
            continue
        failed += 1
        error = results.errors.get((w, k))
        if error is not None:
            print(
                f"error: {error.workload}/{error.key}: [{error.kind}] {error.error}",
                file=sys.stderr,
            )
    _emit(ordered, args)
    return 1 if failed else 0


def cmd_cache(args) -> int:
    from repro.core.diskcache import DiskCache

    store = DiskCache()
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"cache root: {store.root}")
        print(f"checked:    {report['checked']}")
        print(f"ok:         {report['ok']}")
        print(f"corrupt:    {report['corrupt']} (moved to {store.quarantine_dir()})"
              if report["corrupt"] else "corrupt:    0")
        print(f"tmp swept:  {report['tmp_swept']}")
        return 1 if report["corrupt"] else 0
    info = store.stats()
    print(f"cache root: {info['root']}")
    print(f"entries:    {info['entries']}")
    print(f"bytes:      {info['bytes']}")
    if info["quarantined"]:
        print(f"quarantined:{info['quarantined']:>5}")
    return 0


def cmd_table5(args) -> int:
    workloads = _workloads(args)
    table = Table(
        ["workload", "pref%", "compr%", "both%", "interaction%"], float_format="{:+.1f}"
    )
    for w in workloads:
        base, pref, compr, both = _run_points(
            [_point(w, key, args) for key in ("base", "pref", "compr", "pref_compr")]
        )
        b = InteractionBreakdown.from_runtimes(
            w,
            base=base.runtime,
            with_a=pref.runtime,
            with_b=compr.runtime,
            with_both=both.runtime,
        )
        table.add_row(
            [w, 100 * (b.speedup_a - 1), 100 * (b.speedup_b - 1),
             100 * (b.speedup_ab - 1), 100 * b.interaction]
        )
    print(table.render())
    return 0


def cmd_matrix(args) -> int:
    """Rank every prefetcher x compression pair by EQ 5 interaction."""
    from repro.report.matrix import PREFETCHERS, SCHEMES, run_matrix

    workloads = _workloads(args)
    prefetchers = args.prefetchers.split(",") if args.prefetchers else list(PREFETCHERS)
    schemes = args.schemes.split(",") if args.schemes else list(SCHEMES)
    base = make_config("base", **_machine(args))
    # A live progress bar renders when stderr is a terminal.
    if args.quiet:
        progress = None
    else:
        from repro.obs.progress import default_progress

        progress = default_progress(label="matrix")
    report = run_matrix(
        workloads,
        base_config=base,
        prefetchers=prefetchers,
        schemes=schemes,
        seed=args.seed,
        events=args.events,
        warmup=args.warmup,
        progress=progress,
        attribution=args.attribution,
        jobs=settings.get("REPRO_JOBS"),
    )
    if args.output:
        durable.atomic_write(args.output, report.to_csv().encode("utf-8"))
        print(f"wrote {len(report.cells)} cell(s) to {args.output}", file=sys.stderr)
    headers = ["workload", "prefetcher", "scheme", "pref%", "compr%", "both%",
               "interaction%"]
    if args.attribution:
        headers += ["pollution%", "expansion%"]
    table = Table(headers, float_format="{:+.1f}")
    for c in report.ranked():
        row = [
            c.workload,
            c.prefetcher,
            c.scheme,
            100 * (c.speedup_pref - 1),
            100 * (c.speedup_compr - 1),
            100 * (c.speedup_both - 1),
            100 * c.interaction,
        ]
        if args.attribution:
            row += [
                100 * (c.pollution_share or 0.0),
                100 * (c.expansion_share or 0.0),
            ]
        table.add_row(row)
    print(table.render())
    print(
        f"{report.simulations} simulation(s) for "
        f"{len(report.workloads)} workload(s) x "
        f"{len(report.prefetchers)} prefetcher(s) x {len(report.schemes)} scheme(s)"
    )
    return 0


def cmd_figure8(args) -> int:
    """Figure 8's four-run miss classification, per workload; with
    ``--attribution``, also the measured-vs-estimated delta."""
    from repro.core.missclass import classify_misses

    workloads = _workloads(args)
    keys = ("base", "compr", "pref", "pref_compr")
    for workload in workloads:
        runs = dict(zip(keys, _run_points(
            [_point(workload, key, args, args.attribution) for key in keys]
        )))
        cls = classify_misses(
            runs["base"], runs["compr"], runs["pref"], runs["pref_compr"]
        )
        print(cls.rows())
        if args.attribution:
            # Estimator (four-run set arithmetic) vs ground truth (the
            # per-event ledgers of the single-policy runs): prefetching's
            # avoided misses against useful prefetches, compression's
            # against demand hits beyond the uncompressed stack depth.
            from repro.obs.attribution import AttributionLedger

            pref = AttributionLedger.from_extra(runs["pref"].extra)
            compr = AttributionLedger.from_extra(runs["compr"].extra)
            measured_p = pref.pf_useful / cls.base_misses
            measured_c = compr.comp_avoided_hits / cls.base_misses
            est_p = cls.avoided_by_prefetching
            est_c = cls.avoided_by_compression
            print(
                f"{'':8s} prefetching: estimated {est_p * 100:5.1f}% "
                f"measured {measured_p * 100:5.1f}% "
                f"(delta {(measured_p - est_p) * 100:+.1f}%)"
            )
            print(
                f"{'':8s} compression: estimated {est_c * 100:5.1f}% "
                f"measured {measured_c * 100:5.1f}% "
                f"(delta {(measured_c - est_c) * 100:+.1f}%)"
            )
    return 0


def cmd_record(args) -> int:
    from repro.trace.io import record_trace

    cfg = make_config("base", n_cores=args.cores, scale=args.scale)
    pack = record_trace(
        args.workload,
        n_cores=args.cores,
        events_per_core=args.events,
        seed=args.seed,
        l2_lines=cfg.l2.n_lines,
        l1i_lines=cfg.l1i.n_lines,
    )
    pack.save(args.path)
    print(f"recorded {pack.n_cores}x{pack.events_per_core} events of "
          f"{pack.workload} to {args.path}")
    return 0


def cmd_replay(args) -> int:
    from repro.core.system import CMPSystem
    from repro.trace.io import TracePack

    pack = TracePack.load(args.path, skip_bad_records=args.skip_bad_records)
    if pack.skipped_records:
        print(
            f"skipped {pack.skipped_records} malformed record(s) in {args.path}",
            file=sys.stderr,
        )
    cfg = make_config(
        args.config,
        n_cores=pack.n_cores,
        scale=args.scale,
        bandwidth_gbs=args.bandwidth or None,
        infinite_bandwidth=args.bandwidth == 0,
    )
    system = CMPSystem(cfg, trace=pack)
    result = system.run(args.events or pack.events_per_core,
                        warmup_events=args.warmup, config_name=args.config)
    if pack.skipped_records:
        result.extra["skipped_records"] = float(pack.skipped_records)
    if pack.dropped_tail:
        result.extra["dropped_tail"] = float(pack.dropped_tail)
    _emit([result], args)
    return 0


def cmd_telemetry(args) -> int:
    """Summarise a JSONL telemetry stream (see repro.obs.telemetry)."""
    import json as _json

    from repro.obs.telemetry import read_records, summarize

    try:
        records = read_records(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    summary = summarize(records)
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"records:        {summary['records']}")
    for kind in sorted(summary["by_kind"]):
        print(f"  {kind + ':':<14}{summary['by_kind'][kind]}")
    print(f"workers:        {summary['workers']}")
    if summary["simulate_wall_s"]:
        print(f"simulate wall:  {summary['simulate_wall_s']:.3f} s")
        print(f"events/sec:     {summary['events_per_sec']:.0f}")
    if summary["audit_checks"]:
        print(f"audit checks:   {summary['audit_checks']}")
    if summary["point_sources"]:
        sources = ", ".join(f"{k}={v}" for k, v in sorted(summary["point_sources"].items()))
        print(f"point sources:  {sources}")
    if summary["diskcache"]:
        cache = ", ".join(f"{k}={v}" for k, v in sorted(summary["diskcache"].items()))
        print(f"disk cache:     {cache}")
    if summary["by_kind"].get("sweep"):
        print(f"sweep points:   {summary['sweep_points']} "
              f"({summary['sweep_errors']} error(s))")
        print(f"sweep wall:     {summary['sweep_wall_s']:.3f} s")
        print(f"sweep workers:  {summary['sweep_max_workers']}")
        resilience = {
            "retries": summary["sweep_retries"],
            "restarts": summary["sweep_restarts"],
            "timeouts": summary["sweep_timeouts"],
            "quarantines": summary["sweep_quarantines"],
        }
        if any(resilience.values()):
            print("resilience:     "
                  + ", ".join(f"{k}={v}" for k, v in resilience.items() if v))
    return 0


def cmd_profile(args) -> int:
    """Profile the simulator's own wall-clock on one point."""
    import json as _json

    from repro.obs.profile import profile_point

    report = profile_point(
        args.workload,
        args.config,
        events=args.events,
        warmup=args.warmup,
        n_cores=args.cores,
        scale=args.scale,
        seed=args.seed,
    )
    if args.output:
        text = _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        durable.atomic_write(args.output, text.encode("utf-8"))
        print(f"wrote profile report to {args.output}")
    table = Table(["component", "self s", "%", "calls"], float_format="{:.3f}")
    total = sum(c.self_time_s for c in report.components) or 1.0
    for comp in report.components[:args.top]:
        table.add_row(
            [comp.name, comp.self_time_s, 100 * comp.self_time_s / total, comp.calls]
        )
    print(f"{args.workload}/{args.config}: {report.events} events in "
          f"{report.warmup_wall_s + report.measure_wall_s:.3f}s wall "
          f"({report.events_per_sec:.0f} events/s under cprofile)")
    print(table.render())
    return 0


def _parse_budget(text: Optional[str]) -> Optional[float]:
    """Accept plain seconds or a trailing 's'/'m' unit: 120, 120s, 2m.
    A budget that is not a finite number of seconds above 0 would end
    the fuzz run before its first case, so it is an operator error."""
    if not text:
        return None
    raw, text = text, text.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    budget = float(text) * scale
    if not 0 < budget < math.inf:
        raise ValueError(f"--budget must be a finite time above 0, got {raw!r}")
    return budget


def cmd_fuzz(args) -> int:
    """Seeded trace/config fuzzing: oracle + properties + audit."""
    from pathlib import Path

    from repro.verify.fuzz import reproduce, run_fuzz

    if args.repro:
        if not Path(args.repro).is_file():
            # Distinguish "you typed the wrong path" from "the crash is
            # fixed" — reproduce() would otherwise surface the missing
            # file as a still-reproducing FileNotFoundError.
            print(f"error: no such crash file: {args.repro}", file=sys.stderr)
            return 2
        try:
            reproduce(args.repro)
        except Exception as exc:
            print(f"still reproduces: {type(exc).__name__}:", file=sys.stderr)
            print(str(exc), file=sys.stderr)
            return 1
        print(f"{args.repro}: no longer reproduces")
        return 0
    for flag, value in (("--seeds", args.seeds), ("--events", args.events)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    report = run_fuzz(
        args.seeds,
        budget_s=_parse_budget(args.budget),
        start_seed=args.seed,
        events_per_core=args.events,
        check_properties=not args.no_properties,
        corpus=Path(args.corpus),
        log=print if args.verbose else None,
    )
    tail = " (budget exhausted)" if report.budget_exhausted else ""
    print(
        f"fuzz: {report.cases} case(s), {len(report.failures)} failure(s) "
        f"in {report.wall_s:.1f}s{tail}"
    )
    for failure in report.failures:
        print(f"  seed {failure.seed}: {failure.stage} -> {failure.path}", file=sys.stderr)
    return 1 if report.failures else 0


def cmd_schemes(args) -> int:
    from repro.compression.schemes import compare_schemes
    from repro.workloads.registry import get_spec
    from repro.workloads.values import ValueModel

    spec = get_spec(args.workload)
    model = ValueModel(spec.value_mix, seed=args.seed, pool_size=512)
    lines = [model.line_words(i * 37) for i in range(256)]
    table = Table(["scheme", "avg segments", "expansion"], float_format="{:.2f}")
    for name, segments in compare_schemes(lines).items():
        table.add_row([name, segments, min(8.0 / segments, 2.0)])
    print(f"{args.workload} data under each compression scheme:")
    print(table.render())
    return 0


def cmd_config(args) -> int:
    """Print every ``REPRO_*`` knob: effective value, source and doc."""
    import json as _json

    rows = [
        (row, settings.get(row.name), settings.source(row.name))
        for row in settings.TABLE.values()
    ]
    if args.json:
        print(_json.dumps(
            [{"name": row.name, "value": value, "source": source, "doc": row.doc}
             for row, value, source in rows],
            indent=2,
        ))
        return 0
    table = Table(["knob", "value", "source", "doc"], left=4)
    for row, value, source in rows:
        table.add_row([row.name, row.show(value), source, row.doc])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="simulate one (workload, config) point, with any observer lenses on it"
    )
    p.add_argument("workload", choices=all_names())
    p.add_argument("--config", default="base", choices=sorted(CONFIG_FEATURES))
    p.add_argument("--audit", action="store_true",
                   help="check model invariants during the run "
                        "(every SystemConfig.audit_interval events)")
    p.add_argument("--trace", metavar="PATH",
                   help="record simulated-time events; write Perfetto/Chrome JSON to PATH")
    p.add_argument("--metrics", metavar="PATH", nargs="?", const="",
                   help="sample interval metrics and chart them; a PATH also gets "
                        "the series (.csv -> CSV, else JSONL)")
    p.add_argument("--interval", type=int, default=None,
                   help="simulated cycles between metric samples "
                        "(default: SystemConfig.metrics_interval)")
    p.add_argument("--columns", default="",
                   help="comma list of metric columns to chart (default: all)")
    p.add_argument("--why", metavar="PATH", nargs="?", const="",
                   help="causal attribution: print the why table and check it "
                        "reconciles; a PATH also gets the ledgers as JSON")
    p.add_argument("--verify", action="store_true",
                   help="check the run against the functional oracle")
    p.add_argument("--properties", action="store_true",
                   help="also run the metamorphic property suite on the plain config")
    _add_run_args(p)
    _add_format_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="simulate a workload x config matrix")
    p.add_argument("--workloads", default="", help="comma list (default: all)")
    p.add_argument("--configs", default="base,pref,compr,pref_compr")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = REPRO_JOBS/cpu count)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live progress line on stderr")
    p.add_argument("--resume", action="store_true",
                   help="keep the result cache on for this sweep, even under "
                        "REPRO_CACHE=0: completed points load from it and "
                        "each new one is stored as it completes")
    _add_run_args(p)
    _add_format_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cache", help="inspect, verify or clear the on-disk result cache")
    p.add_argument("action", choices=("stats", "verify", "clear"))
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("table5", help="reproduce Table 5 speedups/interactions")
    p.add_argument("--workloads", default="", help="comma list (default: all)")
    _add_run_args(p)
    p.set_defaults(func=cmd_table5)

    p = sub.add_parser(
        "matrix", help="rank prefetcher x compression pairs by EQ 5 interaction"
    )
    p.add_argument("--workloads", default="", help="comma list (default: all)")
    p.add_argument("--prefetchers", default="",
                   help="comma list of prefetcher kinds incl. 'none' "
                        "(default: none,stride,sequential,pointer)")
    p.add_argument("--schemes", default="",
                   help="comma list of compression schemes incl. 'none' "
                        "(default: none,fpc,bdi)")
    p.add_argument("-o", "--output", default="",
                   help="also write the ranked matrix as CSV")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live progress bar")
    p.add_argument("--attribution", action="store_true",
                   help="annotate each cell with measured pollution/"
                        "expansion miss shares (causal attribution)")
    _add_run_args(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "figure8", help="Figure 8 miss classification from four runs"
    )
    p.add_argument("--workloads", default="", help="comma list (default: all)")
    p.add_argument("--attribution", action="store_true",
                   help="also run with causal attribution and print the "
                        "measured-vs-estimated delta")
    _add_run_args(p)
    p.set_defaults(func=cmd_figure8)

    p = sub.add_parser("record", help="record a workload trace to a file")
    p.add_argument("workload", choices=all_names())
    p.add_argument("path")
    p.add_argument("--events", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--cores", type=int, default=8)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="replay a recorded or external trace")
    p.add_argument("path", help="binary RPTR trace or external text trace")
    p.add_argument("--config", default="base", choices=sorted(CONFIG_FEATURES))
    p.add_argument("--events", type=int, default=0, help="0 = full trace length")
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--bandwidth", type=float, default=20.0)
    _add_format_args(p)
    p.add_argument("--skip-bad-records", action="store_true",
                   help="drop malformed trace records (counted in the "
                        "result extras) instead of failing with exit 2")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("schemes", help="compare compression schemes on a workload's data")
    p.add_argument("workload", choices=all_names())
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser("telemetry", help="summarise a JSONL telemetry file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser("profile", help="profile the simulator's own wall-clock on one point")
    p.add_argument("workload", choices=all_names())
    p.add_argument("config", nargs="?", default="pref_compr", choices=sorted(CONFIG_FEATURES))
    p.add_argument("-o", "--output", default="", help="write the report as JSON")
    p.add_argument("--events", type=int, default=6_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--top", type=int, default=12, help="components to list")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fuzz", help="fuzz random traces/configs through the verifiers")
    p.add_argument("--seeds", type=int, default=50, help="number of fuzz cases")
    p.add_argument("--budget", default=None,
                   help="wall-clock budget, e.g. 120s or 5m (default: none)")
    p.add_argument("--seed", type=int, default=0, help="first case seed")
    p.add_argument("--events", type=int, default=600, help="trace events per core")
    p.add_argument("--corpus", default=".repro_fuzz", help="crash-corpus directory")
    p.add_argument("--no-properties", action="store_true",
                   help="skip the per-case metamorphic property check")
    p.add_argument("--repro", default="",
                   help="replay a saved crash file instead of fuzzing")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "config", help="print every REPRO_* knob with its effective value and source"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every knob is validated before any command runs, so a bad value
        # fails the same way whatever the command would have read.
        settings.check()
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except (ValueError, KeyError, OSError) as exc:
        # Predictable operator errors (bad names, malformed overrides,
        # unreadable/unwritable paths) get one readable line, not a
        # traceback; genuine bugs still surface loudly.  str(KeyError)
        # is the repr of its message, so print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
