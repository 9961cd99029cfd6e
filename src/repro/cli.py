"""Command-line interface: regenerate any paper artefact from a shell.

Installed as the ``repro`` console script (also ``python -m repro``)::

    repro table1                # Table 1 system configuration
    repro table2                # Table 2 experiment definitions
    repro figure 1              # Figure 1 rows (also 2..6)
    repro verify                # check every recoverable paper claim
    repro reproduce --output reproduction   # all of the above as files
    repro audit --variant declared
    repro protocol --duration 300 --liar low2
    repro multi-liar --max-liars 8
    repro poa --intercepts 1,0 --slopes 0.000001,1 --rate 1
    repro landscape --variant declared --agent 0
    repro resilience --rounds 50 --machines 8 --seed 0
    repro remediate --scenario all --seed 0
    repro metrics --rounds 10 --machines 8 --chaos --json
    repro horizon --rounds 200 --schedule sinusoidal --chaos
    repro campaign --workers 4 --seeds 10 --cache-dir .repro-cache
    repro campaign --no-resume       # recompute, but refresh the cache
    repro tournament                 # verification vs VCG vs Archer-Tardos
    repro serve --machines 32 --shards 4 --rounds 5 --json

Each subcommand returns its text, or under ``--json`` its payload,
which :func:`main` encodes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import replace

import numpy as np

from repro.agents import ManipulativeAgent, TruthfulAgent
from repro.analysis import multi_liar_degradation
from repro.analysis.landscape import utility_landscape
from repro.analysis.wardrop import price_of_anarchy
from repro.distributed import ShardedCoordinatorService
from repro.distributed.service import (
    AGGREGATION_MODES,
    SHARD_EXECUTORS,
    WORKLOAD_MODES,
)
from repro.experiments import (
    render_claims,
    render_figure,
    render_table,
    render_table1,
    render_table2,
    reproduce_all,
    scenario_by_name,
    table1_configuration,
    verify_reproduction,
)
from repro.experiments.tournament import run_tournament
from repro.latency.affine import AffineLatencyModel
from repro.mechanism import truthfulness_audit, voluntary_participation_margin
from repro.observability import instrumented
from repro.observability.metrics import format_series
from repro.parallel import CampaignEngine, figures_campaign_units, records_from_campaign
from repro.parallel.units import _VARIANTS, _mechanism_for
from repro.protocol import run_protocol
from repro.remediation import default_scenarios, measure_mttr
from repro.resilience import ChaosHarness, FaultPlan, RoundSupervisor
from repro.system.configio import load_cluster
from repro.system.workload import PiecewiseConstantSchedule, SinusoidalSchedule

__all__ = ["main", "build_parser"]


def _cmd_audit(args: argparse.Namespace) -> str:
    mechanism = _mechanism_for(args.variant)
    cluster = (
        table1_configuration().cluster if args.config is None else load_cluster(args.config)
    )
    t = cluster.true_values[: args.machines]
    exec_factors = (1.0,) if not mechanism.uses_verification else (1.0, 1.5, 2.0, 3.0)
    report = truthfulness_audit(mechanism, t, args.rate, exec_factors=exec_factors)
    margin = voluntary_participation_margin(mechanism, t, args.rate)

    worst = report.worst()
    rows = [
        ["truthful", "yes" if report.is_truthful else "NO"],
        ["max deviation gain", f"{report.max_gain:.6g}"],
        ["worst deviating agent", worst.agent],
        ["its best bid", f"{worst.best_bid:.4g} (true {t[worst.agent]:g})"],
        ["VP margin (min truthful utility)", f"{margin:.6g}"],
    ]
    return render_table(
        ["property", "value"],
        rows,
        title=f"Truthfulness audit: {args.variant} mechanism, "
        f"{args.machines} machines, R={args.rate:g}.",
    )


# The Table 2 scenarios machine C1 can play in a protocol round.
_LIARS = ("none", "true2", "high1", "low1", "low2")


def _cmd_protocol(args: argparse.Namespace) -> str:
    config = table1_configuration()
    t = config.cluster.true_values
    agents = [TruthfulAgent(value) for value in t]
    if args.liar != "none":
        liar = scenario_by_name(args.liar)
        agents[0] = ManipulativeAgent(t[0], liar.bid_factor, liar.execution_factor)

    result = run_protocol(
        agents,
        config.arrival_rate,
        duration=args.duration,
        rng=np.random.default_rng(args.seed),
        drop_probability=args.drop,
        execution=args.execution,
    )
    rows = [
        ["jobs routed", result.jobs_routed],
        ["control messages", result.network.total_messages],
        ["realised latency", f"{result.outcome.realised_latency:.2f}"],
        ["C1 estimated t̃", f"{result.estimated_execution_values[0]:.3f}"],
        ["C1 utility", f"{float(result.outcome.payments.utility[0]):.2f}"],
        ["mean estimation error %",
         f"{100 * float(result.estimation_relative_error.mean()):.2f}"],
    ]
    return render_table(
        ["quantity", "value"],
        rows,
        title=f"Simulated protocol round (liar={args.liar}, duration={args.duration:g}s).",
    )


def _cmd_multi_liar(args: argparse.Namespace) -> str:
    config = table1_configuration()
    degradations = multi_liar_degradation(
        config.cluster.true_values,
        config.arrival_rate,
        bid_factor=args.bid_factor,
        execution_factor=args.execution_factor,
        max_liars=args.max_liars,
    )
    rows = [[k, degradations[k]] for k in range(len(degradations))]
    return render_table(
        ["liars", "degradation %"],
        rows,
        title=f"Multi-liar degradation (bid x{args.bid_factor:g}, "
        f"execution x{args.execution_factor:g}).",
    )


def _cmd_poa(args: argparse.Namespace) -> str:
    intercepts = [float(v) for v in args.intercepts.split(",")]
    slopes = [float(v) for v in args.slopes.split(",")]
    result = price_of_anarchy(AffineLatencyModel(intercepts, slopes), args.rate)
    rows = [
        ["price of anarchy", f"{result.price_of_anarchy:.6f}"],
        ["equilibrium latency L", f"{result.equilibrium.total_latency:.6f}"],
        ["optimal latency L*", f"{result.optimum.total_latency:.6f}"],
        ["common per-job latency", f"{result.common_latency:.6f}"],
    ]
    return render_table(
        ["quantity", "value"],
        rows,
        title="Selfish routing (Wardrop) vs system optimum.",
    )


def _supervised(args: argparse.Namespace, chaos: bool, **options):
    """A seeded supervisor over the first ``--machines`` Table 1 machines.

    Returns it with the seeded fault plan for ``--rounds`` rounds, or
    with ``None`` unless ``chaos``.  ``options`` go to the supervisor.
    """
    config = table1_configuration()
    supervisor = RoundSupervisor(
        [TruthfulAgent(t) for t in config.cluster.true_values[: args.machines]],
        config.arrival_rate,
        duration=args.duration,
        rng=np.random.default_rng(args.seed),
        **options,
    )
    plan = None
    if chaos:
        plan = FaultPlan.generate(args.rounds, supervisor.machine_names, seed=args.seed)
    return supervisor, plan


def _cmd_resilience(args: argparse.Namespace) -> str:
    supervisor, plan = _supervised(args, chaos=True)
    report = ChaosHarness(supervisor, plan, stop_on_violation=not args.keep_going).run()

    completed = [r for r in report.rounds if not r.voided]
    rows = [
        ["rounds driven", report.n_rounds],
        ["rounds voided", report.n_voided],
        ["machine faults injected", plan.n_machine_faults],
        ["coordinator crashes injected", plan.n_coordinator_crashes],
        ["coordinator restarts survived", report.n_coordinator_restarts],
        ["bid retries issued", sum(r.bid_retries for r in report.rounds)],
        ["report retries issued", sum(r.report_retries for r in report.rounds)],
        ["CUSUM slowdown alerts", report.n_alerts],
        ["rounds with quarantined machines", report.n_quarantine_events],
        ["jobs routed", sum(r.jobs_routed for r in report.rounds)],
        ["invariant violations", len(report.violations)],
    ]
    if completed:
        mean_latency = sum(r.outcome.realised_latency for r in completed) / len(completed)
        rows.insert(1, ["mean realised latency", f"{mean_latency:.2f}"])
    table = render_table(
        ["quantity", "value"],
        rows,
        title=f"Chaos campaign: {args.rounds} supervised rounds, "
        f"{len(supervisor.machine_names)} machines, seed {args.seed}.",
    )
    if report.violations:
        table += "\n\nINVARIANT VIOLATIONS:\n" + "\n".join(
            f"  {v}" for v in report.violations
        )
    return table


def _cmd_remediate(args: argparse.Namespace) -> str | dict:
    scenarios = default_scenarios()
    if args.scenario != "all":
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            known = ", ".join(s.name for s in default_scenarios())
            raise ValueError(
                f"unknown scenario {args.scenario!r}; known: {known} (or 'all')"
            )
    comparison = measure_mttr(scenarios, seed=args.seed)
    records = [
        {
            "name": on.scenario,
            "mttr_on": on.mttr_rounds,
            "mttr_off": off.mttr_rounds,
            "recovery_round_on": on.recovery_round,
            "recovery_round_off": off.recovery_round,
            "actions_applied": on.actions_applied,
            "actions_rejected": on.actions_rejected,
            "violations_on": on.violations,
            "violations_off": off.violations,
        }
        for on, off in zip(comparison.runs_on, comparison.runs_off)
    ]
    if args.json:
        return {
            "mttr_on_rounds": comparison.mttr_on,
            "mttr_off_rounds": comparison.mttr_off,
            "improvement": comparison.improvement,
            "violations_from_actions": comparison.violations_from_actions,
            "scenarios": records,
        }

    table = render_table(
        ["scenario", "MTTR off", "MTTR on", "applied", "rejected", "violations"],
        [
            [r["name"], f"{r['mttr_off']:g}", f"{r['mttr_on']:g}",
             r["actions_applied"], r["actions_rejected"], r["violations_on"]]
            for r in records
        ],
        title=f"Auto-remediation MTTR (rounds to recovery), seed {args.seed}.",
    )
    return table + (
        f"\n\nMean MTTR: {comparison.mttr_off:g} rounds without remediation, "
        f"{comparison.mttr_on:g} with ({comparison.improvement:.1f}x faster); "
        f"{comparison.violations_from_actions} invariant violations from "
        f"applied actions."
    )


def _fmt_seconds(value: float | None) -> str:
    """Render a seconds value for the span table (µs precision)."""
    return "-" if value is None else f"{value * 1e6:,.0f}µs"


def _series(metric: dict) -> str:
    """A snapshot metric's name with its labels."""
    return format_series(metric["name"], tuple(sorted(metric["labels"].items())))


def _cmd_metrics(args: argparse.Namespace) -> str | dict:
    if args.campaign:
        machines = len(table1_configuration().cluster.true_values[: args.machines])
    else:
        supervisor, plan = _supervised(args, chaos=args.chaos, horizon=args.horizon)
        machines = len(supervisor.machine_names)
    with instrumented() as instr:
        if args.campaign:
            workload = "figures campaign x2 (cold then warm cache)"
            # Run the Figures campaign twice against a scratch cache so
            # the campaign.cache.{hits,misses} counters and the
            # campaign.unit.seconds histogram are populated: first run
            # all misses, second run all hits.
            units = figures_campaign_units(
                table1_configuration(), seeds=(args.seed,), duration=min(args.duration, 50.0)
            )
            with tempfile.TemporaryDirectory() as cache_dir:
                CampaignEngine(workers=0, cache=cache_dir).run(units)
                CampaignEngine(workers=0, cache=cache_dir).run(units)
        elif args.chaos and not args.horizon:
            workload = f"{args.rounds} chaos campaign"
            ChaosHarness(supervisor, plan, stop_on_violation=False).run()
        else:
            # With --horizon, supervisor.run() routes through the fused
            # engine; a chaos plan forces de-fusion boundaries so both
            # horizon counters show up in the report.
            kind = "horizon-fused" if args.horizon else "supervised"
            workload = f"{args.rounds} {kind} rounds"
            if args.chaos:
                workload += " under a chaos plan"
            supervisor.run(args.rounds, plan)

    exported = None
    if args.trace is not None:
        exported = instr.tracer.export_jsonl(args.trace)

    # The circuit breaker's end state is part of the story a metrics
    # run tells (which machines ended quarantined and why), but lives
    # on the supervisor, not in the instrumentation snapshot.
    quarantine = {}
    if not args.campaign:
        for name in supervisor.quarantine.machine_names:
            health = supervisor.quarantine.health_of(name)
            quarantine[name] = {
                "state": health.state.value,
                "reputation": health.reputation,
                "cooldown_remaining": health.cooldown_remaining,
                "failures_total": health.failures_total,
                "times_opened": health.times_opened,
            }

    if args.json:
        payload = instr.snapshot()
        if not args.campaign:
            payload["quarantine"] = quarantine
        return payload

    def quantile(h: dict, key: str) -> str:
        return _fmt_seconds(h[key]) if h["name"].endswith(".seconds") else f"{h[key]:g}"

    span_rows = [
        [name, stats["count"], *(_fmt_seconds(stats[k]) for k in ("p50", "p95", "p99", "max"))]
        for name, stats in instr.tracer.summary().items()
    ]
    snapshot = instr.metrics.snapshot()
    counter_rows = [[_series(c), f"{c['value']:g}"] for c in snapshot["counters"]]
    gauge_rows = [[_series(g), f"{g['value']:g}"] for g in snapshot["gauges"]]
    histogram_rows = [
        [_series(h), h["count"], *(quantile(h, k) for k in ("p50", "p95", "max"))]
        for h in snapshot["histograms"]
        if h["count"]
    ]

    parts = [
        render_table(
            ["span", "count", "p50", "p95", "p99", "max"],
            span_rows,
            title=f"Span timings: {workload}, {machines} machines, seed {args.seed}.",
        ),
        render_table(["counter", "value"], counter_rows, title="Counters."),
    ]
    if gauge_rows:
        parts.append(render_table(["gauge", "value"], gauge_rows, title="Gauges."))
    if quarantine:
        parts.append(
            render_table(
                ["machine", "state", "reputation", "cooldown", "failures", "opened"],
                [
                    [name, q["state"], f"{q['reputation']:.3f}", q["cooldown_remaining"],
                     q["failures_total"], q["times_opened"]]
                    for name, q in quarantine.items()
                ],
                title="Quarantine circuit states (end of run).",
            )
        )
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        events_skipped = gauges.get("protocol.events_skipped", 0.0)
        parts.append(f"Batched engine events skipped (last round): {events_skipped:g}.")
    if histogram_rows:
        parts.append(
            render_table(
                ["histogram", "count", "p50", "p95", "max"],
                histogram_rows,
                title="Histograms.",
            )
        )
    if exported is not None:
        parts.append(f"Exported {exported} spans to {args.trace}.")
    if instr.tracer.dropped:
        parts.append(f"WARNING: {instr.tracer.dropped} spans dropped (max_spans).")
    return "\n\n".join(parts)


def _fmt_unit_seconds(value: float) -> str:
    """Per-unit latency for the campaign summary (ms precision)."""
    return "-" if value != value else f"{value * 1e3:,.2f}ms"  # nan check


def _cmd_serve(args: argparse.Namespace) -> str | dict:
    if args.machines < 1:
        raise ValueError(f"--machines must be >= 1, got {args.machines}")
    if args.shards < 1 or args.shards > args.machines:
        raise ValueError(f"--shards must be in 1..{args.machines}, got {args.shards}")
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    # Tile the paper's 16-machine cluster out to the requested size so
    # any --machines value keeps the paper's heterogeneity profile.
    base = table1_configuration().cluster.true_values
    true_values = np.tile(base, (args.machines + base.size - 1) // base.size)
    true_values = true_values[: args.machines]

    service = ShardedCoordinatorService(
        [TruthfulAgent(t) for t in true_values],
        args.rate,
        shards=args.shards,
        duration=args.duration,
        aggregation=args.aggregation,
        workload=args.workload,
        executor=args.executor,
        rng=np.random.default_rng(args.seed),
    )
    try:
        results = service.run(args.rounds)
    finally:
        service.close()

    summaries = [
        {
            "round": r.index,
            "jobs_routed": r.jobs_routed,
            "simulated_time": r.simulated_time,
            "total_payment": sum(a[0] for a in r.payments.values()),
            "cross_shard_messages": r.total_messages,
            "shard_restarts": r.shard_restarts,
            "realised_latency": (
                None if r.outcome is None else float(r.outcome.realised_latency)
            ),
        }
        for r in results
    ]
    if args.json:
        return {
            "machines": int(args.machines),
            "shards": int(args.shards),
            "executor": args.executor,
            "aggregation": args.aggregation,
            "workload": args.workload,
            "rounds": summaries,
        }
    rows = [
        [
            s["round"],
            s["jobs_routed"],
            "-" if s["realised_latency"] is None else f"{s['realised_latency']:.2f}",
            f"{s['total_payment']:.2f}",
            s["cross_shard_messages"],
            s["shard_restarts"],
        ]
        for s in summaries
    ]
    return render_table(
        ["round", "jobs", "latency", "payments", "messages", "restarts"],
        rows,
        title=f"Sharded service: {args.machines} machines over "
        f"{args.shards} shards ({args.executor}/{args.aggregation}), "
        f"seed {args.seed}.",
    )


def _cmd_horizon(args: argparse.Namespace) -> str | dict:
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    rate = table1_configuration().arrival_rate
    horizon_seconds = args.rounds * args.duration
    if args.schedule == "sinusoidal":
        schedule = SinusoidalSchedule(
            rate, amplitude=0.5, period=max(horizon_seconds / 4.0, args.duration)
        )
    elif args.schedule == "piecewise":
        schedule = PiecewiseConstantSchedule(
            [0.0, horizon_seconds / 3.0, 2.0 * horizon_seconds / 3.0],
            [0.75 * rate, 1.5 * rate, rate],
        )
    else:
        schedule = None
    supervisor, plan = _supervised(
        args, chaos=args.chaos, arrival_schedule=schedule, horizon=True
    )
    with instrumented() as instr:
        report = supervisor.run(args.rounds, plan)

    counters = {c["name"]: c["value"] for c in instr.metrics.snapshot()["counters"]}
    live = [r for r in report.rounds if not r.voided]
    rates = [r.arrival_rate for r in report.rounds]
    summary = {
        "rounds": report.n_rounds,
        "voided": report.n_voided,
        "fused_rounds": int(counters.get("horizon.fused.rounds", 0)),
        "defused_boundaries": int(counters.get("horizon.defused.boundaries", 0)),
        "jobs_routed": int(sum(r.jobs_routed for r in report.rounds)),
        "alert_rounds": sum(1 for r in report.rounds if r.alerts),
        "schedule": args.schedule,
        "mean_round_rate": float(np.mean(rates)),
        "min_round_rate": float(np.min(rates)),
        "max_round_rate": float(np.max(rates)),
        "mean_declared_latency": float(
            np.mean([r.outcome.allocation.total_latency for r in live])
        )
        if live
        else None,
    }
    if args.json:
        return summary
    rows = [[key, f"{value:g}" if isinstance(value, float) else value]
            for key, value in summary.items()]
    return render_table(
        ["quantity", "value"],
        rows,
        title=f"Horizon-fused run: {args.rounds} rounds, "
        f"{len(supervisor.machine_names)} machines, {args.schedule} schedule, "
        f"seed {args.seed}" + (", chaos plan" if args.chaos else "") + ".",
    )


# Campaign variants that run every scenario profile as a unit of that kind
# under the observed-compensation rule.
_CAMPAIGN_KINDS = ("dynamics", "drift")

_CAMPAIGN_STATS = (
    "n_units", "cache_hits", "cache_misses", "hit_rate", "workers", "chunks",
    "fused_cohorts", "fused_units", "fallback_units", "wall_seconds",
    "computed_seconds",
)


def _cmd_campaign(args: argparse.Namespace) -> str | dict:
    if args.seeds < 0:
        raise ValueError(f"--seeds must be >= 0, got {args.seeds}")
    kind = args.variant if args.variant in _CAMPAIGN_KINDS else None
    if kind and args.seeds:
        raise ValueError(f"--variant {args.variant} is closed-form only; drop --seeds")
    if args.duration <= 0:
        raise ValueError(f"--duration must be positive, got {args.duration}")
    units = figures_campaign_units(
        table1_configuration(),
        seeds=tuple(range(args.seeds)),
        duration=args.duration,
        variant="observed" if kind else args.variant,
    )
    if kind:
        units = [
            replace(
                unit, kind=kind,
                drift_rounds=args.drift_rounds, drift_sigma=args.drift_sigma,
            )
            for unit in units
        ]
    engine = CampaignEngine(
        workers=args.workers,
        cache=None if args.no_cache else args.cache_dir,
        reuse_cache=args.resume,
        fuse=args.fuse,
    )
    result = engine.run(units)
    if args.trace is not None:
        result.export_worker_spans(args.trace)

    stats = result.stats
    if args.json:
        return {
            **{name: getattr(stats, name) for name in _CAMPAIGN_STATS},
            "fuse": args.fuse,
            "keys": list(result.keys),
            "payloads": [dict(p) for p in result.payloads],
        }

    cache_note = (
        "disabled" if args.no_cache
        else f"{args.cache_dir} ({'resume' if args.resume else 'refresh'})"
    )
    rows = [
        ["units", stats.n_units],
        ["cache hits / misses", f"{stats.cache_hits} / {stats.cache_misses}"],
        ["hit rate", f"{100 * stats.hit_rate:.1f}%"],
        ["workers", stats.workers],
        ["chunks dispatched", stats.chunks],
        ["fusion", f"{args.fuse}: {stats.fused_cohorts} cohort(s), "
         f"{stats.fused_units} fused / {stats.fallback_units} fallback"],
        ["wall-clock", f"{stats.wall_seconds:.3f}s"],
        ["compute time (all workers)", f"{stats.computed_seconds:.3f}s"],
        ["unit latency p50", _fmt_unit_seconds(stats.unit_p50)],
        ["unit latency p95", _fmt_unit_seconds(stats.unit_p95)],
        ["cache", cache_note],
    ]
    parts = [
        render_table(
            ["quantity", "value"],
            rows,
            title=f"Campaign: 8 scenarios + {args.seeds} protocol seed(s) "
            f"x 8, variant={args.variant}.",
        )
    ]

    if kind == "drift":
        # Drift payloads summarise whole horizons, not single-round
        # mechanism outcomes, so the Figure-1 record shape (and its
        # shared optimum) does not apply.
        parts.append(
            render_table(
                ["experiment", "mean degr %", "max degr %", "max BR gain"],
                [
                    [
                        unit.scenario,
                        f"{payload['mean_degradation_pct']:.2f}",
                        f"{payload['max_degradation_pct']:.2f}",
                        f"{payload['max_gain']:.4f}",
                    ]
                    for unit, payload in zip(units, result.payloads)
                ],
                title=f"Stale-bid drift sweeps: {args.drift_rounds} rounds "
                f"at sigma={args.drift_sigma:g}, seed-reproducible.",
            )
        )
    else:
        parts.append(render_figure(1, records=records_from_campaign(result)))
    if args.trace is not None:
        parts.append(f"Exported {len(result.worker_spans)} worker spans to {args.trace}.")
    return "\n\n".join(parts)


def _cmd_tournament(args: argparse.Namespace) -> str | dict:
    engine = CampaignEngine(workers=args.workers, cache=args.cache_dir, fuse=args.fuse)
    result = run_tournament(engine, dynamics=args.dynamics)
    return result.to_json() if args.json else result.render(args.top)


def _cmd_reproduce(args: argparse.Namespace) -> str:
    engine = CampaignEngine(workers=args.workers, cache=args.cache_dir)
    bundle = reproduce_all(args.output, engine=engine)
    status = "all claims PASS" if bundle.all_claims_pass else "FAILURES present"
    lines = [f"wrote {len(bundle.files_written)} files to {bundle.output_dir} ({status}):"]
    lines += [f"  {name}" for name in bundle.files_written]
    return "\n".join(lines)


def _cmd_landscape(args: argparse.Namespace) -> str:
    config = table1_configuration()
    landscape = utility_landscape(
        _mechanism_for(args.variant),
        config.cluster.true_values,
        config.arrival_rate,
        args.agent,
        bid_factors=np.geomspace(0.25, 4.0, 9),
        exec_factors=np.linspace(1.0, 3.0, 5),
    )
    bid_at_max, exec_at_max = landscape.argmax
    header = (
        f"Utility landscape of machine C{args.agent + 1} "
        f"({args.variant} mechanism); max at bid {bid_at_max:g}x, "
        f"execution {exec_at_max:g}x.\n"
    )
    return header + landscape.render(width=5)


# Options several subcommands declare, as argparse keywords without the
# default; each subcommand gives its own default (and its own help where
# the shared one does not fit).
_SHARED = {
    "rounds": {"type": int},
    "machines": {"type": int},
    "seed": {"type": int},
    "rate": {"type": float},
    "duration": {
        "type": float, "help": "job-generation window per round (simulated seconds)"
    },
    "variant": {"choices": _VARIANTS},
    "chaos": {"action": "store_true"},
    "json": {"action": "store_true"},
    "trace": {"metavar": "FILE"},
    "workers": {"type": int},
    "cache_dir": {"metavar": "DIR"},
    "fuse": {"choices": ("auto", "on", "off")},
}


def _shared(parser: argparse.ArgumentParser, **options) -> None:
    """Declare shared options; each value is the default or ``(default, help)``."""
    for name, value in options.items():
        default, help_text = value if isinstance(value, tuple) else (value, None)
        kwargs = {**_SHARED[name], "default": default}
        if help_text is not None:
            kwargs["help"] = help_text
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'A Load Balancing Mechanism with Verification' (IPDPS 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, **kwargs) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, **kwargs)
        subparser.set_defaults(func=func)
        return subparser

    command("table1", lambda args: render_table1(), help="Table 1 system configuration")
    command("table2", lambda args: render_table2(), help="Table 2 experiment definitions")
    command(
        "figure", lambda args: render_figure(args.number),
        help="regenerate one figure's rows",
    ).add_argument("number", type=int, choices=range(1, 7))

    audit = command("audit", _cmd_audit, help="truthfulness / VP audit")
    _shared(audit, variant="observed", machines=6, rate=10.0)
    audit.add_argument(
        "--config", default=None,
        help="cluster config JSON (defaults to the paper's Table 1)",
    )

    protocol = command("protocol", _cmd_protocol, help="simulate one protocol round")
    protocol.add_argument("--duration", type=float, default=200.0)
    _shared(protocol, seed=0)
    protocol.add_argument("--liar", choices=sorted(_LIARS), default="none")
    protocol.add_argument(
        "--drop", type=float, default=0.0,
        help="per-transmission message loss probability (uses reliable delivery)",
    )
    protocol.add_argument(
        "--execution", choices=("event", "batched", "auto"), default="auto",
        help="job execution engine (auto picks the batched fast path)",
    )

    multi = command("multi-liar", _cmd_multi_liar, help="multi-liar degradation (A1)")
    multi.add_argument("--bid-factor", type=float, default=0.5)
    multi.add_argument("--execution-factor", type=float, default=2.0)
    multi.add_argument("--max-liars", type=int, default=8)

    poa = command("poa", _cmd_poa, help="Wardrop equilibrium / price of anarchy")
    poa.add_argument("--intercepts", default="1,0")
    poa.add_argument("--slopes", default="0.000001,1")
    _shared(poa, rate=1.0)

    resilience = command(
        "resilience", _cmd_resilience,
        help="run a seeded chaos campaign over the supervised loop",
    )
    _shared(resilience, rounds=20, machines=8, seed=0, duration=40.0)
    resilience.add_argument(
        "--keep-going", action="store_true",
        help="collect invariant violations instead of stopping at the first",
    )

    metrics = command(
        "metrics", _cmd_metrics,
        help="run a supervised workload and report metrics + span timings",
    )
    _shared(
        metrics, rounds=10, machines=8, seed=0, duration=40.0,
        chaos=(False, "inject a seeded fault plan (faults appear as span annotations)"),
    )
    metrics.add_argument(
        "--horizon", action="store_true",
        help="drive the rounds through the horizon-fused engine so the "
        "horizon.fused.rounds / horizon.defused.boundaries counters are "
        "populated (combine with --chaos to force de-fusion boundaries)",
    )
    metrics.add_argument(
        "--campaign", action="store_true",
        help="instrument a figures campaign run twice against a scratch "
        "cache (cold then warm) so the campaign.cache.hits/misses "
        "counters and unit-latency histogram are visible",
    )
    _shared(
        metrics,
        json=(False, "emit the full snapshot (counters/gauges/histograms/spans) as JSON"),
        trace=(None, "also export every finished span as JSON Lines to FILE"),
    )

    remediate = command(
        "remediate", _cmd_remediate,
        help="measure auto-remediation MTTR on seeded degradation scenarios",
    )
    remediate.add_argument(
        "--scenario", default="all",
        help="one scenario name from the A23 suite, or 'all' (default)",
    )
    _shared(
        remediate, seed=0,
        json=(False, "emit the per-scenario MTTR comparison as JSON"),
    )

    command(
        "verify", lambda args: render_claims(verify_reproduction()),
        help="check every recoverable paper claim",
    )

    landscape = command(
        "landscape", _cmd_landscape,
        help="ASCII utility landscape over (bid, execution) deviations",
    )
    landscape.add_argument("--agent", type=int, default=0)
    _shared(landscape, variant="observed")

    reproduce = command(
        "reproduce", _cmd_reproduce,
        help="write the full table/figure/report bundle to a directory",
    )
    reproduce.add_argument("--output", default="reproduction")
    _shared(
        reproduce,
        workers=(0, "worker processes for the scenario campaign (0 = in-process)"),
        cache_dir=(
            None, "content-addressed result cache for the campaign (default: none)"
        ),
    )

    horizon = command(
        "horizon", _cmd_horizon,
        help="run a multi-round horizon through the fused engine "
        "(optionally nonstationary and/or chaotic)",
    )
    _shared(horizon, rounds=200, machines=8, seed=0, duration=40.0)
    horizon.add_argument(
        "--schedule", choices=("constant", "piecewise", "sinusoidal"),
        default="constant",
        help="arrival-rate schedule R(t) over the horizon (constant keeps "
        "the stationary Table 1 rate)",
    )
    _shared(
        horizon,
        chaos=(False, "inject a seeded fault plan (every faulted round de-fuses "
               "to the sequential path)"),
        json=(False, "emit the horizon summary as JSON"),
    )

    campaign = command(
        "campaign", _cmd_campaign,
        help="run the figures campaign through the parallel engine + cache",
    )
    _shared(
        campaign,
        workers=(0, "worker processes (0 or 1 = in-process, deterministic either way)"),
    )
    campaign.add_argument(
        "--seeds", type=int, default=0, metavar="N",
        help="protocol replications per scenario (seeds 0..N-1; default 0)",
    )
    _shared(
        campaign,
        duration=(200.0, "job-generation window per protocol replication (simulated s)"),
    )
    campaign.add_argument(
        "--variant", choices=_VARIANTS + _CAMPAIGN_KINDS, default="observed",
        help="mechanism variant the units evaluate ('dynamics' iterates "
        "kernel-driven best responses from each scenario profile; "
        "'drift' scores each profile as a stale-bid drifting horizon)",
    )
    campaign.add_argument(
        "--drift-rounds", type=int, default=64, metavar="T",
        help="horizon length of each drift unit (--variant drift only)",
    )
    campaign.add_argument(
        "--drift-sigma", type=float, default=0.05,
        help="per-epoch log-step of the drift walk (--variant drift only)",
    )
    _shared(
        campaign,
        cache_dir=(".repro-cache", "content-addressed result cache (default: .repro-cache)"),
    )
    campaign.add_argument(
        "--no-cache", action="store_true",
        help="run without any result cache (neither read nor written)",
    )
    campaign.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="serve cached units (--no-resume recomputes everything but "
        "still refreshes the cache)",
    )
    _shared(
        campaign,
        json=(False, "emit stats, cache keys, and per-unit payloads as JSON"),
        trace=(None, "export per-worker campaign.unit spans as JSON Lines to FILE"),
        fuse=("auto", "fused cohort backend: evaluate homogeneous closed-form "
              "misses as single stacked broadcasts (bit-identical, same cache "
              "keys; 'off' restores the pure per-unit path)"),
    )

    tournament = command(
        "tournament", _cmd_tournament,
        help="play verification vs VCG vs Archer-Tardos against every "
        "manipulation pattern (single liars, multi-liar prefixes, "
        "colluding pairs)",
    )
    _shared(
        tournament,
        workers=(0, "worker processes for the unit grid (0 = in-process)"),
        cache_dir=(None, "content-addressed result cache for the cells (default: none)"),
    )
    tournament.add_argument(
        "--dynamics", action=argparse.BooleanOptionalAction, default=True,
        help="iterate best-response dynamics from each mechanism's worst "
        "profile (--no-dynamics skips the equilibrium stage)",
    )
    tournament.add_argument(
        "--top", type=int, default=10,
        help="manipulation rows to show, ranked by coalition gain",
    )
    _shared(
        tournament,
        json=(False, "emit the full tournament result (rows, equilibrium, "
              "standings) as JSON"),
        fuse=("auto", "fused cohort backend for the unit grid (bit-identical; "
              "'off' restores the per-unit path)"),
    )

    serve = command(
        "serve", _cmd_serve,
        help="run the sharded coordinator service for a number of rounds",
    )
    _shared(serve, machines=32)
    serve.add_argument("--shards", type=int, default=4)
    _shared(serve, rounds=5, rate=(7.0, "arrival rate R"), duration=40.0, seed=0)
    serve.add_argument(
        "--executor", choices=SHARD_EXECUTORS, default="serial",
        help="stage executor (serial is the deterministic parity mode)",
    )
    serve.add_argument(
        "--aggregation", choices=AGGREGATION_MODES, default="exact",
        help="exact reassembles canonical arrays at the root "
        "(bit-identical); scalar ships only the (S, Q) partial sums",
    )
    serve.add_argument(
        "--workload", choices=WORKLOAD_MODES, default="global",
        help="global routes one Poisson stream from the root; local lets "
        "every shard draw its own thinned substream",
    )
    _shared(serve, json=(False, "emit per-round summaries as JSON"))

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not isinstance(output, str):
        output = json.dumps(output, indent=2, sort_keys=True)
    try:
        print(output)
    except BrokenPipeError:  # e.g. `repro figure 1 | head`
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
