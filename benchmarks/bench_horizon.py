"""Ablation A27 — the horizon-fused round engine gate.

PR 10 taught the supervised loop to evaluate maximal fault-free runs
of rounds as fused segments (``repro.protocol.horizon``): per-round
admission/bids/allocation/statistics stay cheap Python + NumPy, the
mechanism pricing of every live round in a segment is one stacked
``(T_seg, n)`` broadcast, and any chaos/remediation event de-fuses to
the sequential ``run_round`` so fault semantics are untouched.  This
bench holds the engine's promises:

* **bit-parity before timing** — every ``RoundResult`` of a fused run
  is compared ``repr``-for-``repr`` against the sequential loop on the
  same seed, across deterministic and stochastic service, both
  nonstationary arrival schedules, a quarantine-churn horizon (alerts
  opening and probing circuits mid-segment), and a chaos plan that
  forces mid-horizon de-fusion.  The timing arms only run once every
  comparison is clean.
* **speed** — on a 1000-round fault-free horizon at n=64 the fused
  engine clears >= 3x rounds/sec over the sequential supervisor loop
  (the sequential arm pays a discrete-event simulator, ~5n messages,
  and four phase snapshots plus a journal entry per bid, report and
  payment per round).  The gate was 10x while the sequential loop
  snapshotted on every bid, report and payment; most of that margin
  measured the checkpoint tax, not fusion.
* **drift row** — the stale-bid drift sweep
  (:func:`repro.dynamic.drift.drift_sweep`) scores a same-sized
  horizon as one stacked broadcast, making truthfulness-degradation-
  under-drift benchable end to end (an ungated honesty row).

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_horizon.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_horizon.py
  [--smoke] [--json]``), exiting non-zero on any failed assertion and
  refreshing ``results/ablation_horizon.txt`` and
  ``results/BENCH_horizon.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

SPEEDUP_TARGET = 3.0  # fused vs sequential rounds/sec, fault-free horizon
RESULTS_DIR = Path(__file__).resolve().parent / "results"

_ROUND_FIELDS = (
    "index", "participants", "probes", "quarantined", "excluded", "withheld",
    "alerts", "faulted", "fault_kinds", "voided", "loads", "payments",
    "utilities", "payment_notices", "bid_retries", "report_retries",
    "coordinator_restarts", "arrival_rate", "jobs_routed",
)

_OUTCOME_ARRAYS = (
    ("loads", lambda o: o.loads),
    ("bids", lambda o: o.allocation.bids),
    ("execution_values", lambda o: o.execution_values),
    ("compensation", lambda o: o.payments.compensation),
    ("bonus", lambda o: o.payments.bonus),
    ("valuation", lambda o: o.payments.valuation),
    ("payment", lambda o: o.payments.payment),
    ("utility", lambda o: o.payments.utility),
)


def _make_supervisor(
    *, horizon: bool, n: int, seed: int,
    deterministic: bool = True, schedule: str = "none", slow: bool = False,
):
    from repro.agents import SlowExecutor, TruthfulAgent
    from repro.resilience import RoundSupervisor
    from repro.system.workload import (
        PiecewiseConstantSchedule,
        SinusoidalSchedule,
    )

    rng = np.random.default_rng(123)
    true_values = rng.uniform(1.0, 8.0, size=n)
    agents = [TruthfulAgent(float(t)) for t in true_values]
    if slow:
        # One machine executes 3x slower than it declared: its CUSUM
        # detectors alert, the circuit opens, probes re-admit it —
        # membership churns *inside* the fused horizon.
        agents[-1] = SlowExecutor(float(true_values[-1]), execution_factor=3.0)
    rate = 0.4 * n
    if schedule == "sinusoidal":
        arrival_schedule = SinusoidalSchedule(rate, amplitude=0.6, period=1480.0)
    elif schedule == "piecewise":
        arrival_schedule = PiecewiseConstantSchedule(
            [0.0, 400.0, 1000.0], [0.5 * rate, 1.5 * rate, rate]
        )
    else:
        arrival_schedule = None
    return RoundSupervisor(
        agents,
        rate,
        duration=80.0 if slow else 40.0,
        deterministic_service=deterministic,
        rng=np.random.default_rng(seed),
        arrival_schedule=arrival_schedule,
        horizon=horizon,
    )


def _compare_reports(sequential, fused) -> list[str]:
    """Field-exact (repr-level) RoundResult comparison; [] = identical."""
    mismatches: list[str] = []
    if len(sequential.rounds) != len(fused.rounds):
        return [
            f"round count {len(sequential.rounds)} != {len(fused.rounds)}"
        ]
    for seq_round, fused_round in zip(sequential.rounds, fused.rounds):
        for field in _ROUND_FIELDS:
            if repr(getattr(seq_round, field)) != repr(
                getattr(fused_round, field)
            ):
                mismatches.append(f"round {seq_round.index}: {field}")
        seq_out, fused_out = seq_round.outcome, fused_round.outcome
        if (seq_out is None) != (fused_out is None):
            mismatches.append(f"round {seq_round.index}: outcome presence")
            continue
        if seq_out is None:
            continue
        for name, getter in _OUTCOME_ARRAYS:
            left, right = getter(seq_out), getter(fused_out)
            if left.shape != right.shape or not np.all(left == right):
                mismatches.append(f"round {seq_round.index}: outcome.{name}")
        if repr(float(seq_out.allocation.total_latency)) != repr(
            float(fused_out.allocation.total_latency)
        ):
            mismatches.append(f"round {seq_round.index}: total_latency")
    return mismatches


def verify_parity(*, smoke: bool = False) -> dict:
    """Every parity scenario, fused vs sequential on identical seeds."""
    from repro.resilience import FaultPlan

    rounds = 16 if smoke else 40
    n = 8
    cases = {}

    for label, kwargs in (
        ("clean-deterministic", dict(deterministic=True)),
        ("clean-stochastic", dict(deterministic=False)),
        ("sinusoidal-schedule", dict(schedule="sinusoidal")),
        ("piecewise-stochastic",
         dict(schedule="piecewise", deterministic=False)),
        ("quarantine-churn", dict(slow=True)),
    ):
        case_rounds = rounds * 2 if kwargs.get("slow") else rounds
        seq = _make_supervisor(horizon=False, n=n, seed=7, **kwargs)
        fus = _make_supervisor(horizon=True, n=n, seed=7, **kwargs)
        cases[label] = {
            "rounds": case_rounds,
            "mismatches": _compare_reports(
                seq.run(case_rounds), fus.run(case_rounds)
            ),
        }

    # Chaos plan: injected faults force mid-horizon de-fusion, so the
    # fused run interleaves fused segments with sequential rounds.
    chaos_rounds = 24 if smoke else 50
    seq = _make_supervisor(horizon=False, n=n, seed=17)
    fus = _make_supervisor(horizon=True, n=n, seed=17)
    plan_a = FaultPlan.generate(chaos_rounds, seq.machine_names, seed=99)
    plan_b = FaultPlan.generate(chaos_rounds, fus.machine_names, seed=99)
    seq_report = seq.run(chaos_rounds, plan_a)
    cases["chaos-defusion"] = {
        "rounds": chaos_rounds,
        "faulted_rounds": sum(
            1 for r in seq_report.rounds if r.faulted or r.fault_kinds
        ),
        "mismatches": _compare_reports(
            seq_report, fus.run(chaos_rounds, plan_b)
        ),
    }
    return cases


def measure_throughput(*, smoke: bool = False) -> dict:
    """Fault-free horizon rounds/sec, sequential vs fused, at n=64."""
    # The gate is defined at n=64 (per-round sequential overhead is
    # what fusion amortises, and it grows with n) — smoke keeps the
    # width and only shortens the horizons.
    n = 64
    fused_rounds = 300 if smoke else 1000
    seq_rounds = 40 if smoke else 200  # enough to time the slow arm fairly

    seq = _make_supervisor(horizon=False, n=n, seed=3)
    start = time.perf_counter()
    seq.run(seq_rounds)
    seq_seconds = time.perf_counter() - start

    fus = _make_supervisor(horizon=True, n=n, seed=3)
    start = time.perf_counter()
    fus.run(fused_rounds)
    fused_seconds = time.perf_counter() - start

    seq_rps = seq_rounds / seq_seconds
    fused_rps = fused_rounds / fused_seconds
    return {
        "n": n,
        "sequential_rounds": seq_rounds,
        "fused_rounds": fused_rounds,
        "sequential_rounds_per_sec": seq_rps,
        "fused_rounds_per_sec": fused_rps,
        "speedup": fused_rps / seq_rps,
    }


def measure_drift(*, smoke: bool = False) -> dict:
    """Ungated honesty row: stacked drift sweep over the same horizon."""
    from repro.dynamic.drift import drift_sweep

    n = 16 if smoke else 64
    rounds = 200 if smoke else 1000
    rng = np.random.default_rng(123)
    true_values = rng.uniform(1.0, 8.0, size=n)
    start = time.perf_counter()
    result = drift_sweep(
        true_values, 0.4 * n, rounds=rounds, sigma=0.05, seed=3
    )
    seconds = time.perf_counter() - start
    return {
        "n": n,
        "rounds": rounds,
        "seconds": seconds,
        "rounds_per_sec": rounds / seconds,
        "mean_degradation_pct": result.mean_degradation_pct,
        "max_degradation_pct": result.max_degradation_pct,
        "max_best_response_gain": result.max_gain,
    }


def measure_all(*, smoke: bool = False) -> dict:
    parity = verify_parity(smoke=smoke)
    summary = {
        "parity": parity,
        "speedup_target": SPEEDUP_TARGET,
        "smoke": smoke,
    }
    if any(case["mismatches"] for case in parity.values()):
        # A wrong engine gets no timing row to hide behind.
        summary["throughput"] = None
        summary["drift"] = None
        return summary
    summary["throughput"] = measure_throughput(smoke=smoke)
    summary["drift"] = measure_drift(smoke=smoke)
    return summary


def check_summary(summary: dict) -> list[str]:
    """The bench's assertions; empty list = all good."""
    failures = []
    for label, case in summary["parity"].items():
        if case["mismatches"]:
            shown = ", ".join(case["mismatches"][:4])
            failures.append(
                f"parity {label}: {len(case['mismatches'])} field "
                f"mismatches ({shown}, ...)"
            )
    chaos = summary["parity"].get("chaos-defusion", {})
    if not chaos.get("faulted_rounds"):
        failures.append(
            "chaos plan injected no faults: the de-fusion boundary "
            "path went unexercised"
        )
    throughput = summary.get("throughput")
    if throughput is None:
        failures.append("throughput arm skipped (parity failed)")
    elif throughput["speedup"] < summary["speedup_target"]:
        failures.append(
            f"fused speedup {throughput['speedup']:.1f}x at "
            f"n={throughput['n']} is below {summary['speedup_target']:g}x"
        )
    return failures


def _render(summary: dict) -> str:
    from repro.experiments import render_table

    parity_rows = [
        [
            label,
            case["rounds"],
            case.get("faulted_rounds", 0),
            "identical" if not case["mismatches"]
            else f"{len(case['mismatches'])} DIFFER",
        ]
        for label, case in summary["parity"].items()
    ]
    parts = [
        render_table(
            ["scenario", "rounds", "faulted", "round results"],
            parity_rows,
            title="A27. Horizon-fused engine vs sequential supervisor "
            "loop: bit-parity.",
        )
    ]
    throughput = summary.get("throughput")
    if throughput is not None:
        drift = summary["drift"]
        parts.append(
            render_table(
                ["arm", "n", "rounds", "rounds/sec", "speedup"],
                [
                    [
                        "sequential loop",
                        throughput["n"],
                        throughput["sequential_rounds"],
                        f"{throughput['sequential_rounds_per_sec']:.1f}",
                        "1.0 x",
                    ],
                    [
                        "fused horizon",
                        throughput["n"],
                        throughput["fused_rounds"],
                        f"{throughput['fused_rounds_per_sec']:.1f}",
                        f"{throughput['speedup']:.1f} x",
                    ],
                    [
                        "drift sweep (stacked)",
                        drift["n"],
                        drift["rounds"],
                        f"{drift['rounds_per_sec']:.0f}",
                        "-",
                    ],
                ],
                title=f"Fault-free horizon throughput "
                f"(gate {summary['speedup_target']:g}x) plus the "
                f"stale-bid drift row "
                f"(mean degradation "
                f"{drift['mean_degradation_pct']:.1f}%, max BR gain "
                f"{drift['max_best_response_gain']:.3f}).",
            )
        )
    return "\n\n".join(parts)


def _write_artifacts(summary: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_horizon.txt").write_text(_render(summary) + "\n")
    (RESULTS_DIR / "BENCH_horizon.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


# --------------------------------------------------------------- pytest


def test_horizon_parity_and_speedup(record_result, record_json):
    summary = measure_all()
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)
    record_result("ablation_horizon", _render(summary))
    record_json("BENCH_horizon", summary)


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any broken assertion."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (shorter horizons, n=16)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    parser.add_argument(
        "--no-artifacts", action="store_true",
        help="skip refreshing benchmarks/results/",
    )
    args = parser.parse_args(argv)

    summary = measure_all(smoke=args.smoke)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(_render(summary))

    if not args.no_artifacts and not args.smoke:
        _write_artifacts(summary)

    failures = check_summary(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
