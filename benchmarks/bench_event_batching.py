"""Ablation A22 — batched job-event execution engine: speedup and parity.

The batched protocol engine (``repro.protocol.execution``) makes two
promises (DESIGN.md §11):

* **bit-identity** — with ``deterministic_service=True`` a batched
  round reproduces the event engine's ``ProtocolResult`` exactly: the
  same estimated execution values, loads, payments, final clock, job
  count, and message count, with and without lossy links;
* **speed** — at the paper's 16 machines with R = 76 and a 200-second
  window (~15k jobs) the batched round is >= 10x faster than the
  two-heap-events-per-job path, and the gap widens with the window
  (the batched cost is dominated by the O(n) control phase, the event
  cost by the O(jobs log jobs) heap).

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_event_batching.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_event_batching.py
  [--smoke] [--json]``), exiting non-zero on any failed assertion and
  refreshing ``results/ablation_event_batching.txt`` and
  ``results/BENCH_event_batching.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from timing import best_seconds

SPEEDUP_TARGET = 10.0            # batched vs event at the target round
ARRIVAL_RATE = 76.0              # ~15k jobs over the 200 s target window
TARGET_DURATION = 200.0
SCALING_DURATIONS = (200.0, 500.0, 1000.0, 2000.0, 5000.0)
EVENT_MAX_DURATION = 5000.0      # the event path stays affordable throughout
PARITY_DROPS = (0.0, 0.2)        # parity must also hold over lossy links
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _agents():
    from repro.agents import TruthfulAgent
    from repro.system.cluster import paper_cluster

    return [TruthfulAgent(t) for t in paper_cluster().true_values]


def _round(execution: str, *, duration: float, seed: int,
           deterministic: bool, drop: float = 0.0):
    from repro.protocol import run_protocol

    return run_protocol(
        _agents(),
        ARRIVAL_RATE,
        duration=duration,
        rng=np.random.default_rng(seed),
        deterministic_service=deterministic,
        drop_probability=drop,
        execution=execution,
    )


def _identical(event, batched) -> bool:
    return (
        np.array_equal(
            event.estimated_execution_values, batched.estimated_execution_values
        )
        and np.array_equal(event.outcome.loads, batched.outcome.loads)
        and np.array_equal(
            event.outcome.payments.payment, batched.outcome.payments.payment
        )
        and event.outcome.realised_latency == batched.outcome.realised_latency
        and event.jobs_routed == batched.jobs_routed
        and event.simulated_time == batched.simulated_time
        and event.network.total_messages == batched.network.total_messages
    )


def measure_event_batching(
    *,
    durations: tuple[float, ...] = SCALING_DURATIONS,
    event_max_duration: float = EVENT_MAX_DURATION,
    repeats: int = 3,
    parity_drops: tuple[float, ...] = PARITY_DROPS,
) -> dict:
    """Deterministic parity checks plus the duration scaling curve.

    Parity runs with ``deterministic_service=True`` (the regime where
    the contract is bit-identity); the timing arms run with the default
    stochastic service so they measure the engines as campaigns use
    them.
    """
    # ---- parity: the batched round must be the same computation
    parity = []
    for drop in parity_drops:
        event = _round("event", duration=TARGET_DURATION, seed=0,
                       deterministic=True, drop=drop)
        batched = _round("batched", duration=TARGET_DURATION, seed=0,
                         deterministic=True, drop=drop)
        parity.append(
            {
                "drop_probability": drop,
                "jobs": event.jobs_routed,
                "bit_identical": _identical(event, batched),
            }
        )

    # ---- scaling: batched everywhere, event wherever affordable
    scaling = []
    speedup_at_target = None
    for duration in durations:

        def batched_call():
            _round("batched", duration=duration, seed=1, deterministic=False)

        batched_seconds = best_seconds(batched_call, repeats)
        jobs = _round(
            "batched", duration=duration, seed=1, deterministic=False
        ).jobs_routed
        event_seconds = None
        speedup = None
        if duration <= event_max_duration:

            def event_call():
                _round("event", duration=duration, seed=1, deterministic=False)

            event_seconds = best_seconds(event_call, repeats)
            speedup = event_seconds / batched_seconds
            if duration == TARGET_DURATION:
                speedup_at_target = speedup
        scaling.append(
            {
                "duration": duration,
                "jobs": jobs,
                "batched_seconds": batched_seconds,
                "event_seconds": event_seconds,
                "speedup": speedup,
            }
        )

    return {
        "system": {
            "machines": 16,
            "arrival_rate": ARRIVAL_RATE,
            "target_duration": TARGET_DURATION,
        },
        "parity": parity,
        "scaling": scaling,
        "speedup_at_target": speedup_at_target,
        "speedup_target": SPEEDUP_TARGET,
    }


def check_summary(summary: dict) -> list[str]:
    """The bench's assertions; empty list = all good."""
    failures = []
    for case in summary["parity"]:
        if not case["bit_identical"]:
            failures.append(
                "batched round differs from the event round under "
                f"deterministic service (drop={case['drop_probability']:g}, "
                f"{case['jobs']} jobs)"
            )
    speedup = summary["speedup_at_target"]
    if speedup is None:
        failures.append("the target round was never timed against the event path")
    elif speedup < SPEEDUP_TARGET:
        failures.append(
            f"batched speedup {speedup:.1f}x at duration="
            f"{summary['system']['target_duration']:g} is below "
            f"{SPEEDUP_TARGET:g}x"
        )
    return failures


def _render(summary: dict) -> str:
    from repro.experiments import render_table

    def seconds(value):
        return "-" if value is None else f"{value * 1e3:.1f} ms"

    rows = [
        [
            f"{row['duration']:g}",
            row["jobs"],
            seconds(row["batched_seconds"]),
            seconds(row["event_seconds"]),
            "-" if row["speedup"] is None else f"{row['speedup']:.1f} x",
        ]
        for row in summary["scaling"]
    ]
    rows.append(["", "", "", "", ""])
    for case in summary["parity"]:
        rows.append(
            [
                f"parity drop={case['drop_probability']:g}",
                case["jobs"],
                "identical" if case["bit_identical"] else "DIFFER",
                "",
                f"target {summary['speedup_target']:g} x",
            ]
        )
    return render_table(
        ["duration (s)", "jobs", "batched", "event engine", "speedup"],
        rows,
        title="A22. Batched job-event execution engine vs per-job heap events.",
    )


def _write_artifacts(summary: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_event_batching.txt").write_text(
        _render(summary) + "\n"
    )
    (RESULTS_DIR / "BENCH_event_batching.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


# --------------------------------------------------------------- pytest


def test_batched_engine_speedup_and_parity(record_result, record_json):
    summary = measure_event_batching(
        durations=(200.0, 500.0, 1000.0), repeats=2
    )
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)
    record_result("ablation_event_batching", _render(summary))
    record_json("BENCH_event_batching", summary)


def test_campaign_default_routes_through_the_batched_engine():
    # ExperimentUnit("auto") must resolve to the batched engine, so
    # cached campaign payloads are keyed on what actually ran.
    from repro.parallel.units import ExperimentUnit
    from repro.system.cluster import paper_cluster

    unit = ExperimentUnit(
        kind="protocol", scenario="True1", bid_factor=1.0,
        execution_factor=1.0,
        true_values=tuple(paper_cluster().true_values.tolist()),
        arrival_rate=20.0, seed=0, duration=20.0,
    )
    assert unit.execution == "batched"
    assert unit.as_config()["execution"] == "batched"


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any broken assertion."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (target duration only, 2 repeats)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    parser.add_argument(
        "--no-artifacts", action="store_true",
        help="skip refreshing benchmarks/results/",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        summary = measure_event_batching(
            durations=(TARGET_DURATION,), repeats=2, parity_drops=(0.0,)
        )
    else:
        summary = measure_event_batching()

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
