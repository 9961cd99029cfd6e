"""Ablation A24 — sharded coordinator: rounds/sec vs agent count.

The sharded service exists because the monolithic coordinator routes
every bid, report, and payment through one discrete-event message loop:
a round costs ~5 heap events *per agent* and the coordinator becomes
the bottleneck long before the mechanism's math does.  Sharding turns
the round into four batched stages whose cross-shard traffic is two
scalars per shard up an aggregation tree (docs/distributed.md), so the
per-agent work collapses to vectorised NumPy: each shard settles with
one write-ahead ledger record and one watermark bump for its whole
run of payment notices.

Claims gated here (DESIGN.md §13):

* **parity first** — before timing anything, one sharded round must be
  bit-identical to the monolithic path on the same seed (speed born of
  a different answer is a bug, not a win);
* **>= 3x rounds/sec at 4 shards** for n >= 10_000 agents versus the
  monolithic ``run_protocol`` path, on every machine including 1-core
  CI — the speedup is architectural (batched stages vs per-agent
  events), not parallelism, so it must show up without extra cores.

The default sweep (the pytest bench, which writes
``results/ablation_sharded.txt``) adds a service-only point at
n = 10^5; its monolithic baseline stops at ``GATE_N``.  The standalone
run without ``--smoke`` sizes the service up to n = 10^6 (the baseline
is capped at 10^5; beyond that a single monolithic round takes minutes
and measures patience, not architecture).  Every point records the
seconds per round and the process's peak RSS once it ran (a
high-water mark, so it also covers the points before it; they ascend
in n).

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_sharded.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_sharded.py
  [--smoke] [--json]``), exiting non-zero when a gate fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SPEEDUP_TARGET = 3.0      # service rounds/sec vs monolithic, at GATE_N+
GATE_N = 10_000           # smallest n where the >= 3x gate applies
SHARDS = 4                # the gated configuration
RATE = 64.0               # jobs/sec: ~640 jobs per round, n-independent
DURATION = 10.0           # short windows keep coordination dominant
SMOKE_NS = (1_000, 10_000)
DEFAULT_NS = (1_000, 10_000, 100_000)  # n = 10^5 without a baseline
FULL_NS = (1_000, 10_000, 100_000, 1_000_000)
MAX_BASELINE_N = 100_000  # monolithic rounds beyond this take minutes
SERVICE_ROUNDS = 2        # amortise setup; the service is long-lived


def _tiled_values(n: int):
    import numpy as np

    from repro.system.cluster import paper_cluster

    base = np.asarray(paper_cluster().true_values)
    return np.tile(base, (n + base.size - 1) // base.size)[:n]


def _agents(values):
    from repro.agents import TruthfulAgent

    return [TruthfulAgent(t) for t in values]


def _assert_parity(n: int, seed: int = 7) -> bool:
    """One sharded round must equal the monolithic round bit-for-bit."""
    import numpy as np

    from repro.distributed import ShardedCoordinatorService
    from repro.protocol import run_protocol

    values = _tiled_values(n)
    mono = run_protocol(
        _agents(values), RATE, duration=DURATION,
        rng=np.random.default_rng(seed), deterministic_service=True,
    )
    service = ShardedCoordinatorService(
        _agents(values), RATE, shards=SHARDS, duration=DURATION,
        rng=np.random.default_rng(seed),
    )
    try:
        result = service.run_round()
    finally:
        service.close()
    return (
        np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )
        and result.jobs_routed == mono.jobs_routed
    )


def measure_throughput(
    ns=DEFAULT_NS, *, shards: int = SHARDS, max_baseline_n: int = GATE_N
) -> dict:
    """Rounds/sec for the sharded service vs the monolithic path.

    The baseline is the best of ``SERVICE_ROUNDS`` ``run_protocol``
    rounds per n (it is stateless, so one round *is* its steady
    state).  The service is timed per-round over the same count of
    consecutive rounds after construction — a long-lived service
    amortises machine setup across its lifetime — and best-of is used
    on both sides: minima compare architectures, means compare noise.
    """
    import numpy as np

    from repro.distributed import ShardedCoordinatorService
    from repro.protocol import run_protocol

    points = []
    for n in ns:
        values = _tiled_values(n)
        point: dict = {"n": int(n)}

        if n <= max_baseline_n:
            agents = _agents(values)
            mono_seconds = []
            for _ in range(SERVICE_ROUNDS):
                start = time.perf_counter()
                run_protocol(
                    agents, RATE, duration=DURATION,
                    rng=np.random.default_rng(0),
                    deterministic_service=True,
                )
                mono_seconds.append(time.perf_counter() - start)
            point["monolithic_seconds_per_round"] = min(mono_seconds)
            point["monolithic_rounds_per_sec"] = 1.0 / min(mono_seconds)
        else:
            point["monolithic_seconds_per_round"] = None
            point["monolithic_rounds_per_sec"] = None

        service = ShardedCoordinatorService(
            _agents(values), RATE, shards=shards, duration=DURATION,
            rng=np.random.default_rng(0),
        )
        try:
            service_seconds = []
            for _ in range(SERVICE_ROUNDS):
                start = time.perf_counter()
                service.run_round()
                service_seconds.append(time.perf_counter() - start)
        finally:
            service.close()
        point["service_seconds_per_round"] = min(service_seconds)
        point["service_rounds_per_sec"] = 1.0 / min(service_seconds)
        # The process's peak resident set so far (ru_maxrss is in KiB).
        point["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )

        if point["monolithic_seconds_per_round"] is not None:
            point["speedup"] = (
                point["monolithic_seconds_per_round"]
                / point["service_seconds_per_round"]
            )
        else:
            point["speedup"] = None
        points.append(point)

    gated = [
        p for p in points
        if p["n"] >= GATE_N and p["speedup"] is not None
    ]
    return {
        "shards": shards,
        "arrival_rate": RATE,
        "duration": DURATION,
        "service_rounds": SERVICE_ROUNDS,
        "points": points,
        "parity_bit_identical": _assert_parity(min(ns)),
        "speedup_target": SPEEDUP_TARGET,
        "gate_n": GATE_N,
        "gated_points": len(gated),
        "speedup_met": bool(gated)
        and all(p["speedup"] >= SPEEDUP_TARGET for p in gated),
    }


def check_summary(summary: dict) -> list[str]:
    """The A24 gates; empty = all good."""
    failures = []
    if not summary["parity_bit_identical"]:
        failures.append("sharded round is not bit-identical to monolithic")
    if not summary["gated_points"]:
        failures.append(f"no measured point at n >= {GATE_N}")
    elif not summary["speedup_met"]:
        worst = min(
            p["speedup"] for p in summary["points"]
            if p["n"] >= GATE_N and p["speedup"] is not None
        )
        failures.append(
            f"sharded speedup {worst:.2f}x < {SPEEDUP_TARGET:g}x "
            f"at {summary['shards']} shards for n >= {GATE_N}"
        )
    return failures


# --------------------------------------------------------------- pytest


def test_sharded_throughput_gate(record_result, record_json):
    summary = measure_throughput()
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)

    from repro.experiments import render_table

    rows = []
    for p in summary["points"]:
        rows.append([
            f"{p['n']:,}",
            "-" if p["monolithic_rounds_per_sec"] is None
            else f"{p['monolithic_rounds_per_sec']:.2f}",
            f"{p['service_rounds_per_sec']:.2f}",
            f"{p['service_seconds_per_round'] * 1e3:.1f}",
            f"{p['peak_rss_mib']:.0f}",
            "-" if p["speedup"] is None else f"{p['speedup']:.2f} x",
        ])
    rows.append([
        "parity", "", "", "", "",
        "bit-identical" if summary["parity_bit_identical"] else "BROKEN",
    ])
    record_result(
        "ablation_sharded",
        render_table(
            ["agents", "monolithic rounds/s",
             f"{summary['shards']}-shard rounds/s", "ms/round",
             "peak RSS MiB", "speedup"],
            rows,
            title=(
                "A24. Sharded coordinator service: rounds/sec vs agent "
                f"count (gate >= {SPEEDUP_TARGET:g}x at n >= {GATE_N:,})."
            ),
        ),
    )
    record_json("ablation_sharded", summary)
    record_json("BENCH_sharded", summary)


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any gate violation."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (n up to 10^4)",
    )
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    parser.add_argument(
        "--no-artifacts", action="store_true",
        help="skip refreshing results/BENCH_sharded.json",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        summary = measure_throughput(SMOKE_NS, shards=args.shards)
    else:
        summary = measure_throughput(
            FULL_NS, shards=args.shards, max_baseline_n=MAX_BASELINE_N
        )

    if not args.no_artifacts and not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_sharded.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for p in summary["points"]:
            mono = p["monolithic_rounds_per_sec"]
            speed = p["speedup"]
            print(
                f"n={p['n']:>9,}  mono "
                + ("      - " if mono is None else f"{mono:7.2f}")
                + f" rounds/s  service {p['service_rounds_per_sec']:7.2f}"
                f" rounds/s  peak RSS {p['peak_rss_mib']:6.0f} MiB  speedup "
                + ("   -" if speed is None else f"{speed:.2f}x")
            )
        print(
            "parity: "
            + ("bit-identical"
               if summary["parity_bit_identical"] else "BROKEN")
        )

    failures = check_summary(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
