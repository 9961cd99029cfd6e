"""Ablation A21 — closed-form best-response kernel: speedup and exactness.

The vectorized best response (``repro.agents.kernels``) makes two
promises (DESIGN.md §10):

* **identical selections** — with refinement off, the kernel path picks
  the *bit-identical* ``(bid, execution)`` grid pair the brute-force
  scan picks, for every agent, seed, and compensation variant, and the
  reported utilities agree to 1e-9 relative;
* **speed** — at n = 64 the kernel evaluates the whole candidate grid
  >= 10x faster than the one-``Mechanism.run``-per-cell scan, and its
  cost stays flat (O(n + grid)) out to n = 4096, where the brute path
  (O(n * grid)) is no longer worth timing.

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_best_response.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_best_response.py
  [--smoke] [--json]``), exiting non-zero on any failed assertion and
  refreshing ``results/ablation_best_response.txt`` and
  ``results/BENCH_best_response.json``.
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

SPEEDUP_TARGET = 10.0          # kernel vs brute force at n = 64
UTILITY_TOLERANCE = 1e-12      # relative agreement of reported utilities
SCALING_NS = (16, 64, 256, 1024, 4096)
BRUTE_MAX_N = 64               # largest n worth timing the brute path at
AGREEMENT_SEEDS = (0, 1, 2)
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _system(n: int, seed: int) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(20030422 + seed)
    true_values = rng.uniform(0.5, 10.0, n)
    return true_values, 0.5 * n


def measure_best_response(
    *,
    ns: tuple[int, ...] = SCALING_NS,
    brute_max_n: int = BRUTE_MAX_N,
    repeats: int = 3,
    agreement_seeds: tuple[int, ...] = AGREEMENT_SEEDS,
) -> dict:
    """Agreement sweep at n = 64 plus the fast-path scaling curve.

    Both timing arms run with ``refine=False`` so they execute the
    exact same grid search (the refinement stage is method-independent
    polish) and their selections can be compared bit-for-bit.
    """
    from repro.agents import best_response
    from repro.mechanism import VerificationMechanism

    # ---- exactness: brute vs kernel over seeds x variants x agents
    cases = 0
    selections_identical = True
    max_utility_error = 0.0
    truthful_agreement = True
    n_agree = min(64, max(ns))
    for seed in agreement_seeds:
        true_values, arrival_rate = _system(n_agree, seed)
        for compensation in ("observed", "declared"):
            mechanism = VerificationMechanism(compensation)
            for agent in (0, n_agree // 2, n_agree - 1):
                brute = best_response(
                    mechanism, true_values, arrival_rate, agent,
                    method="bruteforce", refine=False,
                )
                fast = best_response(
                    mechanism, true_values, arrival_rate, agent,
                    method="vectorized", refine=False,
                )
                cases += 1
                if (brute.bid, brute.execution_value) != (
                    fast.bid, fast.execution_value
                ):
                    selections_identical = False
                scale = max(1.0, abs(brute.utility))
                max_utility_error = max(
                    max_utility_error, abs(brute.utility - fast.utility) / scale
                )
                if brute.is_truthful != fast.is_truthful:
                    truthful_agreement = False

    # ---- scaling curve: kernel everywhere, brute only where affordable
    scaling = []
    speedup_at_64 = None
    for n in ns:
        true_values, arrival_rate = _system(n, 0)
        mechanism = VerificationMechanism("observed")
        agent = n // 2

        def fast_call():
            best_response(
                mechanism, true_values, arrival_rate, agent,
                method="vectorized", refine=False,
            )

        fast_seconds = best_seconds(fast_call, repeats)
        brute_seconds = None
        speedup = None
        if n <= brute_max_n:

            def brute_call():
                best_response(
                    mechanism, true_values, arrival_rate, agent,
                    method="bruteforce", refine=False,
                )

            brute_seconds = best_seconds(brute_call, repeats)
            speedup = brute_seconds / fast_seconds
            if n == 64:
                speedup_at_64 = speedup
        scaling.append(
            {
                "n": n,
                "fast_seconds": fast_seconds,
                "brute_seconds": brute_seconds,
                "speedup": speedup,
            }
        )

    return {
        "grid": {"scan_points": 48, "exec_points": 8},
        "agreement": {
            "n": n_agree,
            "seeds": list(agreement_seeds),
            "cases": cases,
            "selections_identical": selections_identical,
            "max_relative_utility_error": max_utility_error,
            "truthful_verdicts_agree": truthful_agreement,
            "utility_tolerance": UTILITY_TOLERANCE,
        },
        "scaling": scaling,
        "speedup_at_64": speedup_at_64,
        "speedup_target": SPEEDUP_TARGET,
    }


def check_summary(summary: dict) -> list[str]:
    """The bench's assertions; empty list = all good."""
    failures = []
    agreement = summary["agreement"]
    if not agreement["selections_identical"]:
        failures.append(
            "kernel and brute-force grid selections differ "
            f"({agreement['cases']} cases checked)"
        )
    if agreement["max_relative_utility_error"] > UTILITY_TOLERANCE:
        failures.append(
            "utility agreement "
            f"{agreement['max_relative_utility_error']:.3e} exceeds "
            f"{UTILITY_TOLERANCE:g}"
        )
    if not agreement["truthful_verdicts_agree"]:
        failures.append("truthfulness verdicts differ between methods")
    speedup = summary["speedup_at_64"]
    if speedup is not None and speedup < SPEEDUP_TARGET:
        failures.append(
            f"kernel speedup {speedup:.1f}x at n=64 is below "
            f"{SPEEDUP_TARGET:g}x"
        )
    return failures


def _render(summary: dict) -> str:
    from repro.experiments import render_table

    def seconds(value):
        return "-" if value is None else f"{value * 1e3:.3f} ms"

    rows = [
        [
            row["n"],
            seconds(row["fast_seconds"]),
            seconds(row["brute_seconds"]),
            "-" if row["speedup"] is None else f"{row['speedup']:.1f} x",
        ]
        for row in summary["scaling"]
    ]
    agreement = summary["agreement"]
    rows.append(["", "", "", ""])
    rows.append(
        [
            f"agreement ({agreement['cases']} cases)",
            "identical" if agreement["selections_identical"] else "DIFFER",
            f"u err {agreement['max_relative_utility_error']:.1e}",
            f"target {summary['speedup_target']:g} x",
        ]
    )
    return render_table(
        ["n", "kernel", "brute force", "speedup"],
        rows,
        title="A21. Closed-form best-response kernel vs per-cell mechanism runs.",
    )


def _write_artifacts(summary: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_best_response.txt").write_text(
        _render(summary) + "\n"
    )
    (RESULTS_DIR / "BENCH_best_response.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


# --------------------------------------------------------------- pytest


def test_kernel_speedup_and_exactness(record_result, record_json):
    summary = measure_best_response()
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)
    record_result("ablation_best_response", _render(summary))
    record_json("BENCH_best_response", summary)


def test_refined_paths_agree_on_the_paper_system():
    # With refinement on, selections may differ in the last few ulps
    # (different floating-point op order), but the achieved utilities
    # and the truthfulness verdicts must still coincide.
    from repro.agents import best_response
    from repro.mechanism import VerificationMechanism
    from repro.system import paper_cluster
    from repro.system.cluster import PAPER_ARRIVAL_RATE

    cluster = paper_cluster()
    for compensation in ("observed", "declared"):
        mechanism = VerificationMechanism(compensation)
        for agent in (0, 7, 15):
            brute = best_response(
                mechanism, cluster.true_values,
                PAPER_ARRIVAL_RATE, agent, method="bruteforce",
            )
            fast = best_response(
                mechanism, cluster.true_values,
                PAPER_ARRIVAL_RATE, agent, method="vectorized",
            )
            scale = max(1.0, abs(brute.utility))
            assert abs(brute.utility - fast.utility) / scale < 1e-7
            assert brute.is_truthful == fast.is_truthful


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any broken assertion."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (scaling stops at n=256, 1 seed)",
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
        summary = measure_best_response(
            ns=(16, 64, 256), repeats=2, agreement_seeds=(0,)
        )
    else:
        summary = measure_best_response()

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
