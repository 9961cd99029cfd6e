"""Ablation A25 — cross-mechanism kernels and the tournament gate.

PR 8 extended the closed-form utility kernel beyond the verification
mechanism to both truthful baselines.  This bench holds the three
promises that extension makes:

* **bit-parity** — for VCG and Archer–Tardos, the vectorized grid
  search picks the *bit-identical* ``(bid, execution)`` pair the
  brute-force per-cell scan picks (refinement off), with utilities
  agreeing to 1e-9 relative — the same contract A21 pins for the
  verification mechanism;
* **speed** — at n = 64 each new kernel beats its brute path by
  >= 10x (same grid, same tie-break);
* **tournament sanity** — the full cross-mechanism tournament
  (``repro tournament``) reproduces the paper's ordering: nobody
  degrades the truthful optimum, no individual or prefix-coalition
  lie is profitable under any of the three truthful rules, and joint
  overbidding stays profitable under the verification mechanism (the
  A11 finding) while VCG / Archer–Tardos resist it.

Standalone runs also refresh ``results/TOURNAMENT_results.json`` — the
committed tournament artifact ``docs/mechanisms.md`` quotes.

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_tournament.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_tournament.py
  [--smoke] [--json]``), exiting non-zero on any failed assertion and
  refreshing ``results/ablation_tournament.txt``,
  ``results/BENCH_tournament.json``, and
  ``results/TOURNAMENT_results.json``.
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

from timing import best_seconds

SPEEDUP_TARGET = 10.0          # kernel vs brute force at n = 64, per mechanism
UTILITY_TOLERANCE = 1e-12      # relative agreement of reported utilities
PARITY_N = 64
AGREEMENT_SEEDS = (0, 1, 2)
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The two mechanisms whose kernels this PR added (A21 covers the
#: verification mechanism's).
NEW_KERNELS = ("vcg", "archer-tardos")


def _system(n: int, seed: int) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(20030422 + seed)
    true_values = rng.uniform(0.5, 10.0, n)
    return true_values, 0.5 * n


def _mechanism(variant: str, *, brute: bool = False):
    """The variant's mechanism; ``brute`` gives it under a subclass.

    Best responses choose their evaluator by the mechanism's exact type,
    so the subclass — the same payment rule — is scored by one
    ``Mechanism.run`` per candidate: the brute-force arm.
    """
    from repro.mechanism import ArcherTardosMechanism, VCGMechanism

    cls = VCGMechanism if variant == "vcg" else ArcherTardosMechanism
    if brute:
        cls = type(f"BruteForce{cls.__name__}", (cls,), {})
    return cls()


def measure_kernels(
    *,
    n: int = PARITY_N,
    repeats: int = 3,
    agreement_seeds: tuple[int, ...] = AGREEMENT_SEEDS,
) -> list[dict]:
    """Parity sweep and speedup, one entry per new mechanism kernel.

    Both arms run ``refine=False`` so they execute the exact same grid
    search and their selections can be compared bit-for-bit.
    """
    from repro.agents import best_response

    out = []
    for variant in NEW_KERNELS:
        mechanism = _mechanism(variant)
        brute_mechanism = _mechanism(variant, brute=True)
        cases = 0
        selections_identical = True
        max_utility_error = 0.0
        truthful_agreement = True
        for seed in agreement_seeds:
            true_values, arrival_rate = _system(n, seed)
            for agent in (0, n // 2, n - 1):
                brute = best_response(
                    brute_mechanism, true_values, arrival_rate, agent,
                    refine=False,
                )
                fast = best_response(
                    mechanism, true_values, arrival_rate, agent, refine=False,
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

        true_values, arrival_rate = _system(n, 0)
        agent = n // 2

        def fast_call():
            best_response(
                mechanism, true_values, arrival_rate, agent, refine=False,
            )

        def brute_call():
            best_response(
                brute_mechanism, true_values, arrival_rate, agent,
                refine=False,
            )

        fast_seconds = best_seconds(fast_call, repeats)
        brute_seconds = best_seconds(brute_call, repeats)
        out.append(
            {
                "mechanism": variant,
                "n": n,
                "cases": cases,
                "selections_identical": selections_identical,
                "max_relative_utility_error": max_utility_error,
                "truthful_verdicts_agree": truthful_agreement,
                "fast_seconds": fast_seconds,
                "brute_seconds": brute_seconds,
                "speedup": brute_seconds / fast_seconds,
            }
        )
    return out


def measure_tournament() -> dict:
    """Run the full tournament; return its JSON plus wall time."""
    from repro.experiments.tournament import run_tournament

    start = time.perf_counter()
    result = run_tournament()
    return {
        "wall_seconds": time.perf_counter() - start,
        "result": result.to_json(),
    }


def measure_all(
    *,
    n: int = PARITY_N,
    repeats: int = 3,
    agreement_seeds: tuple[int, ...] = AGREEMENT_SEEDS,
) -> dict:
    return {
        "kernels": measure_kernels(
            n=n, repeats=repeats, agreement_seeds=agreement_seeds
        ),
        "tournament": measure_tournament(),
        "speedup_target": SPEEDUP_TARGET,
        "utility_tolerance": UTILITY_TOLERANCE,
    }


def check_summary(summary: dict) -> list[str]:
    """The bench's assertions; empty list = all good."""
    failures = []
    for entry in summary["kernels"]:
        name = entry["mechanism"]
        if not entry["selections_identical"]:
            failures.append(
                f"{name}: kernel and brute-force selections differ "
                f"({entry['cases']} cases checked)"
            )
        if entry["max_relative_utility_error"] > UTILITY_TOLERANCE:
            failures.append(
                f"{name}: utility agreement "
                f"{entry['max_relative_utility_error']:.3e} exceeds "
                f"{UTILITY_TOLERANCE:g}"
            )
        if not entry["truthful_verdicts_agree"]:
            failures.append(f"{name}: truthfulness verdicts differ")
        if entry["speedup"] < SPEEDUP_TARGET:
            failures.append(
                f"{name}: kernel speedup {entry['speedup']:.1f}x at "
                f"n={entry['n']} is below {SPEEDUP_TARGET:g}x"
            )

    tournament = summary["tournament"]["result"]
    for row in tournament["rows"]:
        cell = f"{row['mechanism']}/{row['pattern']}"
        if row["pattern_kind"] == "truthful":
            if abs(row["degradation_percent"]) > 1e-9:
                failures.append(f"{cell}: truthful profile off the optimum")
        elif row["degradation_percent"] < -1e-9:
            failures.append(f"{cell}: a lie improved the total latency")
        if row["pattern_kind"] in ("single", "multi") and row["profitable"]:
            failures.append(f"{cell}: non-collusive lie is profitable")
    standings = {s["mechanism"]: s for s in tournament["standings"]}
    if standings["observed"]["profitable_collusion_patterns"] == 0:
        failures.append(
            "collusion no longer profitable under the verification "
            "mechanism (contradicts A11)"
        )
    for mechanism in ("vcg", "archer-tardos"):
        if standings[mechanism]["profitable_collusion_patterns"] != 0:
            failures.append(f"collusion became profitable under {mechanism}")
    for eq in tournament["equilibrium"]:
        if not eq["converged"] or abs(eq["final_degradation_percent"]) > 1e-6:
            failures.append(
                f"{eq['mechanism']}: dynamics did not return to the optimum"
            )
    return failures


def _render(summary: dict) -> str:
    from repro.experiments import render_table

    rows = [
        [
            entry["mechanism"],
            "identical" if entry["selections_identical"] else "DIFFER",
            f"{entry['max_relative_utility_error']:.1e}",
            f"{entry['fast_seconds'] * 1e3:.3f} ms",
            f"{entry['brute_seconds'] * 1e3:.3f} ms",
            f"{entry['speedup']:.1f} x",
        ]
        for entry in summary["kernels"]
    ]
    parts = [
        render_table(
            ["kernel", "selections", "u err", "kernel t", "brute t", "speedup"],
            rows,
            title=f"A25. VCG / Archer-Tardos kernels vs brute force at "
            f"n = {summary['kernels'][0]['n']} "
            f"(target {summary['speedup_target']:g}x).",
        )
    ]
    tournament = summary["tournament"]["result"]
    parts.append(
        render_table(
            ["mechanism", "frugality", "worst degr %", "indiv. gain",
             "collusion wins"],
            [
                [
                    s["mechanism"],
                    f"{s['truthful_frugality_ratio']:.3f}",
                    f"{s['worst_degradation_percent']:.2f}",
                    f"{s['max_individual_gain']:.3f}",
                    f"{s['profitable_collusion_patterns']}",
                ]
                for s in tournament["standings"]
            ],
            title=f"Tournament standings ({len(tournament['rows'])} cells, "
            f"{summary['tournament']['wall_seconds'] * 1e3:.0f} ms).",
        )
    )
    return "\n\n".join(parts)


def _write_artifacts(summary: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_tournament.txt").write_text(
        _render(summary) + "\n"
    )
    (RESULTS_DIR / "BENCH_tournament.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    (RESULTS_DIR / "TOURNAMENT_results.json").write_text(
        json.dumps(summary["tournament"]["result"], indent=2, sort_keys=True)
        + "\n"
    )


# --------------------------------------------------------------- pytest


def test_new_kernels_and_tournament(record_result, record_json):
    summary = measure_all()
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)
    record_result("ablation_tournament", _render(summary))
    record_json("BENCH_tournament", summary)


def test_committed_tournament_results_match_a_fresh_run():
    # The committed artifact (quoted by docs/mechanisms.md) must be
    # reproducible bit-for-bit from a serial in-process run.
    path = RESULTS_DIR / "TOURNAMENT_results.json"
    if not path.exists():
        import pytest

        pytest.skip("no committed tournament artifact (run the bench)")
    from repro.experiments.tournament import run_tournament

    committed = json.loads(path.read_text())
    assert committed == run_tournament().to_json()


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any broken assertion."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (1 parity seed, 2 timing repeats)",
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
        summary = measure_all(repeats=2, agreement_seeds=(0,))
    else:
        summary = measure_all()

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
