"""Ablation A23 — what closed-loop remediation buys: MTTR.

Runs the seeded degradation scenarios of
:mod:`repro.remediation.mttr` twice — remediation **on** and **off** —
and measures the mean time to recovery: rounds from fault onset until
the verification gap (realised / allocation-promised latency) is back
within tolerance of 1.  The acceptance gate is the issue's headline
claim:

* remediation-on MTTR at least **2x** better than remediation-off, and
* **zero** invariant violations caused by applied actions.

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_remediation.py --benchmark-only``);
* standalone as the CI smoke gate
  (``PYTHONPATH=src python benchmarks/bench_remediation.py --smoke``),
  which exits non-zero if either gate fails.
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

MTTR_IMPROVEMENT_GATE = 2.0


def run_comparison(seed: int, *, smoke: bool = False) -> dict:
    """Run the A23 scenario suite; return a JSON-ready summary."""
    from repro.remediation import default_scenarios, measure_mttr

    scenarios = default_scenarios()
    if smoke:
        scenarios = scenarios[:1]  # creeping-slowdown only
    comparison = measure_mttr(scenarios, seed=seed)

    per_scenario = []
    for on, off in zip(comparison.runs_on, comparison.runs_off):
        per_scenario.append(
            {
                "scenario": on.scenario,
                "mttr_on": on.mttr_rounds,
                "mttr_off": off.mttr_rounds,
                "recovered_on": on.recovered,
                "recovered_off": off.recovered,
                "actions_applied": on.actions_applied,
                "actions_rejected": on.actions_rejected,
                "violations_on": on.violations,
                "violations_off": off.violations,
            }
        )
    return {
        "seed": seed,
        "smoke": smoke,
        "scenarios": per_scenario,
        "mttr_on": comparison.mttr_on,
        "mttr_off": comparison.mttr_off,
        "improvement": comparison.improvement,
        "improvement_gate": MTTR_IMPROVEMENT_GATE,
        "violations_from_actions": comparison.violations_from_actions,
        "gate_passed": (
            comparison.improvement >= MTTR_IMPROVEMENT_GATE
            and comparison.violations_from_actions == 0
        ),
    }


# --------------------------------------------------------------- pytest


def test_mttr_improvement_gate(benchmark, record_result, record_json):
    summary = benchmark.pedantic(
        run_comparison, args=(0,), rounds=1, iterations=1
    )
    assert summary["violations_from_actions"] == 0
    assert summary["improvement"] >= MTTR_IMPROVEMENT_GATE
    # Remediation must actually have acted, not won by accident.
    assert all(s["actions_applied"] > 0 for s in summary["scenarios"])
    assert all(s["recovered_on"] for s in summary["scenarios"])

    from repro.experiments import render_table

    rows = [
        [
            s["scenario"],
            s["mttr_off"],
            s["mttr_on"],
            s["actions_applied"],
            s["actions_rejected"],
            s["violations_on"],
        ]
        for s in summary["scenarios"]
    ]
    record_result(
        "ablation_remediation_mttr",
        render_table(
            ["scenario", "MTTR off", "MTTR on", "applied", "rejected",
             "violations"],
            rows,
            title=(
                "A23. MTTR with/without closed-loop remediation "
                f"(improvement {summary['improvement']:.1f}x, gate "
                f">= {MTTR_IMPROVEMENT_GATE:.0f}x)."
            ),
        ),
    )
    record_json("BENCH_remediation", summary)


def test_every_applied_action_was_shadow_verified():
    # Structural guarantee behind the zero-violation gate: over the
    # pipeline history of the first scenario, every action applied in a
    # round had an accepting shadow verdict in that same round.
    from repro.remediation import default_scenarios, scenario_fault_plan
    from repro.remediation.mttr import _build_supervisor
    from repro.resilience.chaos import ChaosHarness

    scenario = default_scenarios()[0]
    supervisor = _build_supervisor(scenario, remediation=True, seed=0)
    plan = scenario_fault_plan(scenario, supervisor.machine_names)
    report = ChaosHarness(supervisor, plan, stop_on_violation=False).run()
    history = supervisor.remediation.history
    assert any(entry.applied for entry in history)
    for entry in history:
        accepted = {v.action_id for v in entry.verdicts if v.accepted}
        assert {a.action_id for a in entry.applied} <= accepted
    assert report.violations == []


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the comparison and fail on a missed gate."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast gate sized for CI (first scenario only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    args = parser.parse_args(argv)

    summary = run_comparison(args.seed, smoke=args.smoke)

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for s in summary["scenarios"]:
            print(
                f"{s['scenario']:24} MTTR off {s['mttr_off']:5.1f}  "
                f"on {s['mttr_on']:5.1f}  applied {s['actions_applied']}  "
                f"rejected {s['actions_rejected']}  "
                f"violations {s['violations_on']}"
            )
        print(
            f"{'improvement':24} {summary['improvement']:.2f}x "
            f"(gate >= {MTTR_IMPROVEMENT_GATE:.0f}x)"
        )
        print(f"{'violations_from_actions':24} "
              f"{summary['violations_from_actions']}")

    if not summary["gate_passed"]:
        print(
            "GATE FAILED: improvement "
            f"{summary['improvement']:.2f}x (need >= "
            f"{MTTR_IMPROVEMENT_GATE:.0f}x), violations "
            f"{summary['violations_from_actions']} (need 0)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
