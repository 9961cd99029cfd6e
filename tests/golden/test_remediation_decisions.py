"""Golden remediation decisions: every round of the A23 scenarios.

``tests/golden/remediation/decisions.json`` holds, for each A23
degradation scenario (``default_scenarios()``) and seeds 0-2, what the
remediation loop saw and did in every round: the incidents (kind,
machine, evidence), the proposed action ids, the shadow verdicts
(accepted, reason, predicted and baseline gaps), the applied ids in
apply order, the rejected and rolled-back ids and the round's payments,
plus the supervisor's final bid overrides and detector threshold.
Floats are written by ``repr`` so the comparison is bit for bit.

A change that is meant to keep the loop's decisions must leave the file
as it is; one that changes a decision on purpose regenerates it with
``PYTHONPATH=src python -m tests.golden.test_remediation_decisions``
and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.remediation import default_scenarios, scenario_fault_plan
from repro.remediation.mttr import _build_supervisor
from repro.resilience.chaos import ChaosHarness

GOLDEN = Path(__file__).parent / "remediation" / "decisions.json"

SEEDS = (0, 1, 2)


def _ids(actions) -> list[str]:
    return [a.action_id for a in actions]


def decisions() -> str:
    """The decisions of every scenario x seed, as the golden's text."""
    dump = {}
    for scenario in default_scenarios():
        for seed in SEEDS:
            supervisor = _build_supervisor(scenario, remediation=True, seed=seed)
            plan = scenario_fault_plan(scenario, supervisor.machine_names)
            report = ChaosHarness(supervisor, plan, stop_on_violation=False).run()
            history = supervisor.remediation.history
            assert len(history) == len(report.rounds)
            rounds = []
            for entry, result in zip(history, report.rounds):
                rounds.append(
                    {
                        "index": entry.round_index,
                        "incidents": [
                            {
                                "kind": i.kind,
                                "machine": i.machine,
                                "evidence": {
                                    k: repr(v) for k, v in i.evidence.items()
                                },
                            }
                            for i in entry.incidents
                        ],
                        "proposed": _ids(entry.proposed),
                        "verdicts": [
                            {
                                "action": v.action_id,
                                "accepted": v.accepted,
                                "reason": v.reason,
                                "predicted": repr(v.predicted_excess),
                                "baseline": repr(v.baseline_excess),
                            }
                            for v in entry.verdicts
                        ],
                        "applied": _ids(entry.applied),
                        "rejected": _ids(entry.rejected),
                        "rolled_back": _ids(entry.rolled_back),
                        "payments": {
                            name: repr(float(p))
                            for name, p in result.payments.items()
                        },
                    }
                )
            dump[f"{scenario.name}/seed{seed}"] = {
                "rounds": rounds,
                "bid_overrides": {
                    name: repr(float(v))
                    for name, v in supervisor.bid_overrides.items()
                },
                "detector_threshold": repr(float(supervisor.detector_threshold)),
            }
    return json.dumps(dump, indent=1) + "\n"


def test_decisions_match_golden():
    assert decisions() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(decisions(), encoding="utf-8")
