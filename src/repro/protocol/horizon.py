"""Horizon-fused multi-round engine: stacked rounds between event boundaries.

The sequential :class:`~repro.resilience.supervisor.RoundSupervisor`
pays full per-round protocol machinery even when nothing interesting
happens: a fresh discrete-event simulator, ~5n messages through the
network layer, write-ahead checkpoints (four phase snapshots and a
journal entry per bid, report and payment), per-job Python CUSUM
loops, and a pile of per-round dataclass churn.  On a fault-free horizon every one of those rounds computes the
same *kind* of thing — bids, one PR solve, one Poisson window,
per-machine sojourn statistics, one mechanism evaluation — so this
module evaluates maximal fault-free runs of rounds as one fused
segment instead.

Fusible-segment model
---------------------
:func:`run_horizon` walks the horizon and partitions it into maximal
**fusible segments**.  A round is fusible (:func:`fusible_round`) iff
nothing about it needs the message-driven machinery:

* its fault entry is ``None`` or clean (no drops, no machine faults,
  no coordinator crash);
* the supervisor has no pending remediation skip (``skip_rounds == 0``)
  and no remediation pipeline at all (the pipeline may mutate
  supervisor state *between* rounds, which only the sequential path
  sequences correctly);
* the batched execution engine is active (``execution == "batched"``
  — the per-job event path interleaves its service draws with event
  delivery order and cannot be replayed as a batch).

Every non-fusible round **de-fuses**: it is delegated verbatim to
``supervisor.run_round(faults)`` (counted by
``horizon.defused.boundaries``), so chaos, remediation, retry, and
crash-recovery semantics are exactly the sequential code — not a
reimplementation.

A fused segment runs in two phases:

* **Phase A (per round, cheap):** the round steps every path shares —
  ``RoundSupervisor._admit``, :func:`~repro.protocol.coordinator.effective_bid`,
  the incremental PR allocate (kept warm so later de-fused rounds see
  identical allocator state), the round's workload draw through the
  *same* ``RoundSupervisor._generate_times``, the batched execute
  kernel :func:`~repro.protocol.execution.serve_batch` (the one
  ``dispatch_batched`` serves through, on plain arrays instead of
  machine objects), :func:`~repro.protocol.execution.sojourn_means` and
  :func:`~repro.protocol.estimator.verified_estimates`,
  :func:`~repro.protocol.monitoring.slowdown_alerts`, and
  ``RoundSupervisor._close_round``.  The kernel's flat sojourn column
  and the per-machine job counts go to the estimator and the detector
  as they stand; Phase A makes no per-machine slices.  Membership
  churn (an alert quarantining a machine mid-segment, probes
  re-admitted) is handled naturally because admission still happens
  round by round.
* **Phase B (stacked):** all live rounds of the segment are grouped
  by machine count and priced as one ``(T_seg, n)`` call into
  :mod:`repro.mechanism.pricing` — the kernel
  :class:`~repro.mechanism.VerificationMechanism` itself prices
  through, whose stacked rows are byte-identical to single profiles.
  Other mechanism types are priced per round through
  ``mechanism.run`` while Phase A still skips the protocol tax.

Parity contract
---------------
Results are **bit-identical** to ``supervisor.run(n_rounds)`` on the
same seed — every float in every :class:`RoundResult`, through
``repr`` and back.  Three properties carry the contract:

1. **RNG stream order.**  A clean sequential round consumes, in
   order: the Poisson count draw, the uniform position draws, the
   routing ``choice`` draw, then (stochastic service only) the
   kernel's one exponential draw over every machine's jobs in
   machine-index order.  Phase A replays exactly that order through
   the same kernel; notably the workload is drawn
   per round — the sequential round interleaves each round's count,
   position and routing draws, so one segment-level draw would
   consume the stream in a different order — and backoff RNG is
   never consumed because clean rounds never retry.
2. **Zero-delay timing.**  The simulated network delivers at delay
   0.0, so allocation fires at ``sim.now == 0.0`` and the dispatched
   arrival times are ``0.0 + times`` — bitwise the raw draw.
   The kernel's sojourns are ``(times_k + duration) - times_k`` on the
   machine-sorted arrivals of the one shared sort,
   :func:`~repro.protocol.execution.sort_by_machine`.
3. **Dual loads.**  The sequential round uses the *incremental
   allocator's* loads for machine configuration, routing fractions,
   and execution-value estimates, but the *mechanism's* fresh PR
   loads for ``RoundResult.loads`` and CUSUM detection.  The fused
   path reproduces both, from the same inputs, in the same order.

Observability: fused rounds record the sequential counters
(``supervisor.rounds``, ``supervisor.jobs_routed``, quarantine gauge)
plus ``horizon.fused.rounds``; every de-fused round additionally
counts ``horizon.defused.boundaries``.  ``repro metrics --horizon``
surfaces both next to the campaign fusion counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mechanism import pricing
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.observability.instrumentation import (
    observe_value,
    record_counter,
    record_gauge,
    trace_span,
)
from repro.protocol.coordinator import effective_bid
from repro.protocol.estimator import verified_estimates
from repro.protocol.execution import serve_batch, sojourn_means, sort_by_machine
from repro.protocol.monitoring import slowdown_alerts
from repro.system.workload import split_assignments
from repro.types import AllocationResult, MechanismOutcome, PaymentResult

if TYPE_CHECKING:  # pragma: no cover - cycle guard (resilience imports protocol)
    from repro.resilience.chaos import RoundFaults
    from repro.resilience.supervisor import (
        RoundResult,
        RoundSupervisor,
        SupervisorReport,
    )

__all__ = ["fusible_round", "run_horizon"]


def fusible_round(
    supervisor: "RoundSupervisor", faults: "RoundFaults | None"
) -> bool:
    """Whether the next round can join a fused segment.

    Decided *before* any supervisor state is touched: fault-free (or a
    clean :class:`~repro.resilience.chaos.RoundFaults`), no pending
    remediation skip, no remediation pipeline, batched execution.  Anything else de-fuses to ``supervisor.run_round``.
    """
    if supervisor.remediation is not None:
        return False
    if supervisor.skip_rounds > 0:
        return False
    if supervisor.execution != "batched":
        return False
    if faults is None:
        return True
    return bool(getattr(faults, "is_clean", False))


def _stacked_verification_outcomes(
    mechanism: VerificationMechanism,
    bids: np.ndarray,
    estimates: np.ndarray,
    rates: np.ndarray,
) -> list[MechanismOutcome]:
    """Price a ``(U, n)`` block of rounds exactly like per-round ``run``.

    One stacked call into :mod:`repro.mechanism.pricing`, whose rows
    are byte-identical to the per-round ``Mechanism.run`` pricing.
    """
    priced = pricing.price(
        mechanism.compensation_mode, bids, estimates, rates[:, None]
    )
    outcomes = []
    for r in range(bids.shape[0]):
        allocation = AllocationResult(
            loads=priced.loads[r],
            arrival_rate=float(rates[r]),
            bids=bids[r],
            total_latency=float(priced.declared_latency[r]),
        )
        payments = PaymentResult(
            compensation=priced.compensation[r],
            bonus=priced.bonus[r],
            valuation=priced.valuation[r],
        )
        outcomes.append(
            MechanismOutcome(
                allocation=allocation,
                payments=payments,
                execution_values=estimates[r],
                true_values=None,
                metadata={"mechanism": type(mechanism).__name__},
            )
        )
    return outcomes


def _run_fused_segment(supervisor: "RoundSupervisor", count: int) -> list:
    """Evaluate ``count`` consecutive fusible rounds as one segment."""
    from repro.resilience.supervisor import RoundResult

    mechanism = supervisor.mechanism
    exact_stack = type(mechanism) is VerificationMechanism

    results: list = []
    # (slot in results, bids, estimates, RoundResult fields) per round
    # whose pricing waits for the stacked Phase B.
    deferred: list[tuple[int, np.ndarray, np.ndarray, dict]] = []

    for _ in range(count):
        head = supervisor._admit()
        admitted = head["participants"]
        rate = head["arrival_rate"]

        record_counter("horizon.fused.rounds")
        record_counter("supervisor.rounds")
        record_gauge("resilience.quarantine.open", len(head["quarantined"]))

        if len(admitted) < 2:
            # Too few live machines to price: the sequential path voids
            # without touching quarantine outcomes — replicated inline
            # (delegating to run_round would re-run the admission and
            # corrupt the cooldown clocks).
            record_counter("supervisor.rounds_voided")
            observe_value("supervisor.jobs_routed", 0)
            results.append(
                RoundResult(**head, voided=True, excluded=list(admitted))
            )
            continue

        # -------------------------------------------------- wiring order
        # The sequential round materialises machines (one
        # ``agent.execution_value()`` each, in admitted order) before
        # any bid is requested; stateful agents observe the same call
        # sequence here.
        execution_values = [
            float(supervisor.agents[name].execution_value())
            for name in admitted
        ]
        bids = np.array(
            [
                effective_bid(
                    name, supervisor.agents[name].bid(), supervisor.bid_overrides
                )
                for name in admitted
            ],
            dtype=np.float64,
        )

        # Incremental allocator loads: configure/routing/estimates use
        # these (the coordinator's ``_loads``); the mechanism's fresh
        # PR loads below are a *different* array used for detection
        # and RoundResult.loads, exactly as in the sequential round.
        allocation = supervisor._allocator.allocate(
            list(admitted), bids, rate
        )
        alloc_loads = allocation.loads

        times = supervisor._generate_times(head["index"])
        jobs_routed = int(times.size)
        assignments = split_assignments(
            jobs_routed, alloc_loads / alloc_loads.sum(), supervisor._rng
        )

        # The batched kernel on the machine-sorted arrivals the
        # sequential round dispatches (0.0 + times, bitwise the raw
        # draws under the zero-delay network).
        ordered, counts = sort_by_machine(times, assignments, len(admitted))
        sojourns, _ = serve_batch(
            ordered,
            counts,
            execution_values,
            alloc_loads,
            supervisor._rng,
            supervisor.deterministic_service,
        )
        # The estimator and the detector read the column and the counts
        # as they stand: no per-machine slices.
        estimates = verified_estimates(
            bids, alloc_loads, counts, sojourn_means(sojourns, counts)
        )

        # ---------------------------------------------------- mechanism
        outcome: MechanismOutcome | None = None
        if (
            exact_stack
            and np.all(bids > 0.0)
            and np.all(estimates > 0.0)
            and np.all(np.isfinite(estimates))
        ):
            # Deferred: priced in the stacked Phase B broadcast.  The
            # detection below only needs the mechanism's PR loads.
            _, mech_loads = pricing.allocate(bids, rate)
        else:
            # Non-verification mechanisms (or degenerate inputs, which
            # must raise exactly as the sequential path would) are
            # priced per round; the protocol tax is still skipped.
            outcome = mechanism.run(bids, rate, estimates)
            mech_loads = outcome.loads

        alerts = slowdown_alerts(
            admitted,
            bids,
            mech_loads,
            sojourns,
            counts,
            threshold=supervisor.detector_threshold,
            slack=supervisor.detector_slack,
        )
        supervisor._close_round(admitted, alerts)
        observe_value("supervisor.jobs_routed", jobs_routed)

        record = {
            **head,
            "alerts": alerts,
            "payment_notices": {n: 1 for n in admitted},
            "jobs_routed": jobs_routed,
        }
        if outcome is None:
            deferred.append((len(results), bids, estimates, record))
            results.append(None)  # filled by Phase B
        else:
            results.append(RoundResult.priced(outcome, admitted, **record))

    # ---------------------------------------------------------- Phase B
    # Stack the deferred rounds by machine count and price each group
    # as one broadcast.  Rows are independent, so membership may vary
    # within a group; grouping by n only keeps the block rectangular.
    by_width: dict[int, list] = {}
    for entry in deferred:
        by_width.setdefault(entry[1].size, []).append(entry)
    for members in by_width.values():
        outcomes = _stacked_verification_outcomes(
            mechanism,
            np.array([bids for _, bids, _, _ in members]),
            np.array([estimates for _, _, estimates, _ in members]),
            np.array([record["arrival_rate"] for *_, record in members]),
        )
        for (slot, _, _, record), outcome in zip(members, outcomes):
            results[slot] = RoundResult.priced(
                outcome, record["participants"], **record
            )
    return results


def run_horizon(
    supervisor: "RoundSupervisor",
    n_rounds: int,
    fault_plan=None,
) -> "SupervisorReport":
    """Drive ``n_rounds`` rounds, fusing every maximal fault-free run.

    Bit-identical to ``supervisor.run(n_rounds, fault_plan)`` on the
    same seed (the A27 bench asserts this before timing anything);
    every non-fusible round de-fuses to ``supervisor.run_round`` so
    chaos and remediation semantics are the sequential code itself.
    """
    from repro.resilience.supervisor import SupervisorReport

    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    report = SupervisorReport()
    k = 0
    while k < n_rounds:
        faults = fault_plan[k] if fault_plan is not None else None
        if not fusible_round(supervisor, faults):
            record_counter("horizon.defused.boundaries")
            report.rounds.append(supervisor.run_round(faults))
            k += 1
            continue
        end = k + 1
        while end < n_rounds and fusible_round(
            supervisor, fault_plan[end] if fault_plan is not None else None
        ):
            end += 1
        with trace_span("horizon.segment", rounds=end - k):
            report.rounds.extend(_run_fused_segment(supervisor, end - k))
        k = end
    return report
