#!/usr/bin/env python
"""Strategic manipulation study: why the payment rule matters.

Sweeps computer C1's bid across a wide range under three payment rules
and prints its utility curve:

* the paper's verification mechanism (Definition 3.3) — the curve peaks
  exactly at the true value;
* the declared-compensation variant — the peak moves *above* the true
  value (overbidding pays), demonstrating why the formal definition
  compensates at observed cost;
* no payments at all (a naive allocator) — underbidding to grab jobs or
  dodging load by overbidding is rampant.

Also runs iterated best-response dynamics under both mechanism variants
to show where bidding competition actually converges.

Run with::

    python examples/strategic_manipulation.py
"""

from __future__ import annotations

import numpy as np

from repro import BestResponseDynamics, VerificationMechanism, paper_cluster
from repro.experiments import render_table


def utility_curve(mechanism, true_values, arrival_rate, factors):
    """C1's utility for each bid factor (everyone else truthful)."""
    utilities = []
    for factor in factors:
        bids = true_values.copy()
        bids[0] *= factor
        outcome = mechanism.run(bids, arrival_rate, true_values)
        utilities.append(float(outcome.payments.utility[0]))
    return utilities


def main() -> None:
    cluster = paper_cluster()
    t = cluster.true_values
    rate = 20.0
    factors = np.array([0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0])

    observed = VerificationMechanism("observed")
    declared = VerificationMechanism("declared")

    curve_obs = utility_curve(observed, t, rate, factors)
    curve_dec = utility_curve(declared, t, rate, factors)

    rows = [
        [f"{f:g} * t1", uo, ud, "<-- truth" if f == 1.0 else ""]
        for f, uo, ud in zip(factors, curve_obs, curve_dec)
    ]
    print(
        render_table(
            ["C1 bid", "utility (Def 3.3)", "utility (declared)", ""],
            rows,
            title="C1's utility as a function of its bid (others truthful)",
        )
    )

    best_obs = factors[int(np.argmax(curve_obs))]
    best_dec = factors[int(np.argmax(curve_dec))]
    print(f"\nutility-maximising bid under Def 3.3    : {best_obs:g} * t1")
    print(f"utility-maximising bid under declared   : {best_dec:g} * t1  (lying pays!)")

    # --- Where does bidding competition converge? -------------------------
    small = t[:6]  # keep the best-response dynamics quick
    for label, mech in (("Def 3.3", observed), ("declared", declared)):
        game = BestResponseDynamics(mech, small, 10.0)
        trace = game.run(max_rounds=6)
        drift = trace.max_drift_from(small)
        print(
            f"\niterated best response under {label:9s}: "
            f"{trace.rounds} rounds, converged={trace.converged}, "
            f"max drift from truth = {100 * drift:.1f}%"
        )
        print(f"  final bids: {np.round(trace.final_bids, 3)}")
        print(f"  true values: {small}")


if __name__ == "__main__":
    main()
