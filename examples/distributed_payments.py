#!/usr/bin/env python
"""Distributed payment handling with privacy — the paper's future work.

"Future work will address the problem of distributed handling of
payments and the agents privacy."  This example runs that future work:

1. the machines compute the whole mechanism themselves over a spanning
   tree — two global-sum rounds (`S = sum 1/b_j`, then
   `Q = sum t_j/b_j^2`, which fixes the realised latency) are all anyone
   needs, and every machine derives its own allocation and payment
   locally;
2. the same run with additive secret sharing across three independent
   aggregators, so no single party — the tree root included — ever sees
   an individual machine's bid or observed cost;
3. a comparison of overlay shapes: message count is invariant (4 per
   machine), only the hop latency changes.

Run with::

    python examples/distributed_payments.py
"""

from __future__ import annotations

import numpy as np

from repro import VerificationMechanism, paper_cluster
from repro.distributed import (
    DistributedVerificationMechanism,
    SecureSumAggregation,
    star_overlay,
    tree_overlay,
)
from repro.experiments import render_table


def main() -> None:
    cluster = paper_cluster()
    rate = 20.0
    t = cluster.true_values
    # The Low2 manipulation, to show payments (not just happy paths).
    bids = t.copy()
    bids[0] = 0.5
    executions = t.copy()
    executions[0] = 2.0

    central = VerificationMechanism().run(bids, rate, executions)

    # --- 1. Fully distributed, plain sums ---------------------------------
    rows = []
    for label, overlay in (
        ("star", star_overlay(16)),
        ("binary tree", tree_overlay(16, arity=2)),
        ("chain", tree_overlay(16, arity=1)),
    ):
        run = DistributedVerificationMechanism(overlay).run(bids, rate, executions)
        err = float(np.abs(run.outcome.payments.payment - central.payments.payment).max())
        rows.append([label, run.total_messages, run.rounds_of_latency, f"{err:.1e}"])
    print(
        render_table(
            ["overlay", "messages", "hop latency", "max diff vs centralised"],
            rows,
            title="Distributed mechanism: identical payments, 4 messages/machine",
        )
    )

    # --- 2. With the privacy layer ----------------------------------------
    rng = np.random.default_rng(23)
    private = DistributedVerificationMechanism(
        tree_overlay(16), n_aggregators=3, rng=rng
    ).run(bids, rate, executions)
    err = float(
        np.abs(private.outcome.payments.payment - central.payments.payment).max()
    )
    print("\n== Privacy via additive secret sharing (k = 3 aggregators) ==")
    print(f"secret shares sent      : {private.privacy_shares_sent}")
    print(f"max payment difference  : {err:.2e}  (float masking noise only)")

    # What a single curious aggregator actually sees:
    demo = SecureSumAggregation(3, np.random.default_rng(5))
    secret_bid_term = 1.0 / bids[0]
    demo.contribute(secret_bid_term)
    print(f"machine C1's private 1/b: {secret_bid_term:.4f}")
    print(f"aggregator 0's view     : {demo.aggregator_view(0):+.1f}  (uniform noise)")
    print(f"all three combined      : {demo.result():.4f}  (the exact contribution)")

    # --- 3. The punchline ---------------------------------------------------
    print(
        "\nEvery machine computed its own payment from two public sums;"
        "\nno central payment computer, no bid ever revealed in the clear,"
        "\nand the liar C1 still ends up with utility "
        f"{float(private.outcome.payments.utility[0]):.2f} (< 0)."
    )


if __name__ == "__main__":
    main()
