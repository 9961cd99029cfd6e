"""Ablation A8 — distributed payment handling (the paper's future work).

Compares the centralised protocol against the fully distributed
mechanism (every machine computes its own payment from the (S, Q) of
two gather rounds), across overlay shapes and with the privacy layer on:

* outcome equality (payments identical to the centralised mechanism),
* message counts (4 per machine, any tree) and hop latency (tree depth),
* the cost of privacy (k secret shares per contribution).
"""

from __future__ import annotations

import numpy as np

from repro.distributed import (
    DistributedVerificationMechanism,
    star_overlay,
    tree_overlay,
)
from repro.experiments import render_table, table1_configuration
from repro.experiments.table2 import build_bid_and_execution_vectors, scenario_by_name
from repro.mechanism import VerificationMechanism


def _low2_inputs():
    config = table1_configuration()
    bids, executions = build_bid_and_execution_vectors(
        config.cluster.true_values, scenario_by_name("Low2")
    )
    return config, bids, executions


def test_distributed_matches_centralised(benchmark, record_result):
    config, bids, executions = _low2_inputs()
    central = VerificationMechanism().run(bids, config.arrival_rate, executions)

    mechanism = DistributedVerificationMechanism(tree_overlay(16))
    result = benchmark(mechanism.run, bids, config.arrival_rate, executions)

    np.testing.assert_allclose(
        result.outcome.payments.payment, central.payments.payment, rtol=1e-10
    )

    rows = []
    for label, overlay in (
        ("star (centralised shape)", star_overlay(16)),
        ("binary tree", tree_overlay(16, arity=2)),
        ("chain", tree_overlay(16, arity=1)),
    ):
        run = DistributedVerificationMechanism(overlay).run(
            bids, config.arrival_rate, executions
        )
        max_err = float(
            np.abs(run.outcome.payments.payment - central.payments.payment).max()
        )
        rows.append(
            [label, run.total_messages, run.rounds_of_latency, f"{max_err:.1e}"]
        )
    record_result(
        "ablation_distributed",
        render_table(
            ["overlay", "messages", "hop latency", "max payment error"],
            rows,
            title="A8a. Distributed payments: shape trade-offs (n = 16, Low2).",
        ),
    )


def test_privacy_layer_cost(benchmark, record_result):
    config, bids, executions = _low2_inputs()
    central = VerificationMechanism().run(bids, config.arrival_rate, executions)

    def run_private(k: int):
        return DistributedVerificationMechanism(
            tree_overlay(16), n_aggregators=k, rng=np.random.default_rng(11)
        ).run(bids, config.arrival_rate, executions)

    result = benchmark(run_private, 3)
    np.testing.assert_allclose(
        result.outcome.payments.payment, central.payments.payment, atol=1e-5
    )

    rows = []
    for k in (0, 2, 3, 5):
        if k == 0:
            run = DistributedVerificationMechanism(tree_overlay(16)).run(
                bids, config.arrival_rate, executions
            )
        else:
            run = run_private(k)
        max_err = float(
            np.abs(run.outcome.payments.payment - central.payments.payment).max()
        )
        rows.append([k, run.privacy_shares_sent, f"{max_err:.1e}"])
    record_result(
        "ablation_privacy",
        render_table(
            ["aggregators k", "shares sent", "max payment error"],
            rows,
            title="A8b. Privacy layer: shares vs masking noise (n = 16).",
        ),
    )
