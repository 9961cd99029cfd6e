"""Golden strategic-layer decisions: every search and game the layer runs.

``tests/golden/strategic/decisions.txt`` holds one line per case, the
``repr`` of its result with arrays written as lists, so every float is
compared bit for bit.  The cases cover:

* :func:`~repro.agents.best_response` on the four payment rules of
  ``pricing.RULES`` and on two subclasses (which take the brute-force
  ``Mechanism.run`` path), for three agents, refinement on and off, the
  others truthful or at given bids, and execution caps 1 and 4;
* :class:`~repro.agents.BestResponseDynamics` (``run`` with honest and
  strategic execution, ``run_path``, and ``run`` over a subclass);
* :func:`~repro.agents.simulate_learning` on a rule and on a subclass;
* :func:`~repro.dynamic.drift.drift_sweep`;
* :func:`~repro.mechanism.truthfulness_audit` and
  :func:`~repro.analysis.landscape.utility_landscape`, each on a rule
  and on a subclass.

A change that is meant to keep the strategic layer's answers must leave
the file as it is; one that changes an answer on purpose regenerates it
with ``PYTHONPATH=src python -m tests.golden.test_strategic_decisions``
and says why.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.agents import BestResponseDynamics, best_response, simulate_learning
from repro.analysis.landscape import utility_landscape
from repro.dynamic.drift import drift_sweep
from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
    truthfulness_audit,
)

GOLDEN = Path(__file__).parent / "strategic" / "decisions.txt"

TRUE_VALUES = np.array([1.0, 2.0, 5.0])
OTHER_BIDS = np.array([1.3, 1.7, 4.0])
RATE = 4.0


class _Verification(VerificationMechanism):
    """The same rule under a type without a closed-form kernel."""


class _VCG(VCGMechanism):
    """The same rule under a type without a closed-form kernel."""


MECHANISMS = (
    ("observed", VerificationMechanism("observed")),
    ("declared", VerificationMechanism("declared")),
    ("vcg", VCGMechanism()),
    ("archer_tardos", ArcherTardosMechanism()),
    ("subclass-declared", _Verification("declared")),
    ("subclass-vcg", _VCG()),
)


def _plain(value):
    """``value`` with dataclasses as dicts and arrays as lists."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tolist())
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    return value


def _cases():
    for name, mechanism in MECHANISMS:
        for agent in range(TRUE_VALUES.size):
            for refine in (False, True):
                for others in (None, OTHER_BIDS):
                    for cap in (1.0, 4.0):
                        label = (
                            f"best_response {name} agent={agent} refine={refine} "
                            f"others={'given' if others is not None else 'truthful'} "
                            f"cap={cap:g}"
                        )
                        yield label, lambda m=mechanism, a=agent, r=refine, o=others, c=cap: (
                            best_response(
                                m, TRUE_VALUES, RATE, a,
                                other_bids=o, execution_cap_factor=c, refine=r,
                            )
                        )
    declared = VerificationMechanism("declared")
    start = TRUE_VALUES * np.array([1.2, 0.9, 1.1])
    yield "dynamics.run declared honest", lambda: BestResponseDynamics(
        declared, TRUE_VALUES, RATE
    ).run(start, max_rounds=4)
    yield "dynamics.run declared strategic", lambda: BestResponseDynamics(
        declared, TRUE_VALUES, RATE, honest_execution=False
    ).run(start, max_rounds=2)
    yield "dynamics.run_path declared", lambda: BestResponseDynamics(
        declared, TRUE_VALUES, RATE
    ).run_path(np.array([3.0, 4.0, 5.0]), start)
    yield "dynamics.run subclass-declared honest", lambda: BestResponseDynamics(
        _Verification("declared"), TRUE_VALUES, RATE
    ).run(start, max_rounds=2)
    yield "simulate_learning observed", lambda: simulate_learning(
        VerificationMechanism(), TRUE_VALUES, RATE,
        np.random.default_rng(0), rounds=12,
    )
    yield "simulate_learning subclass-declared", lambda: simulate_learning(
        _Verification("declared"), TRUE_VALUES, RATE,
        np.random.default_rng(1), rounds=6,
    )
    yield "drift_sweep observed", lambda: drift_sweep(
        TRUE_VALUES, RATE, rounds=8, sigma=0.1, seed=3, scan_points=9,
    )
    yield "truthfulness_audit declared", lambda: truthfulness_audit(
        declared, TRUE_VALUES, RATE
    )
    yield "truthfulness_audit subclass-declared", lambda: truthfulness_audit(
        _Verification("declared"), TRUE_VALUES, RATE
    )
    factors = dict(
        bid_factors=np.geomspace(0.5, 2.0, 5), exec_factors=np.array([1.0, 1.5])
    )
    yield "utility_landscape observed", lambda: utility_landscape(
        VerificationMechanism(), TRUE_VALUES, RATE, 1, **factors
    )
    yield "utility_landscape subclass-vcg", lambda: utility_landscape(
        _VCG(), TRUE_VALUES, RATE, 2, **factors
    )


def decisions() -> str:
    """Every case's result, one ``label: repr`` line each."""
    return "".join(f"{label}: {_plain(run())!r}\n" for label, run in _cases())


def test_decisions_match_golden():
    assert decisions() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(decisions(), encoding="utf-8")
