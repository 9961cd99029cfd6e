"""Ablation A26 — the fused campaign backend gate.

PR 9 taught the campaign engine to evaluate whole cohorts of
homogeneous closed-form units as single stacked broadcasts
(``repro.parallel.fusion``) instead of one ``execute_unit`` call — and
one worker-pool pickle — per unit.  This bench holds the three
promises that backend makes:

* **bit-parity before timing** — for every campaign measured here, the
  fused payloads are compared ``repr``-for-``repr`` against the
  per-unit path's *first*, and the timing arms only run once the
  comparison is clean (a fast wrong backend is worthless);
* **unchanged cache keys** — a cache warmed entirely by the fused
  backend serves a per-unit run at a 100% hit rate with zero chunks
  dispatched, so ``--resume`` and warm-cache behaviour cannot tell the
  backends apart;
* **speed** — on the cold-cache tournament and figures campaigns at
  4 workers, the fused engine beats the per-unit engine by >= 10x
  wall-clock (the per-unit arm pays Python per unit plus the pool's
  fork/pickle tax; the fused arm replaces both with one broadcast).

A third, larger campaign — a 512-unit manipulation grid over all four
closed-form variants — is measured *serially* as an ungated honesty
row: with the pool out of the picture the broadcast still wins by ~3x,
and the residual fused cost is dominated by per-unit cache-key hashing
(SHA-256 over the canonical config), which both arms pay identically.
That hashing is the engine's next bottleneck, not this backend's.

Runs two ways:

* under pytest with the other benches
  (``pytest benchmarks/bench_campaign_fusion.py --benchmark-only``);
* standalone (``PYTHONPATH=src python benchmarks/bench_campaign_fusion.py
  [--smoke] [--json]``), exiting non-zero on any failed assertion and
  refreshing ``results/ablation_campaign_fusion.txt`` and
  ``results/BENCH_campaign_fusion.json`` (the committed artifact
  ``tests/parallel/test_fusion.py`` pins).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from timing import best_seconds

SPEEDUP_TARGET = 10.0      # fused vs per-unit, tournament + figures campaigns
GATED_CAMPAIGNS = ("tournament", "figures")
WORKERS = 4                # the per-unit arm's pool size on gated campaigns
RESULTS_DIR = Path(__file__).resolve().parent / "results"

GRID_VARIANTS = ("observed", "declared", "vcg", "archer-tardos")


def _grid_units(n_factors: int = 8) -> list:
    """A large homogeneous sweep: variants x bid factors x manipulators."""
    import numpy as np

    from repro.experiments import table1_configuration
    from repro.parallel import ExperimentUnit

    config = table1_configuration()
    true_values = tuple(config.cluster.true_values.tolist())
    factors = np.geomspace(0.25, 4.0, n_factors)
    return [
        ExperimentUnit(
            kind="scenario",
            scenario=f"grid-{variant}-f{i}-m{m}",
            bid_factor=float(factor),
            execution_factor=1.5,
            true_values=true_values,
            arrival_rate=config.arrival_rate,
            variant=variant,
            manipulator=m,
        )
        for variant in GRID_VARIANTS
        for i, factor in enumerate(factors)
        for m in range(len(true_values))
    ]


def _campaigns(*, smoke: bool = False) -> dict[str, list]:
    from repro.experiments.tournament import tournament_units
    from repro.parallel import figures_campaign_units

    return {
        "tournament": tournament_units(),
        "figures": figures_campaign_units(),
        "grid": _grid_units(4 if smoke else 8),
    }


def _engine(fuse: str, workers: int):
    from repro.parallel import CampaignEngine

    return CampaignEngine(workers=workers, cache=None, fuse=fuse)


def verify_parity(units: list) -> dict:
    """Payload-level equality of the two backends, checked before timing.

    Exact to the ``repr`` level — the JSON round-trip the cache does —
    and through a shared cache: a per-unit run over a cache the fused
    backend warmed must be all hits with nothing dispatched.
    """
    from repro.parallel import CampaignEngine

    per_unit = _engine("off", workers=0).run(units)
    fused = _engine("on", workers=0).run(units)
    payload_mismatches = sum(
        repr(a) != repr(b) for a, b in zip(per_unit.payloads, fused.payloads)
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        cold = CampaignEngine(workers=0, cache=cache_dir, fuse="on").run(units)
        warm = CampaignEngine(workers=0, cache=cache_dir, fuse="off").run(units)
    return {
        "units": len(units),
        "payload_mismatches": payload_mismatches,
        "keys_identical": per_unit.keys == fused.keys,
        "fused_units": cold.stats.fused_units,
        "warm_hit_rate": warm.stats.hit_rate,
        "warm_chunks": warm.stats.chunks,
    }


def measure_campaign(
    name: str, units: list, *, workers: int, repeats: int
) -> dict:
    """Parity first, then both cold-cache arms, best-of-``repeats``."""
    parity = verify_parity(units)
    entry = {"campaign": name, "workers": workers, **parity}
    if parity["payload_mismatches"] or not parity["keys_identical"]:
        # A wrong backend gets no timing row to hide behind.
        entry.update(per_unit_seconds=float("nan"),
                     fused_seconds=float("nan"), speedup=0.0)
        return entry

    per_unit_engine = _engine("off", workers)
    fused_engine = _engine("auto", workers)
    entry["per_unit_seconds"] = best_seconds(
        lambda: per_unit_engine.run(units), repeats
    )
    entry["fused_seconds"] = best_seconds(
        lambda: fused_engine.run(units), repeats
    )
    entry["speedup"] = entry["per_unit_seconds"] / entry["fused_seconds"]
    return entry


def measure_all(*, repeats: int = 3, smoke: bool = False) -> dict:
    campaigns = _campaigns(smoke=smoke)
    entries = [
        measure_campaign(
            name,
            units,
            # The grid row is the serial throughput story; the gated
            # campaigns run against the pool-backed per-unit arm.
            workers=0 if name == "grid" else WORKERS,
            repeats=repeats,
        )
        for name, units in campaigns.items()
    ]
    return {
        "campaigns": entries,
        "speedup_target": SPEEDUP_TARGET,
        "gated_campaigns": list(GATED_CAMPAIGNS),
        "smoke": smoke,
    }


def check_summary(summary: dict) -> list[str]:
    """The bench's assertions; empty list = all good."""
    failures = []
    for entry in summary["campaigns"]:
        name = entry["campaign"]
        if entry["payload_mismatches"]:
            failures.append(
                f"{name}: {entry['payload_mismatches']} fused payloads "
                f"differ from the per-unit path"
            )
        if not entry["keys_identical"]:
            failures.append(f"{name}: fused run changed the cache keys")
        if entry["fused_units"] != entry["units"]:
            failures.append(
                f"{name}: only {entry['fused_units']}/{entry['units']} "
                f"units took the fused path"
            )
        if entry["warm_hit_rate"] != 1.0 or entry["warm_chunks"] != 0:
            failures.append(
                f"{name}: per-unit warm run over a fused-warmed cache hit "
                f"{entry['warm_hit_rate']:.0%} with {entry['warm_chunks']} "
                f"chunks dispatched (want 100%, 0)"
            )
        if (
            name in summary["gated_campaigns"]
            and entry["speedup"] < summary["speedup_target"]
        ):
            failures.append(
                f"{name}: fused speedup {entry['speedup']:.1f}x at "
                f"{entry['workers']} workers is below "
                f"{summary['speedup_target']:g}x"
            )
    return failures


def _render(summary: dict) -> str:
    from repro.experiments import render_table

    rows = [
        [
            entry["campaign"],
            entry["units"],
            entry["workers"],
            "identical" if entry["payload_mismatches"] == 0
            and entry["keys_identical"] else "DIFFER",
            f"{entry['warm_hit_rate']:.0%} / {entry['warm_chunks']}",
            f"{entry['per_unit_seconds'] * 1e3:.1f} ms",
            f"{entry['fused_seconds'] * 1e3:.1f} ms",
            f"{entry['speedup']:.1f} x",
        ]
        for entry in summary["campaigns"]
    ]
    return render_table(
        ["campaign", "units", "workers", "payloads", "warm hits/chunks",
         "per-unit t", "fused t", "speedup"],
        rows,
        title=f"A26. Fused cohort backend vs per-unit engine, cold cache "
        f"(gate {summary['speedup_target']:g}x on "
        f"{' + '.join(summary['gated_campaigns'])}).",
    )


def _write_artifacts(summary: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_campaign_fusion.txt").write_text(
        _render(summary) + "\n"
    )
    (RESULTS_DIR / "BENCH_campaign_fusion.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


# --------------------------------------------------------------- pytest


def test_fused_backend_parity_and_speedup(record_result, record_json):
    summary = measure_all()
    failures = check_summary(summary)
    assert not failures, "; ".join(failures)
    record_result("ablation_campaign_fusion", _render(summary))
    record_json("BENCH_campaign_fusion", summary)


# ------------------------------------------------------------ standalone


def main(argv: list[str] | None = None) -> int:
    """CI entry point: run the bench; fail on any broken assertion."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast run sized for CI (2 timing repeats, smaller grid)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    parser.add_argument(
        "--no-artifacts", action="store_true",
        help="skip refreshing benchmarks/results/",
    )
    args = parser.parse_args(argv)

    summary = measure_all(repeats=2 if args.smoke else 3, smoke=args.smoke)

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
