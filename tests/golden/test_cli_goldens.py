"""Golden CLI outputs: every subcommand, the reproduce bundle and the parser.

Each file under ``tests/golden/cli/`` is the committed output of one
``python -m repro`` command:

* ``COMMANDS`` are compared byte for byte; CI reruns each of them under
  two hash seeds and ``cmp``s the outputs;
* ``UNTIMED`` outputs carry wall-clock fields (and, for the campaign,
  cache keys derived from the package version), which are removed
  before the comparison;
* ``reproduce/`` holds the tables, figures and claim report that
  ``repro reproduce`` writes;
* ``parser.json`` lists each subcommand's options with their action,
  type, default and choices.

A change that is meant to keep every output bit-identical must leave
these files as they are; one that changes an output on purpose
regenerates them with ``PYTHONPATH=src python -m tests.golden.test_cli_goldens``
and says why.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).parent / "cli"

COMMANDS = {
    "table1.txt": "table1",
    "table2.txt": "table2",
    **{f"figure{n}.txt": f"figure {n}" for n in range(1, 7)},
    "audit.txt": "audit --machines 4",
    "audit_declared.txt": "audit --variant declared --machines 4",
    "protocol.txt": "protocol --duration 50",
    "multi_liar.txt": "multi-liar --max-liars 3",
    "poa.txt": "poa",
    "remediate.txt": "remediate",
    "remediate.json": "remediate --json",
    "verify.txt": "verify",
    "landscape.txt": "landscape",
    "horizon.txt": "horizon --rounds 10 --machines 4",
    "serve.txt": "serve --machines 12 --shards 3 --rounds 3 --seed 5",
    "tournament.txt": "tournament --no-dynamics",
    "tournament.json": "tournament --no-dynamics --json",
    "tournament_dynamics.txt": "tournament",
    "tournament_dynamics.json": "tournament --json",
    "resilience.txt": "resilience --rounds 50 --machines 8 --seed 0",
    "serve_exact.json": "serve --machines 12 --shards 3 --rounds 3 --seed 5 --json",
    "serve_scalar_local.json": (
        "serve --machines 12 --shards 3 --rounds 3 --seed 5"
        " --aggregation scalar --workload local --json"
    ),
    "serve_process.json": (
        "serve --machines 12 --shards 3 --rounds 3 --seed 5 --executor process --json"
    ),
    "horizon_chaos.json": "horizon --rounds 40 --machines 8 --chaos --json",
    "horizon_sinusoidal.json": (
        "horizon --rounds 40 --machines 8 --schedule sinusoidal --json"
    ),
}

UNTIMED = {
    "metrics.json": "metrics --rounds 2 --machines 4 --seed 1 --json",
    "campaign.txt": "campaign --no-cache",
    "campaign.json": "campaign --no-cache --json",
    "campaign_dynamics.json": "campaign --no-cache --variant dynamics --json",
    "campaign_drift.json": "campaign --no-cache --variant drift --json",
}

BUNDLE = (
    "tables/table1.txt",
    "tables/table2.txt",
    *(f"figures/figure{n}.txt" for n in range(1, 7)),
    "report.txt",
)

_TIMED_ROWS = re.compile(r"^ *(wall-clock|compute time|unit latency) .*\n", re.M)


def untimed(golden: str, out: str) -> str:
    """``out`` without its wall-clock fields (and campaign cache keys)."""
    if golden.endswith(".txt"):
        return _TIMED_ROWS.sub("", out)
    payload = json.loads(out)
    for key in ("wall_seconds", "computed_seconds", "keys"):
        payload.pop(key, None)
    for name, stats in payload.get("spans", {}).items():
        payload["spans"][name] = {"count": stats["count"]}
    for histogram in payload.get("histograms", ()):
        if histogram["name"].endswith(".seconds"):
            for key in ("max", "mean", "min", "p50", "p95", "p99", "total"):
                del histogram[key]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parser_table() -> str:
    """Each subcommand's options as JSON: action, type, default, choices."""
    (subparsers,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    table = {
        name: [
            {
                "options": action.option_strings or [action.dest],
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, sub in subparsers.choices.items()
    }
    return json.dumps(table, indent=2) + "\n"


def run(capsys, command: str) -> str:
    assert main(command.split()) == 0
    return capsys.readouterr().out


def read(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_has_a_command():
    files = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()}
    assert files == {
        *COMMANDS, *UNTIMED, *(f"reproduce/{name}" for name in BUNDLE), "parser.json"
    }


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_matches_golden(capsys, golden):
    assert run(capsys, COMMANDS[golden]) == read(golden)


@pytest.mark.parametrize("golden", sorted(UNTIMED))
def test_untimed_output_matches_golden(capsys, golden):
    assert untimed(golden, run(capsys, UNTIMED[golden])) == read(golden)


def test_reproduce_bundle_matches_golden(capsys, tmp_path):
    run(capsys, f"reproduce --output {tmp_path}")
    for name in BUNDLE:
        assert (tmp_path / name).read_text(encoding="utf-8") == read(
            f"reproduce/{name}"
        ), name


def test_parser_matches_golden():
    assert parser_table() == read("parser.json")


def _regenerate() -> None:
    """Rewrite every golden file from the current code."""
    import contextlib
    import io
    import tempfile

    def capture(command: str) -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(command.split()) == 0
        return buffer.getvalue()

    outputs = {name: capture(command) for name, command in COMMANDS.items()}
    outputs.update(
        {name: untimed(name, capture(command)) for name, command in UNTIMED.items()}
    )
    with tempfile.TemporaryDirectory() as bundle:
        capture(f"reproduce --output {bundle}")
        for name in BUNDLE:
            outputs[f"reproduce/{name}"] = (Path(bundle) / name).read_text()
    outputs["parser.json"] = parser_table()
    for name, text in outputs.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
