"""Golden CLI outputs: the CI determinism commands, byte for byte.

Each file under ``tests/golden/cli/`` is the committed output of one
``python -m repro`` command that CI also reruns under two hash seeds.
A change that is meant to keep every output bit-identical must leave
these files as they are; one that changes an output on purpose
regenerates the file with the command listed here and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "cli"

COMMANDS = {
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


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_output_matches_golden(capsys, golden):
    assert main(COMMANDS[golden].split()) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
