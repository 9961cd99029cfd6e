"""Property: a checkpoint's serialised form round-trips bit for bit.

``CoordinatorCheckpoint.to_json`` writes the per-machine sections as
little-endian value columns, with a key list only where a section is
not keyed by ``machine_names`` in order.  For any drawn checkpoint —
names that need JSON escaping or are non-ASCII, sections in and out of
``machine_names`` order or keyed outside it, empty sections, ``loads``
as ``None`` or ``[]``, NaN with a sign or payload, ±0.0, ±inf,
subnormals and job counts up to 2⁵³ — ``from_json(to_json(c))`` equals
``c`` with every float compared by its bytes and every section by its
key order, and ``to_json`` is deterministic.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import CheckpointStore, CoordinatorCheckpoint

NAME = st.text(max_size=6) | st.sampled_from(['C"1', "C\\2", "C\n3", "Cé4", "机器"])

# Every bit pattern is a double: this covers NaNs of either sign with
# any payload, ±0.0, ±inf and subnormals, next to ordinary draws.
FLOAT = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def section_keys(draw, names: list[str]) -> list[str]:
    """Keys in ``names`` order, shuffled, or drawn in and out of it."""
    how = draw(st.sampled_from(["in order", "shuffled", "drawn"]))
    if how == "in order":
        return list(names)
    if how == "shuffled":
        return draw(st.permutations(names))
    pool = st.sampled_from(names) | NAME if names else NAME
    return draw(st.lists(pool, unique=True, max_size=6))


@st.composite
def checkpoints(draw) -> CoordinatorCheckpoint:
    names = draw(st.lists(NAME, unique=True, max_size=6))

    def keyed(value):
        keys = draw(section_keys(names))
        return {key: draw(value) for key in keys}

    return CoordinatorCheckpoint(
        phase=draw(st.sampled_from(["idle", "bidding", "executing", "verifying", "done"])),
        machine_names=names,
        # Plain JSON, like the phase and the name lists.
        arrival_rate=draw(st.floats(allow_nan=False)),
        bids=keyed(FLOAT),
        loads=draw(st.none() | st.lists(FLOAT, max_size=6)),
        reports=keyed(st.tuples(st.integers(0, 2**53), FLOAT)),
        excluded=draw(st.lists(NAME, max_size=3)),
        withheld=draw(st.lists(NAME, max_size=3)),
        payments_sent=keyed(st.tuples(FLOAT, FLOAT, FLOAT)),
    )


def as_bytes(c: CoordinatorCheckpoint) -> tuple:
    """``c`` with every float replaced by its bytes, sections as item lists."""
    return (
        c.phase,
        c.machine_names,
        bits(c.arrival_rate),
        [(name, bits(bid)) for name, bid in c.bids.items()],
        None if c.loads is None else [bits(x) for x in c.loads],
        [
            (name, type(jobs), jobs, bits(sojourn))
            for name, (jobs, sojourn) in c.reports.items()
        ],
        c.excluded,
        c.withheld,
        [
            (name, [bits(x) for x in amounts])
            for name, amounts in c.payments_sent.items()
        ],
    )


@settings(max_examples=300, deadline=None)
@given(checkpoints())
def test_from_json_inverts_to_json_bit_for_bit(checkpoint):
    payload = checkpoint.to_json()
    assert checkpoint.to_json() == payload
    restored = CoordinatorCheckpoint.from_json(payload)
    assert as_bytes(restored) == as_bytes(checkpoint)
    assert restored.to_json() == payload


@settings(max_examples=100, deadline=None)
@given(checkpoints())
def test_store_loads_what_was_saved(checkpoint):
    for saved in (checkpoint, checkpoint.to_json()):
        store = CheckpointStore()
        store.save(saved)
        assert as_bytes(store.load()) == as_bytes(checkpoint)
