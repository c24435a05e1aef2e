"""The chain check against the block-by-block walk it replaced, and what the
chain keeps per transaction."""

import dataclasses
import tracemalloc
from itertools import accumulate, chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_reference import reference_first_duplicate, reference_validate_chain
from distb import blockchain as bc
from distb.config import ConsensusConfig, ScenarioConfig
from distb.simulator import run_raw


def seal_chain(blocks, pos=False):
    """A chain of a genesis block and one block per list of `blocks`, sealed at difficulty 0 or by stake."""
    ledger = bc.Ledger()
    for i, txs in enumerate([[], *blocks]):
        seal = bc.seal_block_pos(txs, ledger.tip_hash, "v", i, i) if pos else bc.mine_block(txs, ledger.tip_hash, 0, i, i)
        bc.append_block(ledger, seal)
    return ledger


def tamper(ledger, index, what):
    """Break block `index` after sealing: its seal (the nonce moves, the hash stays), or its first tx's payload."""
    block = ledger.blocks[index]
    if what == "seal" or not block.tx_list:
        ledger.blocks[index] = dataclasses.replace(block, nonce=block.nonce + 1)
    else:
        first, *rest = block.tx_list
        ledger.blocks[index] = dataclasses.replace(block, tx_list=[first._replace(payload=first.payload + b"!"), *rest])


def lenient(forged):
    """`check_tx` that passes the forged ids, so they reach the duplicate check."""
    real = bc.check_tx
    return mock.patch.object(bc, "check_tx", lambda tx: None if tx.tx_id in forged else real(tx))


@st.composite
def chains(draw):
    """A small chain whose rows are fresh transactions, repeats of earlier
    rows (in the same block or a later one) and forgeries that share an
    earlier id's first 8 bytes; then at most one block broken after sealing."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    rows, forged = [], set()
    for k in range(sum(sizes)):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "prefix"])) if rows else "fresh"
        if kind == "fresh":
            [tx] = bc.make_transactions([(f"s-{k}", b"r%d" % k, k)], "bs")
        else:
            tx = rows[draw(st.integers(0, len(rows) - 1))]
            if kind == "prefix":
                tx = tx._replace(tx_id=tx.tx_id[:8] + draw(st.binary(min_size=24, max_size=24)))
                forged.add(tx.tx_id)
        rows.append(tx)
    at = list(accumulate(sizes, initial=0))
    ledger = seal_chain([rows[a:b] for a, b in zip(at, at[1:])], pos=draw(st.booleans()))
    broken = draw(st.none() | st.tuples(st.integers(0, len(ledger.blocks) - 1), st.sampled_from(["seal", "tx"])))
    if broken:
        tamper(ledger, *broken)
    return ledger, forged


@settings(max_examples=300, deadline=None)
@given(drawn=chains())
def test_validate_chain_agrees_with_the_block_by_block_walk(drawn):
    ledger, forged = drawn
    with lenient(forged):
        assert bc.validate_chain(ledger) == reference_validate_chain(ledger)


# 32-byte ids over two 8-byte keys and three tails: repeats, and ids that share only their key, are common
_id = st.one_of(
    st.builds(bytes.__add__, st.sampled_from([bytes(8), b"\x01" * 8]), st.sampled_from([bytes(24), b"\x02" * 24, b"\x03" * 24])),
    st.binary(min_size=32, max_size=32),
)


@settings(max_examples=300, deadline=None)
@given(blocks=st.lists(st.lists(_id, max_size=3), max_size=5))
def test_first_duplicate_agrees_with_a_set_of_full_ids(blocks):
    ids, ends = b"".join(chain.from_iterable(blocks)), list(accumulate(map(len, blocks)))
    assert bc.first_duplicate(ids, ends) == reference_first_duplicate(ids, ends)


A, B, C = bc.make_transactions([(f"s-{k}", b"r%d" % k, k) for k in range(3)], "bs")
A2 = A._replace(tx_id=A.tx_id[:8] + bytes(24))  # shares A's first 8 bytes only


@pytest.mark.parametrize(
    "blocks, broken, expected",
    [
        ([[A], [B, B]], None, (False, 2)),  # a duplicate in the same block
        ([[A, B], [C], [A]], None, (False, 3)),  # a duplicate in a later block: the later copy's block
        ([[A], [A2]], None, (True, None)),  # ids that share their first 8 bytes
        ([[A], [B], [A], [C]], (4, "seal"), (False, 3)),  # a duplicate before a tampered seal
        ([[A], [B], [C], [A]], (2, "tx"), (False, 2)),  # a duplicate after a tampered tx
        ([[A], [B], [C], [A]], (3, "seal"), (False, 3)),
    ],
    ids=["same-block", "later-block", "shared-prefix", "before-bad-seal", "after-bad-tx", "after-bad-seal"],
)
def test_each_duplicate_is_refused_at_the_block_of_its_later_copy(blocks, broken, expected):
    ledger = seal_chain(blocks)
    if broken:
        tamper(ledger, *broken)
    with lenient({A2.tx_id}):
        assert bc.validate_chain(ledger) == reference_validate_chain(ledger) == expected


def test_the_chain_keeps_under_180_bytes_a_tx_at_any_run_size(monkeypatch):
    """What the chain retains after `run_raw`, per committed tx, on PoS runs of
    20 and 100 nodes over 20 s: each 180 B or less, and the two within 10% of
    each other. The duplicate check that `run_raw` runs peaks at 40 B a tx."""
    real, checks = bc.first_duplicate, []

    def traced(ids, ends):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        found = real(ids, ends)
        checks.append((tracemalloc.get_traced_memory()[1] - held) / (len(ids) // 32))
        return found

    monkeypatch.setattr(bc, "first_duplicate", traced)
    per_tx = []
    for nodes in (20, 100):
        cfg = ScenarioConfig(
            node_count=nodes, sim_time_ms=20_000, consensus=ConsensusConfig(kind="pos", stakes=(("a", 3.0), ("b", 1.0)))
        )
        tracemalloc.start()
        try:
            raw = run_raw(cfg)
            ledger, committed = raw.ledger, raw.counters["committed_txs"]
            del raw
            with_chain = tracemalloc.get_traced_memory()[0]
            del ledger
            per_tx.append((with_chain - tracemalloc.get_traced_memory()[0]) / committed)
        finally:
            tracemalloc.stop()
    assert all(b <= 180 for b in per_tx) and max(per_tx) <= 1.1 * min(per_tx), per_tx
    assert len(checks) == 2 and all(b <= 40 for b in checks), checks
