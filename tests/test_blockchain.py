import dataclasses
import hashlib
import json
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_reference import block_header_bytes, leading_zero_bits, load_ledger
from distb import blockchain as bc
from distb.calibration import load_default
from distb.cli import EXIT_OK, main
from distb.config import ScenarioConfig
from distb.errors import EmptyBlockError, ForkRejectedError, SealInvalidError
from distb.simulator import run_raw


def make_tx(i=0, payload=b"reading", now=100):
    return bc.TxColumns("bs").append([(f"s-{i:02d}", payload, now)])[0]



def fresh_chain(n_blocks=5, difficulty=8):
    ledger = bc.Ledger()
    bc.append_block(ledger, bc.mine_block([], bc.ZERO_HASH, difficulty, 0, 0))
    k = 0
    for i in range(1, n_blocks):
        txs = [make_tx(k + j, payload=f"r{k + j}".encode(), now=i * 10) for j in range(3)]
        k += 3
        bc.append_block(ledger, bc.mine_block(txs, ledger.tip_hash, difficulty, i * 1000, i))
    return ledger


def id_column(blocks):
    """The blocks' tx ids joined and each block's end row: what `first_duplicate` reads."""
    return b"".join(b.tx_list.id_run() for b in blocks), list(accumulate(len(b.tx_list) for b in blocks))


# --- transactions -----------------------------------------------------------


def test_tx_id_deterministic():
    a, b = bc.TxColumns("bs").append([("s-01", b"abc", 100), ("s-01", b"abc", 100)])
    assert a.tx_id == b.tx_id
    assert a.checksum == b.checksum


def test_tx_payload_byte_changes_ids():
    a, b = bc.TxColumns("bs").append([("s-01", b"abc", 100), ("s-01", b"abd", 100)])
    assert a.tx_id != b.tx_id
    assert a.checksum != b.checksum


def test_tx_requires_non_empty_fields():
    with pytest.raises(ValueError):
        bc.TxColumns("bs").append([("", b"x", 1)])
    with pytest.raises(ValueError):
        bc.TxColumns("").append([("s-1", b"x", 1)])


def test_tx_fixture_matches_independent_sha256():
    payload = bytes.fromhex("DEADBEEF")
    tx = make_tx(1, payload)

    def u64(x):
        return x.to_bytes(8, "big")

    def ser(b):
        return u64(len(b)) + b

    checksum = hashlib.sha256(payload).digest()
    body = ser(b"s-01") + ser(b"bs") + u64(100) + ser(payload) + checksum
    assert tx.checksum == checksum
    assert tx.tx_id == hashlib.sha256(body).digest()


def test_cached_body_prefix_matches_uncached_concatenation():
    def ser(b):
        return len(b).to_bytes(8, "big") + b

    checksum = hashlib.sha256(b"pq").digest()
    bc.tx_body_bytes("s-é7", "bs", 5, b"p", checksum)  # caches the (sensor, destination) prefix
    body = bc.tx_body_bytes("s-é7", "bs", 6, b"pq", checksum)
    assert body == ser("s-é7".encode()) + ser(b"bs") + (6).to_bytes(8, "big") + ser(b"pq") + checksum


def independent_tx_id(sensor_id, destination, timestamp, payload):
    def ser(b):
        return len(b).to_bytes(8, "big") + b

    checksum = hashlib.sha256(payload).digest()
    body = ser(sensor_id.encode()) + ser(destination.encode()) + timestamp.to_bytes(8, "big") + ser(payload) + checksum
    return hashlib.sha256(body).digest()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["s-1", "s-2", "s-é7", "x"]), st.binary(max_size=40), st.integers(0, 2**64 - 1)),
        max_size=12,
    ),
    destination=st.sampled_from(["bs", "gw-ü"]),
)
def test_make_transactions_matches_independent_bytes_row_for_row(rows, destination):
    txs = bc.TxColumns(destination).append(rows)
    assert len(txs) == len(rows)
    for tx, (sensor_id, payload, timestamp) in zip(txs, rows):
        assert type(tx) is bc.Transaction
        assert tx == (tx.tx_id, sensor_id, destination, timestamp, payload, hashlib.sha256(payload).digest())
        assert tx.tx_id == independent_tx_id(sensor_id, destination, timestamp, payload)
        assert bc.check_tx(tx) is None


@pytest.mark.parametrize(
    "sensor_id, destination, timestamp, error",
    [("", "bs", 1, ValueError), ("s-1", "", 1, ValueError), ("s-1", "bs", -1, ValueError),
     ("s-1", "bs", 2**64, OverflowError)],
)
def test_make_transactions_refuses_what_make_transaction_refuses(sensor_id, destination, timestamp, error):
    with pytest.raises(error):
        bc.TxColumns(destination).append([(sensor_id, b"x", timestamp)])
    with pytest.raises(error):  # also behind a good row
        bc.TxColumns(destination or "").append([("s-0", b"ok", 5), (sensor_id, b"x", timestamp)])


def test_transaction_is_an_immutable_hashable_named_tuple():
    tx = make_tx(3)
    with pytest.raises(AttributeError):
        tx.payload = b"forged"
    assert bc.Transaction(**tx._asdict()) == tx and hash(bc.Transaction(*tx)) == hash(tx)
    assert bc.Transaction._fields == ("tx_id", "sensor_id", "destination", "timestamp", "payload", "checksum")
    assert len({tx, make_tx(3), make_tx(4)}) == 2


def test_u64_outside_range_raises_overflow_error():
    # the type int.to_bytes raises, which check_block and the CLI catch
    with pytest.raises(OverflowError):
        bc.TxColumns("bs").append([("s-01", b"x", 2**64)])
    for timestamp in (2**64, -1):
        with pytest.raises(OverflowError):
            bc.tx_body_bytes("s-01", "bs", timestamp, b"x", bytes(32))


def test_u64_refuses_a_float_instead_of_truncating_it():
    # a block hashed over timestamp 1 but storing 1.5 would pass append_block and fail only at export
    txs = [make_tx(1)]
    for seal in (
        lambda: bc.mine_block(txs, bc.ZERO_HASH, 0, 1.5, 1),
        lambda: bc.seal_block_pos(txs, bc.ZERO_HASH, "v", 1.5, 1),
        lambda: bc.TxColumns("bs").append([("s-01", b"x", 1.5)]),
    ):
        with pytest.raises(TypeError):
            seal()


def test_check_block_reports_nonce_outside_u64_range():
    # and the other headers that cannot be serialized: an unknown sealer kind, a negative difficulty
    block = fresh_chain(2, difficulty=0).blocks[1]
    for malformed in (
        dataclasses.replace(block, nonce=2**64),
        dataclasses.replace(block, sealer=dataclasses.replace(block.sealer, kind="pox")),
        dataclasses.replace(block, sealer=dataclasses.replace(block.sealer, difficulty=-1)),
    ):
        reason = bc.check_block(malformed)
        assert isinstance(reason, str) and reason and "\n" not in reason


def test_verify_valid_pending_invalid():
    # check_tx rules on the content only: a tx of any sensor, registered or
    # not, passes while intact.
    good = make_tx(0)
    assert bc.check_tx(good) is None
    assert bc.check_tx(make_tx(7)) is None

    tampered = bc.Transaction(
        tx_id=good.tx_id,
        sensor_id=good.sensor_id,
        destination=good.destination,
        timestamp=good.timestamp,
        payload=b"readinh",  # flipped byte, stale checksum
        checksum=good.checksum,
    )
    assert bc.check_tx(tampered) == "payload checksum mismatch"


# --- mining and consensus ----------------------------------------------------


def test_mine_difficulty_zero_accepts_first_nonce():
    block = bc.mine_block([], bc.ZERO_HASH, 0, 0, 0)
    assert block.nonce == 0


def test_mine_difficulty8_verified_independently():
    tx = make_tx(0)
    block = bc.mine_block([tx], bc.ZERO_HASH, 8, 50, 0)
    assert int.from_bytes(block.hash, "big") < 2 ** (256 - 8)
    # recompute the digest from first principles
    def u64(x):
        return x.to_bytes(8, "big")

    header = (
        u64(0) + u64(50) + bc.ZERO_HASH + u64(1) + tx.tx_id
        + u64(3) + b"pow" + u64(8) + u64(block.nonce)
    )
    assert hashlib.sha256(header).digest() == block.hash


def test_mine_rejects_empty_non_genesis():
    genesis = bc.mine_block([], bc.ZERO_HASH, 0, 0, 0)
    with pytest.raises(EmptyBlockError):
        bc.mine_block([], genesis.hash, 0, 10, 1)


def test_mine_rejects_negative_difficulty():
    with pytest.raises(ValueError):
        bc.mine_block([], bc.ZERO_HASH, -1, 0, 0)


def test_mine_rejects_difficulty_above_256():
    with pytest.raises(ValueError):
        bc.mine_block([], bc.ZERO_HASH, 257, 0, 0)


@settings(max_examples=40, deadline=None)
@given(
    prev_hash=st.binary(min_size=32, max_size=32),
    payloads=st.lists(st.binary(max_size=16), min_size=1, max_size=3),
    now=st.integers(0, 2**63),
    index=st.integers(0, 2**32),
    difficulty=st.integers(0, 12),
)
def test_midstate_mining_matches_naive_loop(prev_hash, payloads, now, index, difficulty):
    txs = [make_tx(i, payload=p) for i, p in enumerate(payloads)]
    block = bc.mine_block(txs, prev_hash, difficulty, now, index)
    sealer = bc.Sealer(kind="pow", difficulty=difficulty)
    prefix = block_header_bytes(index, now, prev_hash, [t.tx_id for t in txs], sealer, 0)[:-8]
    nonce = 0
    while leading_zero_bits(bc.digest(prefix + nonce.to_bytes(8, "big"))) < difficulty:
        nonce += 1
    assert block.nonce == nonce
    assert block.hash == bc.digest(prefix + nonce.to_bytes(8, "big"))


def test_mining_past_the_packed_nonce_table_matches_longhand_search():
    # d=11 puts the mean nonce at 2 048, past the 1 024 pre-packed nonces
    tx = make_tx(0)
    sealer = bc.Sealer(kind="pow", difficulty=11)
    nonces = []
    for now in range(4):
        block = bc.mine_block([tx], bc.ZERO_HASH, 11, now, 1)
        nonce = 0
        while True:
            h = hashlib.sha256(block_header_bytes(1, now, bc.ZERO_HASH, [tx.tx_id], sealer, nonce)).digest()
            if leading_zero_bits(h) >= 11:
                break
            nonce += 1
        assert type(block.nonce) is int
        assert (block.nonce, block.hash) == (nonce, h)
        nonces.append(nonce)
    assert min(nonces) < len(bc._PACKED_NONCES) <= max(nonces)


@pytest.mark.parametrize("difficulty", [0, 4, 8])
def test_mining_on_hashlib_sha256_gives_the_same_block(monkeypatch, difficulty):
    txs = [make_tx(i, payload=f"r{i}".encode()) for i in range(3)]
    block = bc.mine_block(txs, bc.ZERO_HASH, difficulty, 77, 5)
    monkeypatch.setattr(bc, "_builtin_sha256", hashlib.sha256)
    assert bc.mine_block(txs, bc.ZERO_HASH, difficulty, 77, 5) == block


@pytest.mark.parametrize("difficulty", [0, 1, 7, 8, 9, 255, 256])
def test_pow_target_agrees_with_leading_zero_bits(difficulty):
    target = bc.pow_target(difficulty)
    if difficulty == 0:
        below, at = [bytes(32), b"\xff" * 32], []
    else:
        bound = 1 << (256 - difficulty)
        below, at = [(bound - 1).to_bytes(32, "big")], [bound.to_bytes(32, "big")]
    for h in below:
        assert h < target and leading_zero_bits(h) >= difficulty
    for h in at:
        assert not h < target and leading_zero_bits(h) < difficulty


def test_pow_target_above_256_admits_nothing():
    assert not bytes(32) < bc.pow_target(257)


def test_select_validator_single():
    assert bc.select_validator(bc.stake_table({"a": 2.0}), seed=0) == "a"


def test_select_validator_zero_stake_never_chosen():
    for seed in range(500):
        assert bc.select_validator(bc.stake_table({"a": 1.0, "b": 0.0}), seed=seed) == "a"


def test_select_validator_rejects_all_zero():
    with pytest.raises(ValueError):
        bc.select_validator(bc.stake_table({"a": 0.0, "b": 0.0}), seed=1)
    with pytest.raises(ValueError):
        bc.select_validator(bc.stake_table({}), seed=1)
    with pytest.raises(ValueError, match="finite total"):  # each stake is finite, their sum is not
        bc.stake_table({"a": 1e308, "b": 1e308})


def test_select_validator_weighted_frequency():
    table = bc.stake_table({"A": 3.0, "B": 1.0})
    draws = [bc.select_validator(table, seed=s) for s in range(4000)]
    freq = draws.count("A") / len(draws)
    assert abs(freq - 0.75) < 0.02


# --- chain ------------------------------------------------------------------


def test_append_extends_chain():
    ledger = fresh_chain(2, difficulty=0)
    n = len(ledger.blocks)
    tx = make_tx(90)
    bc.append_block(ledger, bc.mine_block([tx], ledger.tip_hash, 0, 99, n))
    assert len(ledger.blocks) == n + 1


def test_append_rejects_stale_prev_hash():
    ledger = fresh_chain(3, difficulty=0)
    stale = ledger.blocks[0].hash
    block = bc.mine_block([make_tx(91)], stale, 0, 99, len(ledger.blocks))
    with pytest.raises(ForkRejectedError):
        bc.append_block(ledger, block)


def test_append_rejects_bad_seal():
    ledger = fresh_chain(2, difficulty=0)
    good = bc.mine_block([make_tx(92)], ledger.tip_hash, 0, 99, len(ledger.blocks))
    # claim a difficulty the hash does not meet
    dishonest = bc.Block(
        index=good.index,
        timestamp=good.timestamp,
        prev_hash=good.prev_hash,
        tx_list=good.tx_list,
        nonce=good.nonce,
        sealer=bc.Sealer(kind="pow", difficulty=200),
        hash=good.hash,
    )
    with pytest.raises(SealInvalidError):
        bc.append_block(ledger, dishonest)


def test_a_tx_committed_before_or_carried_twice_fails_the_chain_check():
    # append_block checks link and seal only; the chain's one duplicate check
    # names the block that holds the later copy, and the id
    base = fresh_chain(3, difficulty=0)
    dup, fresh = base.blocks[1].tx_list[0], make_tx(94)
    for txs in ([dup], [fresh, fresh]):  # committed before, or carried twice in one block
        ledger = bc.Ledger(blocks=list(base.blocks))
        bc.append_block(ledger, bc.mine_block(txs, ledger.tip_hash, 0, 99, 3))
        assert bc.validate_chain(ledger) == (False, 3)
        assert bc.first_duplicate(*id_column(ledger.blocks)) == (3, txs[0].tx_id)
    assert bc.validate_chain(base) == (True, None) and bc.first_duplicate(*id_column(base.blocks)) is None


def test_ids_that_share_their_first_8_bytes_are_not_duplicates():
    # The check sorts each id's first 8 bytes, so a key that repeats is
    # confirmed against the full ids before anything is refused.
    ledger = fresh_chain(2, difficulty=0)
    a = make_tx(95)
    b, c, d = (a._replace(tx_id=a.tx_id[:8] + bytes([k]) * 24) for k in (1, 2, 3))
    for txs in ([a], [b, c]):  # a key already on the chain, and a key twice in one block
        bc.append_block(ledger, bc.mine_block(txs, ledger.tip_hash, 0, 99, len(ledger.blocks)))
    assert len(ledger.blocks) == 4 and bc.first_duplicate(*id_column(ledger.blocks)) is None
    for txs, repeated in (([d, a], a), ([c], c), ([d, d], d)):
        longer = bc.Ledger(blocks=list(ledger.blocks))
        bc.append_block(longer, bc.mine_block(txs, longer.tip_hash, 0, 99, 4))
        assert bc.first_duplicate(*id_column(longer.blocks)) == (4, repeated.tx_id)


def test_a_batch_reads_the_same_rows_after_the_store_grows():
    store = bc.TxColumns("bs")
    block = bc.mine_block(store.append([(f"s-{i}", b"r%d" % i, i) for i in range(8)]), bc.ZERO_HASH, 0, 9, 0)
    sealed = list(block.tx_list)
    store.append([(f"s-{i}", b"later", 10 + i) for i in range(1_000)])
    assert len(store) == 1_008 and list(block.tx_list) == sealed and bc.check_block(block) is None
    assert block.tx_list == bc.TxBatch.of(sealed)
    assert block.tx_list[-1] == sealed[-1] and block.tx_list[2:4] == tuple(sealed[2:4])
    assert [type(t) for t in sealed] == [bc.Transaction] * 8 and all(bc.check_tx(t) is None for t in sealed)


def test_blocks_built_outside_the_engine_hold_their_txs_as_columns():
    txs = [make_tx(i, payload=f"r{i}".encode(), now=i) for i in range(3)]
    pow_block = bc.mine_block(txs, bc.ZERO_HASH, 4, 7, 0)
    pos_block = bc.seal_block_pos(txs, bc.ZERO_HASH, "v", 7, 0)
    replaced = dataclasses.replace(pow_block, nonce=pow_block.nonce + 1)
    loaded = load_ledger(bc.export_ledger(bc.Ledger(blocks=[pow_block]))).blocks[0]
    built = bc.Block(0, 7, bc.ZERO_HASH, tuple(txs), 0, pos_block.sealer, b"")
    for block in (pow_block, pos_block, replaced, loaded, built):
        assert type(block.tx_list) is bc.TxBatch and list(block.tx_list) == txs
        assert type(block.tx_list.cols.ids) is bytearray and type(block.tx_list.cols.destination) is str
    assert replaced.tx_list is pow_block.tx_list and bc.check_block(replaced) == "hash does not match header"
    assert loaded == pow_block and pow_block.tx_list.id_run() == b"".join(t.tx_id for t in txs)


@pytest.mark.parametrize("timestamp", [-1, 2**64])
def test_a_loaded_value_outside_its_column_is_kept_and_reported(timestamp):
    # The parsed transaction keeps a value as loaded, so check_tx reports it.
    # No column holds it: TxBatch.of refuses it, as it does a short id, so its
    # block loads as None and validation reports that block. Rows of two
    # destinations fit, one destination per row.
    good = make_tx(1)
    odd = [good._replace(timestamp=timestamp), good._replace(tx_id=b"\x01" * 31)]
    assert [bc.check_tx(t) for t in odd] == ["timestamp outside the u64 range", "tx_id does not match canonical body"]
    for tx in odd:
        with pytest.raises(ValueError):
            bc.seal_block_pos([make_tx(0), tx], bc.ZERO_HASH, "v", 5, 0)
    [other] = bc.TxColumns("gw").append([("s-09", b"elsewhere", 100)])
    block = bc.seal_block_pos([make_tx(0), other], bc.ZERO_HASH, "v", 5, 0)
    assert type(block.tx_list.cols.destination) is tuple and list(block.tx_list) == [make_tx(0), other]
    assert bc.validate_chain(bc.Ledger(blocks=[block])) == (True, None)
    doc = json.loads(bc.export_ledger(bc.Ledger(blocks=[block])))
    doc["txs"][0]["timestamp"] = timestamp
    assert bc.tx_from_display(doc["txs"][0]).timestamp == timestamp and bc.block_from_dict(doc) is None
    loaded = load_ledger(bc.export_ledger(fresh_chain(3, difficulty=0)) + json.dumps(doc))
    assert loaded.blocks[3] is None and bc.validate_chain(loaded) == (False, 3)


def test_validate_genesis_only():
    ledger = bc.Ledger()
    bc.append_block(ledger, bc.mine_block([], bc.ZERO_HASH, 8, 0, 0))
    assert bc.validate_chain(ledger) == (True, None)


def test_validate_empty_ledger_invalid_at_zero():
    assert bc.validate_chain(bc.Ledger()) == (False, 0)


def test_validate_flipped_payload_detected_at_index():
    ledger = fresh_chain(5, difficulty=0)
    block = ledger.blocks[2]
    victim = block.tx_list[1]
    tampered_tx = bc.Transaction(
        tx_id=victim.tx_id,
        sensor_id=victim.sensor_id,
        destination=victim.destination,
        timestamp=victim.timestamp,
        payload=bytes([victim.payload[0] ^ 1]) + victim.payload[1:],
        checksum=victim.checksum,
    )
    txs = list(block.tx_list)
    txs[1] = tampered_tx
    ledger.blocks[2] = bc.Block(
        index=block.index,
        timestamp=block.timestamp,
        prev_hash=block.prev_hash,
        tx_list=tuple(txs),
        nonce=block.nonce,
        sealer=block.sealer,
        hash=block.hash,
    )
    assert bc.validate_chain(ledger) == (False, 2)


def test_validate_detects_cross_block_duplicate():
    ledger = fresh_chain(2, difficulty=0)
    dup = ledger.blocks[1].tx_list[0]
    evil = bc.mine_block([dup], ledger.tip_hash, 0, 99, 2)
    bc.append_block(ledger, evil)  # append_block checks link and seal only
    assert bc.validate_chain(ledger) == (False, 2)


def test_export_round_trip_stays_valid():
    ledger = fresh_chain(4, difficulty=8)
    text = bc.export_ledger(ledger)
    again = load_ledger(text)
    assert bc.validate_chain(again) == (True, None)
    assert bc.export_ledger(again) == text


def block_to_dict(block):
    """A block's JSON form as a dict; `json.dumps(..., sort_keys=True)` of it
    is the oracle for `ledger_lines`."""
    return {
        "index": block.index,
        "timestamp": block.timestamp,
        "prev_hash": block.prev_hash.hex(),
        "nonce": block.nonce,
        "sealer": {
            "kind": block.sealer.kind,
            "difficulty": block.sealer.difficulty,
            "validator": block.sealer.validator,
        },
        "hash": block.hash.hex(),
        "txs": [
            {
                "tx_id": t.tx_id.hex(),
                "sensor_id": t.sensor_id,
                "destination": t.destination,
                "timestamp": t.timestamp,
                "payload_hex": t.payload.hex(),
                "checksum": t.checksum.hex(),
            }
            for t in block.tx_list
        ],
    }


def oracle_lines(blocks):
    return [json.dumps(block_to_dict(b), sort_keys=True) + "\n" for b in blocks]


# Strings as `block_from_dict` accepts them, with the characters JSON escapes
# drawn often: quotes, backslashes, control characters, non-ASCII (astral and
# a lone surrogate included).
_json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800'), st.characters()))
_u64 = st.integers(0, 2**64 - 1)
_tx = st.builds(
    bc.Transaction,
    tx_id=st.binary(min_size=32, max_size=32),
    sensor_id=_json_text,
    destination=_json_text,
    timestamp=_u64,
    payload=st.binary(max_size=64),
    checksum=st.binary(min_size=32, max_size=32),
)
_block = st.builds(
    bc.Block,
    index=_u64,
    timestamp=_u64,
    prev_hash=st.binary(min_size=32, max_size=32),
    tx_list=st.lists(_tx, max_size=4).map(tuple),
    nonce=_u64,
    sealer=st.one_of(
        st.builds(bc.Sealer, kind=st.just("pow"), difficulty=st.integers(0, 256)),
        st.builds(bc.Sealer, kind=st.just("pos"), validator=_json_text),
    ),
    hash=st.binary(min_size=32, max_size=32),
)


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(_block, max_size=3))
def test_ledger_lines_match_sorted_json_dumps(blocks):
    ledger = bc.Ledger(blocks=blocks)
    assert list(bc.ledger_lines(ledger)) == oracle_lines(blocks)
    assert bc.export_ledger(ledger) == "".join(oracle_lines(blocks))


def wide_ledger():
    """300 blocks of 16 transactions: an export of over 1 MB."""
    ledger = bc.Ledger()
    for i in range(300):
        rows = [(f"s-{j:02d}", f"r{i}-{j}".encode(), i * 10) for j in range(16)]
        prev = ledger.blocks[-1].hash if ledger.blocks else bc.ZERO_HASH
        ledger.blocks.append(bc.mine_block(bc.TxColumns("bs").append(rows), prev, 0, i * 1000, i))
    return ledger


def test_export_ledger_peak_stays_near_its_length():
    """The export grows in place, so the memory traced while it is built
    peaks near its own length; joining a list of its lines peaks near twice."""
    ledger = wide_ledger()
    tracemalloc.start()
    try:
        text = bc.export_ledger(ledger)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "".join(bc.ledger_lines(ledger))
    assert len(text) > 1_000_000
    assert peak <= 1.25 * len(text) + 64 * 1024


def test_validate_chain_command_reads_the_export_one_line_at_a_time(tmp_path):
    """`distb validate-chain` checks each block as it parses its line and keeps
    only the tip, that line and the id column, 32 B a tx: its traced peak
    stays far below the export's length, which holding the text would take."""
    text = bc.export_ledger(wide_ledger())
    path = tmp_path / "ledger.ndjson"
    path.write_text(text)
    tracemalloc.start()
    try:
        assert main(["validate-chain", str(path)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak <= 0.25 * len(text)


def test_validating_a_chain_reads_its_id_column_once(monkeypatch):
    """`validate_chain` hands the whole id column to the one duplicate check
    once, and so does `run_raw`, over its committed rows in place."""
    real, calls = bc.first_duplicate, []

    def counted(ids, ends):
        calls.append((bytes(ids), list(ends)))
        return real(ids, calls[-1][1])

    monkeypatch.setattr(bc, "first_duplicate", counted)
    loaded = load_ledger(bc.export_ledger(fresh_chain(4, difficulty=0)))
    assert bc.validate_chain(loaded) == (True, None)
    assert calls == [id_column(loaded.blocks)] and calls[0][1] == [0, 3, 6, 9]
    raw = run_raw(ScenarioConfig(node_count=5, sim_time_ms=2000, seed=3))
    assert len(calls) == 2 and calls[1] == id_column(raw.ledger.blocks)
    assert len(calls[1][0]) == 32 * raw.counters["committed_txs"] > 0


def test_append_only_serialization_prefix_stable():
    ledger = fresh_chain(3, difficulty=0)
    before = bc.export_ledger(ledger)
    bc.append_block(ledger, bc.mine_block([make_tx(93)], ledger.tip_hash, 0, 99, 3))
    after = bc.export_ledger(ledger)
    assert after.startswith(before)


def test_pos_sealed_chain_validates():
    ledger = bc.Ledger()
    bc.append_block(ledger, bc.seal_block_pos([], bc.ZERO_HASH, "val-a", 0, 0))
    bc.append_block(ledger, bc.seal_block_pos([make_tx(5)], ledger.tip_hash, "val-b", 10, 1))
    assert bc.validate_chain(ledger) == (True, None)


# --- gas ----------------------------------------------------------------------


GAS = (load_default().gas_base, load_default().gas_per_tx)


def test_gas_zero_is_zero():
    assert bc.gas_for(0, *GAS) == 0


def test_gas_rejects_negative():
    with pytest.raises(ValueError):
        bc.gas_for(-1, *GAS)


def test_gas_matches_reference_rows_within_10pct():
    rows = {3: 25000, 6: 34000, 9: 44000, 12: 53000, 15: 64000, 18: 74000, 21: 84000, 24: 95000}
    for n, expected in rows.items():
        assert abs(bc.gas_for(n, *GAS) - expected) / expected <= 0.10


def test_gas_strictly_monotone():
    values = [bc.gas_for(n, *GAS) for n in range(0, 80)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_tx_display_format_fields():
    tx = make_tx(0, payload=bytes.fromhex("DEADBEEF"))
    [doc] = json.loads(next(bc.ledger_lines(bc.Ledger([bc.seal_block_pos([tx], bc.ZERO_HASH, "v", 0, 0)]))))["txs"]
    assert sorted(doc) == ["checksum", "destination", "payload_hex", "sensor_id", "timestamp", "tx_id"]
    assert doc["payload_hex"] == "deadbeef"
    assert bc.tx_from_display(doc) == tx
