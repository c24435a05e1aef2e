"""Golden vectors pin the canonical byte layout: if any of these change, the
wire format changed and every stored ledger/fixture breaks."""

import hashlib
import json
from pathlib import Path

from chain_reference import leading_zero_bits
from distb import blockchain as bc

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_vectors.json").read_text())


def u64(x):
    return x.to_bytes(8, "big")


def ser(b):
    return u64(len(b)) + b


def golden_tx(g):
    [tx] = bc.TxColumns(g["destination"]).append([(g["sensor_id"], bytes.fromhex(g["payload_hex"]), g["timestamp"])])
    return tx


def test_transaction_golden():
    g = GOLDEN["transaction"]
    payload = bytes.fromhex(g["payload_hex"])
    tx = golden_tx(g)
    assert tx.tx_id.hex() == g["tx_id"]
    assert tx.checksum.hex() == g["checksum"]
    # independent longhand assembly of the canonical bytes
    body = (
        ser(g["sensor_id"].encode())
        + ser(g["destination"].encode())
        + u64(g["timestamp"])
        + ser(payload)
        + hashlib.sha256(payload).digest()
    )
    assert hashlib.sha256(body).hexdigest() == g["tx_id"]


def test_second_transaction_golden():
    g = GOLDEN["transaction_2"]
    tx = golden_tx(g)
    assert tx.tx_id.hex() == g["tx_id"]
    assert tx.checksum.hex() == g["checksum"]


def test_genesis_block_golden():
    g = GOLDEN["genesis_pow8"]
    block = bc.mine_block([], bc.ZERO_HASH, 8, 0, 0)
    assert block.nonce == g["nonce"]
    assert block.hash.hex() == g["hash"]
    header = u64(0) + u64(0) + bc.ZERO_HASH + u64(0) + ser(b"pow") + u64(8) + u64(block.nonce)
    assert hashlib.sha256(header).hexdigest() == g["hash"]


def test_pow_block_golden():
    t1 = GOLDEN["transaction"]
    t2 = GOLDEN["transaction_2"]
    g = GOLDEN["block1_pow8"]
    genesis = bc.mine_block([], bc.ZERO_HASH, 8, 0, 0)
    tx1, tx2 = golden_tx(t1), golden_tx(t2)
    block = bc.mine_block([tx1, tx2], genesis.hash, 8, g["timestamp"], 1)
    assert block.nonce == g["nonce"]
    assert block.hash.hex() == g["hash"]
    assert leading_zero_bits(block.hash) >= 8
    header = (
        u64(1) + u64(g["timestamp"]) + genesis.hash + u64(2) + tx1.tx_id + tx2.tx_id
        + ser(b"pow") + u64(8) + u64(block.nonce)
    )
    assert hashlib.sha256(header).hexdigest() == g["hash"]


def test_pos_block_golden():
    t1 = GOLDEN["transaction"]
    g = GOLDEN["block1_pos"]
    genesis = bc.mine_block([], bc.ZERO_HASH, 8, 0, 0)
    tx1 = golden_tx(t1)
    block = bc.seal_block_pos([tx1], genesis.hash, g["validator"], g["timestamp"], 1)
    assert block.hash.hex() == g["hash"]
    header = (
        u64(1) + u64(g["timestamp"]) + genesis.hash + u64(1) + tx1.tx_id
        + ser(b"pos") + ser(g["validator"].encode()) + u64(0)
    )
    assert hashlib.sha256(header).hexdigest() == g["hash"]
