"""Transaction pipeline: canonical hashing, the integrity check, consensus
sealing, the append-only hash chain, and gas accounting.

Canonical byte layout (everything hashed goes through this, never JSON):

    u64       unsigned 64-bit big-endian integer
    bytes     u64 length prefix, then the raw bytes
    str       its UTF-8 encoding as `bytes`

    transaction body = str(sensor_id) + str(destination) + u64(timestamp)
                       + bytes(payload) + checksum(32 raw bytes)
    tx_id            = SHA-256(transaction body)
    checksum         = SHA-256(payload)

    block header     = u64(index) + u64(timestamp) + prev_hash(32 raw)
                       + u64(tx count) + each tx_id (32 raw, in order)
                       + str(sealer kind)
                       + [u64(difficulty) if pow | str(validator) if pos]
                       + u64(nonce)
    block hash       = SHA-256(block header)

A pow seal requires the block hash to carry at least `difficulty` leading
zero bits (0 <= difficulty <= 256) and an empty validator; a pos seal requires
a non-empty validator and difficulty 0, so no sealer field escapes the hash.
The genesis block has index 0 and an all-zero prev_hash.

A `Transaction` is an immutable named tuple, built a batch at a time by
`make_transactions`.

JSON forms (display transaction, newline-delimited ledger export) are for
humans and files only; they are never hashed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, count
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DuplicateTransactionError, EmptyBlockError, ForkRejectedError, SealInvalidError

try:  # CPython's built-in SHA-256, for mine_block's midstate copies
    from _sha2 import sha256 as _builtin_sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # 3.10-3.11
    except ImportError:
        _builtin_sha256 = hashlib.sha256

ZERO_HASH = bytes(32)
_sha256 = hashlib.sha256
_pack_u64 = struct.Struct(">Q").pack
_PACKED_NONCES = tuple(map(_pack_u64, range(1 << 10)))  # the nonces most seals stop within
_pack_2u64 = struct.Struct(">QQ").pack
_TX_PREFIX_CACHE = 1 << 14  # (sensor, destination) pairs whose body prefix is kept


def _u64(x: int) -> bytes:
    try:
        return _pack_u64(x)
    except struct.error:
        # out of range or not an int: raise OverflowError or TypeError, never coerce
        return operator.index(x).to_bytes(8, "big")


def _ser_bytes(b: bytes) -> bytes:
    return _u64(len(b)) + b


def _ser_str(s: str) -> bytes:
    return _ser_bytes(s.encode("utf-8"))


def digest(data: bytes) -> bytes:
    return _sha256(data).digest()


# ---------------------------------------------------------------------------
# Transactions


class Transaction(NamedTuple):
    tx_id: bytes
    sensor_id: str
    destination: str
    timestamp: int
    payload: bytes
    checksum: bytes


@functools.lru_cache(maxsize=_TX_PREFIX_CACHE)
def _tx_prefix(sensor_id: str, destination: str) -> bytes:
    return _ser_str(sensor_id) + _ser_str(destination)


def tx_body_bytes(sensor_id: str, destination: str, timestamp: int, payload: bytes, checksum: bytes) -> bytes:
    try:
        fixed = _pack_2u64(timestamp, len(payload))  # u64(timestamp) + the payload's length prefix
    except struct.error:
        fixed = _u64(timestamp) + _u64(len(payload))
    return b"".join((_tx_prefix(sensor_id, destination), fixed, payload, checksum))


def make_transactions(rows, destination: str) -> list[Transaction]:
    """Build one transaction per (sensor_id, payload, timestamp) row, in order,
    each with checksum and tx_id over the canonical bytes."""
    txs = []
    new = tuple.__new__  # skips the named tuple's Python-level constructor
    for sensor_id, payload, now in rows:
        if not sensor_id or not destination:
            raise ValueError("sensor_id and destination must be non-empty")
        if now < 0:
            raise ValueError("timestamp must be non-negative")
        checksum = _sha256(payload).digest()
        tx_id = _sha256(tx_body_bytes(sensor_id, destination, now, payload, checksum)).digest()
        txs.append(new(Transaction, (tx_id, sensor_id, destination, now, payload, checksum)))
    return txs


def check_tx(tx: Transaction) -> str | None:
    """The one transaction integrity check: None if intact, else the reason."""
    if not tx.sensor_id or not tx.destination:
        return "empty sensor_id or destination"
    if not 0 <= tx.timestamp < 1 << 64:
        return "timestamp outside the u64 range"
    if tx.checksum != digest(tx.payload):
        return "payload checksum mismatch"
    if tx.tx_id != digest(tx_body_bytes(tx.sensor_id, tx.destination, tx.timestamp, tx.payload, tx.checksum)):
        return "tx_id does not match canonical body"
    return None


# ---------------------------------------------------------------------------
# Blocks and mining


@dataclass(frozen=True, slots=True)
class Sealer:
    kind: str  # pow | pos
    difficulty: int = 0
    validator: str = ""


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    timestamp: int
    prev_hash: bytes
    tx_list: tuple[Transaction, ...]
    nonce: int
    sealer: Sealer
    hash: bytes


@functools.lru_cache(maxsize=256)
def _sealer_bytes(sealer: Sealer) -> bytes:
    if sealer.kind == "pow":
        return _ser_str("pow") + _u64(sealer.difficulty)
    if sealer.kind == "pos":
        return _ser_str("pos") + _ser_str(sealer.validator)
    raise ValueError(f"unknown sealer kind {sealer.kind!r}")


def _header_prefix(index: int, timestamp: int, prev_hash: bytes, tx_ids, sealer: Sealer) -> bytes:
    """The block header up to, not including, the nonce."""
    return b"".join((_u64(index), _u64(timestamp), prev_hash, _u64(len(tx_ids)), *tx_ids, _sealer_bytes(sealer)))


def block_header_bytes(index: int, timestamp: int, prev_hash: bytes, tx_ids, sealer: Sealer, nonce: int) -> bytes:
    return _header_prefix(index, timestamp, prev_hash, tx_ids, sealer) + _u64(nonce)


def leading_zero_bits(data: bytes) -> int:
    return len(data) * 8 - int.from_bytes(data, "big").bit_length()


def pow_target(difficulty: int) -> bytes:
    """Bound for a pow seal: a 32-byte hash carries at least `difficulty`
    leading zero bits exactly when it compares below the returned bytes."""
    if difficulty < 0:
        raise ValueError("difficulty must be >= 0 bits")
    if difficulty == 0:
        return b"\xff" * 33  # a 32-byte hash is a prefix of, or below, this
    if difficulty > 256:
        return b""  # no 32-byte hash is below the empty string
    return (1 << (256 - difficulty)).to_bytes(32, "big")


def mine_block(txs, prev_hash: bytes, difficulty: int, now: int, index: int) -> Block:
    """Proof-of-work sealing: count the nonce up from 0 until the digest clears
    the difficulty. Deterministic for fixed inputs.

    The header up to the nonce is fixed, so it is hashed once and each
    candidate continues from a copy of that hash state (the midstate). The
    state is CPython's built-in SHA-256, whose copy is a plain struct copy,
    where hashlib's OpenSSL object allocates a new context for every copy and
    digest. Candidates are nonces already packed as u64: the first 1 024 from
    a table built at import, the rest packed as the search reaches them."""
    if not 0 <= difficulty <= 256:
        raise ValueError(f"difficulty must be in 0..256 bits (got {difficulty})")
    if index > 0 and not txs:
        raise EmptyBlockError("non-genesis block needs at least one transaction")
    tx_list = tuple(txs)
    sealer = Sealer(kind="pow", difficulty=difficulty)
    base = _builtin_sha256(_header_prefix(index, now, prev_hash, [t.tx_id for t in tx_list], sealer))
    target = pow_target(difficulty)
    copy = base.copy
    for packed in chain(_PACKED_NONCES, map(_pack_u64, count(len(_PACKED_NONCES)))):
        h = copy()
        h.update(packed)
        block_hash = h.digest()
        if block_hash < target:
            return Block(
                index=index,
                timestamp=now,
                prev_hash=prev_hash,
                tx_list=tx_list,
                nonce=int.from_bytes(packed, "big"),
                sealer=sealer,
                hash=block_hash,
            )


def seal_block_pos(txs, prev_hash: bytes, validator: str, now: int, index: int) -> Block:
    """Stake-based sealing: no difficulty target, the chosen validator signs the tag."""
    if index > 0 and not txs:
        raise EmptyBlockError("non-genesis block needs at least one transaction")
    if not validator:
        raise ValueError("validator id must be non-empty")
    tx_list = tuple(txs)
    sealer = Sealer(kind="pos", validator=validator)
    h = digest(block_header_bytes(index, now, prev_hash, [t.tx_id for t in tx_list], sealer, 0))
    return Block(
        index=index,
        timestamp=now,
        prev_hash=prev_hash,
        tx_list=tx_list,
        nonce=0,
        sealer=sealer,
        hash=h,
    )


def stake_table(stakes: dict[str, float]) -> tuple[list[str], list[float], float]:
    """The stakes checked once: positive-stake validators by name, running and total stake."""
    if any(w < 0 for w in stakes.values()):
        raise ValueError("stakes must be non-negative")
    entries = [(v, w) for v, w in sorted(stakes.items()) if w > 0]
    if not entries:
        raise ValueError("at least one validator needs positive stake")
    weights = [w for _, w in entries]
    total = sum(weights)
    if not math.isfinite(total):
        raise ValueError("stakes must sum to a finite total")
    return [v for v, _ in entries], list(accumulate(weights)), total


def select_validator(stakes: dict[str, float] | tuple, seed: int) -> str:
    """Seeded stake-weighted choice from stakes or their `stake_table`; zero stake is never picked."""
    names, running, total = stakes if isinstance(stakes, tuple) else stake_table(stakes)
    r = random.Random(seed).random() * total
    return names[min(bisect_right(running, r), len(names) - 1)]


# ---------------------------------------------------------------------------
# Ledger


@dataclass
class Ledger:
    """Append-only chain; `committed_ids` holds the ids of its txs, so the
    duplicate check on append is O(1) over long runs."""

    blocks: list[Block] = field(default_factory=list)
    committed_ids: set[bytes] = field(default_factory=set)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].hash if self.blocks else ZERO_HASH


def check_block(block: Block) -> str | None:
    """The one block seal check: None if the header hashes to `block.hash`
    and the seal holds, else the reason."""
    tx_ids = [t.tx_id for t in block.tx_list]
    try:
        header = block_header_bytes(block.index, block.timestamp, block.prev_hash, tx_ids, block.sealer, block.nonce)
    except (ValueError, OverflowError) as exc:
        return str(exc)
    if digest(header) != block.hash:
        return "hash does not match header"
    if block.sealer.kind == "pow" and not block.hash < pow_target(block.sealer.difficulty):
        return "hash misses difficulty target"
    if block.sealer.kind == "pow" and block.sealer.validator:
        return "pow seal with a validator"
    if block.sealer.kind == "pos" and not block.sealer.validator:
        return "pos seal without validator"
    if block.sealer.kind == "pos" and block.sealer.difficulty:
        return "pos seal with a difficulty"
    return None


def append_block(ledger: Ledger, block: Block) -> None:
    """Extend the chain; rejects forks, bad seals and any tx committed before
    or carried twice."""
    if block.prev_hash != ledger.tip_hash or block.index != len(ledger.blocks):
        raise ForkRejectedError(
            f"block {block.index} does not extend tip at height {len(ledger.blocks)}"
        )
    reason = check_block(block)
    if reason is not None:
        raise SealInvalidError(reason)
    tx_ids = [t.tx_id for t in block.tx_list]
    for tx_id in tx_ids:
        if tx_id in ledger.committed_ids:
            raise DuplicateTransactionError(f"tx {tx_id.hex()} already committed")
    if len(set(tx_ids)) != len(tx_ids):
        raise DuplicateTransactionError(f"block {block.index} carries a tx twice")
    ledger.blocks.append(block)
    ledger.committed_ids.update(tx_ids)


def validate_chain(ledger: Ledger) -> tuple[bool, int | None]:
    """Recompute every digest and linkage. Returns (ok, first bad index or None)."""
    if not ledger.blocks:
        return False, 0
    seen: set[bytes] = set()
    prev = ZERO_HASH
    for i, block in enumerate(ledger.blocks):
        if block.index != i or block.prev_hash != prev:
            return False, i
        for tx in block.tx_list:
            if check_tx(tx) is not None or tx.tx_id in seen:
                return False, i
            seen.add(tx.tx_id)
        if check_block(block) is not None:
            return False, i
        prev = block.hash
    return True, None


def gas_for(batch_size: int, base: float, per_tx: float) -> int:
    """Gas for committing a batch: 0 for the empty batch, else the affine model."""
    if batch_size < 0:
        raise ValueError("batch size must be >= 0")
    if batch_size == 0:
        return 0
    return round(base + per_tx * batch_size)


# ---------------------------------------------------------------------------
# JSON forms


def tx_display_dict(tx: Transaction) -> dict:
    return {
        "tx_id": tx.tx_id.hex(),
        "sensor_id": tx.sensor_id,
        "destination": tx.destination,
        "timestamp": tx.timestamp,
        "payload_hex": tx.payload.hex(),
        "checksum": tx.checksum.hex(),
    }


def _field(doc: dict, key: str, kind: type):
    """A field of a JSON form holding exactly `kind`; anything else, a bool
    for an int or a string for a number included, is a parse error."""
    value = doc[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be {kind.__name__} (got {value!r})")
    return value


def tx_from_display(doc: dict) -> Transaction:
    return Transaction(
        tx_id=bytes.fromhex(doc["tx_id"]),
        sensor_id=_field(doc, "sensor_id", str),
        destination=_field(doc, "destination", str),
        timestamp=_field(doc, "timestamp", int),
        payload=bytes.fromhex(doc["payload_hex"]),
        checksum=bytes.fromhex(doc["checksum"]),
    )


def block_from_dict(doc: dict) -> Block:
    return Block(
        index=_field(doc, "index", int),
        timestamp=_field(doc, "timestamp", int),
        prev_hash=bytes.fromhex(doc["prev_hash"]),
        tx_list=tuple(tx_from_display(t) for t in doc["txs"]),
        nonce=_field(doc, "nonce", int),
        sealer=Sealer(
            kind=_field(doc["sealer"], "kind", str),
            difficulty=_field(doc["sealer"], "difficulty", int),
            validator=_field(doc["sealer"], "validator", str),
        ),
        hash=bytes.fromhex(doc["hash"]),
    )


def ledger_lines(ledger: Ledger):
    """Yield the ledger export, one newline-terminated line per block.

    Each line is the block's JSON form as `json.dumps(..., sort_keys=True)`
    writes it: keys in sorted order, `", "` and `": "` separators, bytes as
    lowercase hex, and strings escaped to ASCII by the escaper it uses.
    Each distinct string is escaped once per call: `get(s) or esc(s)` reads
    the cache first, and an escaped string is never empty, so never false.
    """
    cache: dict[str, str] = {}
    get = cache.get

    def esc(text: str) -> str:
        out = cache[text] = encode_basestring_ascii(text)
        return out

    for b in ledger.blocks:
        s = b.sealer
        txs = ", ".join(
            [
                f'{{"checksum": "{c.hex()}", "destination": {get(d) or esc(d)}, '
                f'"payload_hex": "{p.hex()}", "sensor_id": {get(sid) or esc(sid)}, '
                f'"timestamp": {ts:d}, "tx_id": "{i.hex()}"}}'
                for i, sid, d, ts, p, c in b.tx_list
            ]
        )
        yield (
            f'{{"hash": "{b.hash.hex()}", "index": {b.index:d}, "nonce": {b.nonce:d}, '
            f'"prev_hash": "{b.prev_hash.hex()}", "sealer": {{"difficulty": {s.difficulty:d}, '
            f'"kind": {get(s.kind) or esc(s.kind)}, "validator": {get(s.validator) or esc(s.validator)}}}, '
            f'"timestamp": {b.timestamp:d}, "txs": [{txs}]}}\n'
        )


def export_ledger(ledger: Ledger) -> str:
    """Newline-delimited JSON, one block per line (see `ledger_lines`).

    The text grows in place and is never held twice. CPython resizes a str
    in place on `text += line` while the local `text` holds its only
    reference, so no line outlives its append and the text is never copied
    whole. `"".join(ledger_lines(...))` would instead keep every line alive
    in a list while it allocates the joined copy: twice the export at the
    peak. Keep the loop shape: a plain `for` over the lines, appending to a
    bare local. On 3.11 the in-place append is the specialised form of
    `+=`, and code whose back edge is a conditional jump is not specialised
    within the call, so `while chunk := "".join(islice(lines, n)): text +=
    chunk` copies the whole text on every append.
    `tests/test_blockchain.py::test_export_ledger_peak_stays_near_its_length`
    guards this.
    """
    text = ""
    for line in ledger_lines(ledger):
        text += line
    return text


def load_ledger(text: str) -> Ledger:
    blocks = []
    for line in text.splitlines():
        if line.strip():
            blocks.append(block_from_dict(json.loads(line)))
    ledger = Ledger(blocks=blocks)
    for b in blocks:
        ledger.committed_ids.update(t.tx_id for t in b.tx_list)
    return ledger
