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

A run's transactions live in one append-only column store, `TxColumns`:
ids and checksums 32 bytes per row in one `bytearray` each, every payload
in one `bytearray` with an `array` of end offsets, timestamps in an
`array`, sensor ids as references to the run's shared name strings, and one
destination. With its blocks that holds about 150 B per committed
transaction, where a named tuple of bytes objects per transaction held
about 385 B (`config.py` states the measured figures). A block's `tx_list`
is a `TxBatch`, a view of rows lo..hi of a store that reads as a sequence of
`Transaction` named tuples built on demand. A block built from outside the
engine (loaded, replaced or sealed over a list of transactions) copies its
transactions into a store of its own through `TxBatch.of`, which refuses a
value its column cannot hold.

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
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import EmptyBlockError, ForkRejectedError, SealInvalidError

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
_HEX_CHUNK = 1024  # rows the ledger export hexes at once


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


class TxColumns:
    """One run's transactions, a column per field, append-only (see the module
    docstring). `append` builds rows; a `TxBatch` reads them back. A store
    that `TxBatch.of` fills with rows of more than one destination holds a
    tuple of them, one per row."""

    __slots__ = ("ids", "sums", "payloads", "ends", "times", "sensors", "destination")

    def __init__(self, destination: str):
        self.ids = bytearray()
        self.sums = bytearray()
        self.payloads = bytearray()
        self.ends = array("Q", [0])  # row i's payload is payloads[ends[i]:ends[i + 1]]
        self.times = array("Q")
        self.sensors: list[str] = []
        self.destination = destination  # or a tuple of str, one per row

    def __len__(self) -> int:
        return len(self.sensors)

    def append(self, rows) -> TxBatch:
        """Build one transaction per (sensor_id, payload, timestamp) row, in
        order, each with checksum and tx_id over the canonical bytes. A row
        that is refused raises before any column grows."""
        lo = len(self.sensors)
        dest = self.destination
        ids, sums, payloads, ends, times, sensors = (
            self.ids, self.sums, self.payloads, self.ends, self.times, self.sensors
        )
        for sensor_id, payload, now in rows:
            if not sensor_id or not dest:
                raise ValueError("sensor_id and destination must be non-empty")
            if now < 0:
                raise ValueError("timestamp must be non-negative")
            checksum = _sha256(payload).digest()
            ids += _sha256(tx_body_bytes(sensor_id, dest, now, payload, checksum)).digest()
            sums += checksum
            payloads += payload
            ends.append(len(payloads))
            times.append(now)
            sensors.append(sensor_id)
        return TxBatch(self, lo, len(sensors))


def _cells(col: bytearray, lo: int, hi: int, hexed: bool) -> list:
    """Rows lo..hi of an id or checksum column, as bytes or as lowercase hex; the column is sliced, and hexed, once."""
    if hexed:
        return col[32 * lo : 32 * hi].hex(" ", 32).split()  # a space after every 32 bytes, then cut there
    run = bytes(col[32 * lo : 32 * hi])
    return [run[k : k + 32] for k in range(0, len(run), 32)]


class TxBatch(Sequence):
    """Rows lo..hi of a `TxColumns` store, read as `Transaction`s built on
    demand. The store only grows, so a batch reads the same rows for life."""

    __slots__ = ("cols", "lo", "hi")

    def __init__(self, cols: TxColumns, lo: int, hi: int):
        self.cols, self.lo, self.hi = cols, lo, hi

    @classmethod
    def of(cls, txs) -> TxBatch:
        """`txs` if a batch, else its transactions copied to a store of their own (ValueError if one fits no column)."""
        if type(txs) is TxBatch:
            return txs
        txs = tuple(txs)
        tx_ids, sensor_ids, dests, timestamps, payloads, sums = tuple(zip(*txs)) or ((),) * 6
        if any(len(v) != 32 for v in chain(tx_ids, sums)) or not all(0 <= t < 1 << 64 for t in timestamps):
            raise ValueError("a tx id or checksum that is not 32 bytes, or a timestamp outside the u64 range")
        cols = TxColumns(dests[0] if len(set(dests)) == 1 else dests)
        cols.ids, cols.sums = bytearray().join(tx_ids), bytearray().join(sums)
        cols.payloads = bytearray().join(payloads)
        cols.ends = array("Q", accumulate(map(len, payloads), initial=0))
        cols.times = array("Q", timestamps)
        cols.sensors = list(sensor_ids)
        return cls(cols, 0, len(txs))

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        j = range(self.lo, self.hi)[i]  # negative indices and IndexError as a tuple has them
        return next(iter(TxBatch(self.cols, j, j + 1)))

    def rows(self, hexed: bool):
        """Each row's fields in `Transaction` order; with `hexed`, its id,
        payload and checksum as lowercase hex, each column hexed once."""
        c, lo, hi = self.cols, self.lo, self.hi
        ends = c.ends[lo : hi + 1]
        base = ends[0]
        data = c.payloads[base : ends[-1]]
        data, width = (data.hex(), 2) if hexed else (bytes(data), 1)
        at = [width * (e - base) for e in ends]  # where each row's payload starts and ends in `data`
        payloads = [data[a:b] for a, b in zip(at, at[1:])]
        dest = c.destination
        dests = dest[lo:hi] if type(dest) is tuple else repeat(dest, hi - lo)
        ids, sums = _cells(c.ids, lo, hi, hexed), _cells(c.sums, lo, hi, hexed)
        return zip(ids, c.sensors[lo:hi], dests, c.times[lo:hi], payloads, sums)

    def __iter__(self):
        return map(functools.partial(tuple.__new__, Transaction), self.rows(hexed=False))

    def id_run(self) -> bytearray:
        """The rows' tx ids joined, as a block header carries them: one slice of the id column."""
        return self.cols.ids[32 * self.lo : 32 * self.hi]

    def __eq__(self, other):
        if not isinstance(other, TxBatch):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TxBatch({list(self)!r})"


def make_transactions(rows, destination: str) -> list[Transaction]:
    """Build one transaction per (sensor_id, payload, timestamp) row, in order,
    each with checksum and tx_id over the canonical bytes."""
    return list(TxColumns(destination).append(rows))


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
    tx_list: TxBatch  # any sequence of transactions is taken through TxBatch.of
    nonce: int
    sealer: Sealer
    hash: bytes

    def __post_init__(self):
        object.__setattr__(self, "tx_list", TxBatch.of(self.tx_list))


_sealer = functools.lru_cache(maxsize=256, typed=True)(Sealer)  # one shared Sealer per seal a run's blocks carry


@functools.lru_cache(maxsize=256)
def _sealer_bytes(sealer: Sealer) -> bytes:
    if sealer.kind == "pow":
        return _ser_str("pow") + _u64(sealer.difficulty)
    if sealer.kind == "pos":
        return _ser_str("pos") + _ser_str(sealer.validator)
    raise ValueError(f"unknown sealer kind {sealer.kind!r}")


def _header_prefix(index: int, timestamp: int, prev_hash: bytes, count: int, ids, sealer: Sealer) -> bytes:
    """The block header up to, not including, the nonce, over `count` tx ids joined in `ids`; a
    block's are one slice of its store's id column (`TxBatch.id_run`)."""
    return b"".join((_u64(index), _u64(timestamp), prev_hash, _u64(count), ids, _sealer_bytes(sealer)))


def block_header_bytes(index: int, timestamp: int, prev_hash: bytes, tx_ids, sealer: Sealer, nonce: int) -> bytes:
    return _header_prefix(index, timestamp, prev_hash, len(tx_ids), b"".join(tx_ids), sealer) + _u64(nonce)


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
    tx_list = TxBatch.of(txs)
    sealer = _sealer(kind="pow", difficulty=difficulty)
    base = _builtin_sha256(_header_prefix(index, now, prev_hash, len(tx_list), tx_list.id_run(), sealer))
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
    tx_list = TxBatch.of(txs)
    sealer = _sealer(kind="pos", validator=validator)
    h = digest(_header_prefix(index, now, prev_hash, len(tx_list), tx_list.id_run(), sealer) + _u64(0))
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
    """Append-only chain: its blocks and nothing else (see `append_block`)."""

    blocks: list[Block] = field(default_factory=list)

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].hash if self.blocks else ZERO_HASH


def check_block(block: Block) -> str | None:
    """The one block seal check: None if the header hashes to `block.hash`
    and the seal holds, else the reason."""
    txs = block.tx_list
    try:
        header = _header_prefix(block.index, block.timestamp, block.prev_hash, len(txs), txs.id_run(), block.sealer)
        header += _u64(block.nonce)
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


def extends(block: Block, height: int, tip_hash: bytes) -> bool:
    """The one link check: whether `block` is block `height` of a chain whose tip hash is `tip_hash`."""
    return block.prev_hash == tip_hash and block.index == height


def append_block(ledger: Ledger, block: Block) -> None:
    """Extend the chain; rejects forks and bad seals (`validate_chain` checks transactions chain-wide)."""
    if not extends(block, len(ledger.blocks), ledger.tip_hash):
        raise ForkRejectedError(f"block {block.index} does not extend tip at height {len(ledger.blocks)}")
    reason = check_block(block)
    if reason is not None:
        raise SealInvalidError(reason)
    ledger.blocks.append(block)


def first_duplicate(ids, ends: Iterable[int]) -> tuple[int, bytes] | None:
    """The one duplicate check over a chain's id column: `ids` holds its tx ids back to back in
    any buffer, `ends` the row each block ends at. Returns the least index of a block holding a
    later copy of an id, with that id, or None. It sorts each id's first 8 bytes as a u64 key and
    confirms the rows whose key repeats against their full ids, in chain order, so ids that share
    a key are not a duplicate. It takes about 10 B a tx while it runs, and keeps none."""
    column = np.frombuffer(ids, ">u8")[::4]  # each id's key, read in place
    keys = column.astype(np.uint64)
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]
    del keys
    seen = set()
    for row in np.flatnonzero(np.isin(column, repeated)).tolist():  # in chain order
        tx_id = bytes(ids[32 * row : 32 * row + 32])
        if tx_id in seen:
            return bisect_right(array("Q", ends), row), tx_id
        seen.add(tx_id)
    return None


def first_bad_block(blocks: Iterable[Block | None]) -> int | None:
    """The one chain walk: the least index of a block that fails `check_tx`, `extends`, `check_block`
    or `first_duplicate`, else None. A None block is one `block_from_dict` could not build, which
    fails `check_tx`. It keeps the tip and the id column, 32 B a tx, and draws every block."""
    tip, bad, ids, ends = ZERO_HASH, None, bytearray(), array("Q")
    for i, block in enumerate(blocks):
        passes = bad is None and block is not None and all(check_tx(tx) is None for tx in block.tx_list)
        if passes and extends(block, i, tip) and check_block(block) is None:
            tip = block.hash
            ids += block.tx_list.id_run()
            ends.append(len(ids) // 32)
        elif bad is None:
            bad = i
    dup = first_duplicate(ids, ends)  # over the blocks before `bad` only, so a duplicate is the lesser index
    return bad if dup is None else dup[0]


def validate_chain(ledger: Ledger) -> tuple[bool, int | None]:
    """Returns (ok, first bad index or None) from `first_bad_block`; an empty chain is bad at 0."""
    bad = first_bad_block(ledger.blocks) if ledger.blocks else 0
    return bad is None, bad


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


def block_from_dict(doc: dict) -> Block | None:
    """The block of a JSON form, raising on a malformed one; None where `TxBatch.of` refuses
    a transaction's value, which `check_tx` refuses too, so that block is invalid."""
    fields = dict(
        index=_field(doc, "index", int),
        timestamp=_field(doc, "timestamp", int),
        prev_hash=bytes.fromhex(doc["prev_hash"]),
        tx_list=[tx_from_display(t) for t in doc["txs"]],
        nonce=_field(doc, "nonce", int),
        sealer=Sealer(
            kind=_field(doc["sealer"], "kind", str),
            difficulty=_field(doc["sealer"], "difficulty", int),
            validator=_field(doc["sealer"], "validator", str),
        ),
        hash=bytes.fromhex(doc["hash"]),
    )
    try:
        return Block(**fields)
    except ValueError:
        return None


def _hex_stream(cols: TxColumns, lo: int, hi: int):
    """Rows lo..hi of a store as `TxBatch.rows(hexed=True)` gives them, hexed _HEX_CHUNK rows at a time."""
    chunks = (TxBatch(cols, a, min(a + _HEX_CHUNK, hi)).rows(hexed=True) for a in range(lo, hi, _HEX_CHUNK))
    return chain.from_iterable(chunks)


def ledger_lines(ledger: Ledger):
    """Yield the ledger export, one newline-terminated line per block.

    Each line is the block's JSON form as `json.dumps(..., sort_keys=True)`
    writes it: keys in sorted order, `", "` and `": "` separators, bytes as
    lowercase hex, and strings escaped to ASCII by the escaper it uses.
    Each distinct string is escaped once per call: `get(s) or esc(s)` reads
    the cache first, and an escaped string is never empty, so never false.
    Blocks whose txs sit back to back in one store, as the engine's do,
    share one stream of hex rows (`_hex_stream`).
    """
    cache: dict[str, str] = {}
    get = cache.get

    def esc(text: str) -> str:
        out = cache[text] = encode_basestring_ascii(text)
        return out

    cols, at, end = None, 0, 0  # the stream holds rows at..end of cols
    for b in ledger.blocks:
        s, t = b.sealer, b.tx_list
        if t.cols is not cols or t.lo != at or t.hi > end:
            cols, at, end = t.cols, t.lo, len(t.cols)
            rows = _hex_stream(cols, at, end)
        at = t.hi
        txs = ", ".join(
            [
                f'{{"checksum": "{c}", "destination": {get(d) or esc(d)}, '
                f'"payload_hex": "{p}", "sensor_id": {get(sid) or esc(sid)}, '
                f'"timestamp": {ts:d}, "tx_id": "{i}"}}'
                for i, sid, d, ts, p, c in islice(rows, len(t))
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
    chunk` copies the whole text on every append. A tracer such as cProfile
    or coverage disables the in-place append too, so each `+=` copies the
    text: an 8.7 MB export took 6.3 s under cProfile against 0.07 s untraced.
    `tests/test_blockchain.py::test_export_ledger_peak_stays_near_its_length`
    guards this.
    """
    text = ""
    for line in ledger_lines(ledger):
        text += line
    return text


def text_lines(text: str):
    """Each line of `text` with its newline, copied one at a time (`text.splitlines()` copies all at once)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def load_ledger(text: str) -> Ledger:
    """One block per non-blank line of `text` (see `text_lines`), or None (see `block_from_dict`)."""
    return Ledger(blocks=[block_from_dict(json.loads(line)) for line in text_lines(text) if line.strip()])
