"""The block-by-block chain walk, longhand, for differential tests.

`reference_validate_chain` checks each block's transactions, then appends
the block to a fresh chain of its own, whose append refuses a fork, a bad
seal, and a tx id already on the chain or carried twice, by a Python set
of full ids. The first block refused is the first bad index.
`blockchain.validate_chain`, which checks links and seals a block at a time
and duplicates once over the whole id column, must return the same
`(ok, index)`. It shares only the transaction and seal checks with the
code under test.

Beside it sit the longhand oracles other tests share: `block_header_bytes`
builds a header from the layout in `blockchain`'s module docstring,
`leading_zero_bits` reads a hash's leading zero bits off its integer value,
and `load_ledger` parses a whole export in memory, where `distb
validate-chain` streams it.
"""

from __future__ import annotations

import json

from distb import blockchain as bc
from distb.errors import DuplicateTransactionError, ForkRejectedError, SealInvalidError


class ReferenceChain:
    """An append-only chain that keeps every committed tx id in a set."""

    def __init__(self):
        self.blocks: list[bc.Block] = []
        self.ids: set[bytes] = set()

    def append(self, block: bc.Block) -> None:
        tip = self.blocks[-1].hash if self.blocks else bc.ZERO_HASH
        if block.prev_hash != tip or block.index != len(self.blocks):
            raise ForkRejectedError(f"block {block.index} does not extend tip at height {len(self.blocks)}")
        reason = bc.check_block(block)
        if reason is not None:
            raise SealInvalidError(reason)
        ids = [tx.tx_id for tx in block.tx_list]
        if not self.ids.isdisjoint(ids) or len(set(ids)) != len(ids):
            raise DuplicateTransactionError(f"block {block.index} carries a tx already on the chain or twice")
        self.blocks.append(block)
        self.ids.update(ids)


def reference_validate_chain(ledger: bc.Ledger) -> tuple[bool, int | None]:
    if not ledger.blocks:
        return False, 0
    chain = ReferenceChain()
    for i, block in enumerate(ledger.blocks):
        if block is None or any(bc.check_tx(tx) is not None for tx in block.tx_list):
            return False, i
        try:
            chain.append(block)
        except (ForkRejectedError, SealInvalidError, DuplicateTransactionError):
            return False, i
    return True, None


def reference_first_duplicate(ids: bytes, ends: list[int]) -> tuple[int, bytes] | None:
    """The first block, in chain order, that holds a tx id seen before, with that id."""
    seen: set[bytes] = set()
    start = 0
    for index, end in enumerate(ends):
        for row in range(start, end):
            tx_id = ids[32 * row : 32 * row + 32]
            if tx_id in seen:
                return index, tx_id
            seen.add(tx_id)
        start = end
    return None


def _u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


def _str(s: str) -> bytes:
    b = s.encode("utf-8")
    return _u64(len(b)) + b


def block_header_bytes(index: int, timestamp: int, prev_hash: bytes, tx_ids, sealer: bc.Sealer, nonce: int) -> bytes:
    """The whole block header, field by field, as `blockchain`'s module docstring lays it out."""
    seal = _u64(sealer.difficulty) if sealer.kind == "pow" else _str(sealer.validator)
    fields = (_u64(index), _u64(timestamp), prev_hash, _u64(len(tx_ids)), *tx_ids, _str(sealer.kind), seal, _u64(nonce))
    return b"".join(fields)


def leading_zero_bits(data: bytes) -> int:
    return len(data) * 8 - int.from_bytes(data, "big").bit_length()


def load_ledger(text: str) -> bc.Ledger:
    """One block per non-blank line of a ledger export, or None where `block_from_dict` gives None."""
    return bc.Ledger(blocks=[bc.block_from_dict(json.loads(line)) for line in text.split("\n") if line.strip()])
