#!/usr/bin/env python3
"""Walkthrough: sensor readings become transactions and get mined into the
hash chain, an unknown sensor's readings wait and age out, and any
tampering is caught afterwards.

Run:  python demos/03_transaction_ledger_pipeline.py
"""

import json

from distb import blockchain as bc
from distb.calibration import load_default
from distb.config import ScenarioConfig
from distb.simulator import run_raw

ledger = bc.Ledger()

bc.append_block(ledger, bc.mine_block([], bc.ZERO_HASH, 8, 0, 0))
print(f"genesis sealed: nonce={ledger.blocks[0].nonce} hash={ledger.blocks[0].hash.hex()[:16]}...")

# Well-formed readings. Transactions are built from (sensor, payload,
# timestamp) rows.
tx, tx2 = bc.make_transactions([("s-01", b'{"temp": 21.4}', 100), ("s-02", b'{"temp": 19.8}', 120)], "bs")
print("\ndisplay form:", json.dumps(bc.tx_display_dict(tx), indent=2)[:180], "...")

# In a run, a reading from a sensor the registry does not know is parked in
# the waiting room. Nothing registers a sensor mid-run, so it can only age
# out: at the first sweep (every second) t_pending_ms or more after it.
cfg = ScenarioConfig(node_count=6, sim_time_ms=5000, seed=3, unregistered_fraction=0.5, t_pending_ms=2000)
c = run_raw(cfg).counters
print(
    f"half the sensors unknown -> parked={c['parked_txs']} expired={c['expired_txs']} "
    f"pending at end={c['pending_at_end']} committed={c['committed_txs']}"
)

# A transaction from outside the engine gets the integrity check first, as
# every transaction of a ledger export does in `distb validate-chain`.
# Tampered payload with a stale checksum: rejected outright.
forged = bc.Transaction(
    tx_id=tx.tx_id, sensor_id=tx.sensor_id, destination=tx.destination,
    timestamp=tx.timestamp, payload=b'{"temp": 99.9}', checksum=tx.checksum,
)
print("tampered payload   -> rejected:", bc.check_tx(forged))

# Mine both readings onto the chain.
block = bc.mine_block([tx, tx2], ledger.tip_hash, 8, now=6000, index=1)
bc.append_block(ledger, block)
print(f"\nblock 1 mined: nonce={block.nonce} txs={len(block.tx_list)} hash={block.hash.hex()[:16]}...")
print("chain valid:", bc.validate_chain(ledger))

# Flip one byte anywhere and validation names the first bad block.
export = bc.export_ledger(ledger)
lines = export.splitlines()
doc = json.loads(lines[1])
doc["txs"][0]["payload_hex"] = "00" + doc["txs"][0]["payload_hex"][2:]
lines[1] = json.dumps(doc, sort_keys=True)
ok, bad = bc.validate_chain(bc.load_ledger("\n".join(lines)))
print(f"after 1-byte tamper: valid={ok} first_bad_index={bad}")

# Stake-weighted sealing as the alternative consensus.
counts = {"A": 0, "B": 0}
for seed in range(1000):
    counts[bc.select_validator({"A": 3.0, "B": 1.0}, seed)] += 1
print(f"\nstake 3:1 over 1000 seeded draws -> {counts}")
calib = load_default()
print("gas for batches of 3 and 24:", [bc.gas_for(n, calib.gas_base, calib.gas_per_tx) for n in (3, 24)])
