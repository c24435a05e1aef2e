"""distb: deterministic simulator for a blockchain-backed SDN-IoT network.

Library layout mirrors the subsystems: `topology` (world and energy model),
`clustering` (head election and rounds), `sdn` (the drop table and
blocking), `blockchain` (transactions, chain, gas), `simulator` (the link
stage's passes, the ledger stage and the metric batteries), `calibration`
(table fits), and `cli` (the `distb` command).
"""

from .blockchain import (
    Block,
    Ledger,
    Transaction,
    append_block,
    check_tx,
    gas_for,
    make_transactions,
    mine_block,
    select_validator,
    validate_chain,
)
from .calibration import Calibration, load_default, load_reference_tables
from .clustering import Geometry, elect
from .config import AttackConfig, ConsensusConfig, ScenarioConfig, parse_config
from .errors import (
    ConfigError,
    DistbError,
    DuplicateTransactionError,
    EmptyBlockError,
    ExhaustedNetworkError,
    ForkRejectedError,
    SealInvalidError,
)
from .sdn import FlowTable, block_flow, match_packet
from .simulator import (
    MetricsBundle,
    bundle_from_raw,
    generate_traffic,
    inject_attack,
    measure_bandwidth_under_attack,
    measure_cpu_flooding,
    measure_gas,
    measure_response_time,
    measure_throughput,
    recalibrate,
    run_raw,
)
from .topology import BaseStation, Node, NodeSet, Point3, generate_topology

__version__ = "0.1.0"
