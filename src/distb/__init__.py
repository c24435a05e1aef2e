"""distb: deterministic simulator for a blockchain-backed SDN-IoT network.

Library layout mirrors the subsystems: `topology` (world and energy model),
`clustering` (head election and rounds), `sdn` (the drop table and
blocking), `blockchain` (transactions, chain, gas), `simulator` (the link
stage's passes, the ledger stage and the metric batteries), `calibration`
(table fits), and `cli` (the `distb` command). The package root exports
nothing but `__version__`: import the submodules.
"""

__version__ = "0.1.0"
