"""Exception hierarchy shared across the package.

Plain argument misuse (negative cost, non-finite coordinate, n=0) raises
ValueError; everything that callers are expected to branch on gets its own
class below.
"""


class DistbError(Exception):
    """Base class for package errors."""


class ConfigError(DistbError):
    """Bad scenario configuration: unknown key, out-of-range value, malformed window."""


class ExhaustedNetworkError(DistbError):
    """Every node in the set is depleted; no further clustering rounds possible."""


class DuplicateTransactionError(DistbError):
    """A tx_id is on the chain twice, or the ledger stage meets a packet whose seq is not above its node's last."""


class EmptyBlockError(DistbError):
    """A non-genesis block was requested with no queued transactions."""


class ForkRejectedError(DistbError):
    """Candidate block does not extend the current tip."""


class SealInvalidError(DistbError):
    """Block hash does not match its header or misses the difficulty target."""
