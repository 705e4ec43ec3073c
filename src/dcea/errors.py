"""Exception taxonomy shared across the simulator.

Every error raised by the package derives from DceaError so callers (the
CLI in particular) can distinguish domain failures from programming bugs.
"""

from __future__ import annotations


class DceaError(Exception):
    """Base class for all simulator errors."""


# -- crypto ------------------------------------------------------------------

class InvalidSeed(DceaError):
    """Key derivation was given an empty or unusable seed."""


class InvalidKey(DceaError):
    """A key blob has the wrong shape for the declared algorithm."""


class EmptyChain(DceaError):
    """Certificate chain verification was handed zero certificates."""


# -- tpm ---------------------------------------------------------------------

class InvalidPcrIndex(DceaError):
    """PCR index outside the 24-register bank."""


class EmptyPolicy(DceaError):
    """AK creation asked to seal against an empty PCR selection."""


class PolicyViolation(DceaError):
    """Quote refused: current PCR values do not match the sealed policy."""


class UnknownAk(DceaError):
    """Quote requested under a handle the TPM does not hold."""


# -- platform ----------------------------------------------------------------

class DoubleLaunch(DceaError):
    """Measured launch attempted on a TPM that already recorded one."""


# -- td ----------------------------------------------------------------------

class BadReportData(DceaError):
    """report_data is not exactly 64 bytes."""


# -- evidence ----------------------------------------------------------------

class IncompleteBundle(DceaError):
    """Bundle assembly is missing a mandatory component."""


class InvalidEntry(DceaError):
    """Event log entry with out-of-range register targets."""


class ParseError(DceaError):
    """Bundle deserialization failed.

    ``offset`` is the byte offset where decoding gave up, 0 when the
    failure is structural (schema-level) rather than lexical.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


# -- adversary ---------------------------------------------------------------

class WorldError(DceaError):
    """World construction or use violated an invariant."""


class UnknownScenario(DceaError):
    """Scenario id not in the registry."""
