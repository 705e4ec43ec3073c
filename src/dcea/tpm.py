"""TPM model shared by discrete parts and guest-facing virtual instances.

A TpmState is a value: every operation returns an updated copy, so worlds
can hold many snapshots of one device without aliasing bugs. The model keeps
the pieces the protocol actually exercises:

* a 24-register SHA-384 PCR bank, zeroed at boot;
* an append-only event log whose replay reproduces the bank, holding the
  very entries folded in (a mirror shares the entries of its source log);
* an endorsement key with a claims certificate from its provisioner;
* attestation keys sealed to a snapshot of selected PCR values, so a quote
  is only produced while those registers still hold the sealed values
  (TPM policy sessions reduced to exact digest equality).

Quotes sign ``(selected indices, their digests, nonce)`` with the canonical
encoding documented in :mod:`dcea.crypto`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import crypto
from .crypto import Certificate, Digest, KeyKind, KeyPair
from .errors import (
    EmptyPolicy,
    InvalidEntry,
    InvalidPcrIndex,
    PolicyViolation,
    UnknownAk,
)

N_PCRS = 24
N_RTMRS = 4
# the launch anchors: the host's launch environment and the stack it hosts
# (see ``dcea.platform``), the registers a serving TPM's AK is sealed to
ANCHOR_PCRS = (17, 18)

QUOTE_DOMAIN_TAG = "dcea-quote-v1"
_QUOTE_TAG = crypto.enc_str(QUOTE_DOMAIN_TAG)


class Scope(str, Enum):
    """Who produced an event log entry: the host stack or the guest."""

    HOST = "host"
    GUEST = "guest"


class TpmKind(str, Enum):
    DISCRETE = "discrete"
    VIRTUAL = "virtual"


@dataclass(frozen=True)
class EventLogEntry:
    """One measurement event.

    Host entries target a PCR only. Guest entries mirror into both views:
    ``rtmr_index`` names the runtime register and ``pcr_index`` the PCR the
    same event lands in. The immutable guest firmware event carries
    ``pcr_index=0`` with no RTMR (it is reflected in MRTD instead), and
    events aimed at the reserved RTMR 3 carry no PCR mirror.
    """

    pcr_index: Optional[int]
    event_digest: Digest
    description: str
    scope: Scope = Scope.HOST
    rtmr_index: Optional[int] = None

    def __post_init__(self):
        if self.pcr_index is not None and not 0 <= self.pcr_index < N_PCRS:
            raise InvalidEntry(f"pcr index {self.pcr_index} out of range")
        if self.rtmr_index is not None and not 0 <= self.rtmr_index < N_RTMRS:
            raise InvalidEntry(f"rtmr index {self.rtmr_index} out of range")
        if self.pcr_index is None and self.rtmr_index is None:
            raise InvalidEntry("entry must target a PCR, an RTMR, or both")


@dataclass(frozen=True)
class PcrBank:
    registers: Tuple[Digest, ...]

    def value(self, index: int) -> Digest:
        if not 0 <= index < N_PCRS:
            raise InvalidPcrIndex(f"pcr index {index} out of range")
        return self.registers[index]


@dataclass(frozen=True)
class SealedAk:
    """Attestation key, the PCR snapshot its use is sealed to, and the
    certificate the device's EK issued for it."""

    keypair: KeyPair
    policy: Tuple[Tuple[int, Digest], ...]
    ak_cert: Certificate


@dataclass(frozen=True)
class TpmQuote:
    """Signed statement over selected PCR values and a caller nonce."""

    selection: Tuple[int, ...]
    values: Tuple[Tuple[int, Digest], ...]
    nonce: bytes
    ak_public: bytes
    signature: bytes
    algorithm: str = crypto.SIGNATURE_ALGORITHM

    def values_dict(self) -> Dict[int, Digest]:
        return dict(self.values)


@dataclass(frozen=True)
class TpmState:
    pcrs: PcrBank
    log: Tuple[EventLogEntry, ...]
    ek: KeyPair
    ek_cert: Certificate
    aks: Mapping[str, SealedAk] = field(default_factory=dict)
    kind: TpmKind = TpmKind.DISCRETE


def tpm_init(
    ek_seed: bytes,
    issuer: KeyPair,
    claims: Mapping[str, str],
    kind: TpmKind = TpmKind.DISCRETE,
) -> TpmState:
    """Fresh device: zeroed bank, empty log, endorsement key certified by issuer."""
    ek = crypto.keygen(ek_seed, KeyKind.EK)
    ek_cert = crypto.issue_cert(issuer, ek.public, claims)
    bank = PcrBank((crypto.ZERO_DIGEST,) * N_PCRS)
    return TpmState(pcrs=bank, log=(), ek=ek, ek_cert=ek_cert, aks={}, kind=kind)


def pcr_extend_digest(tpm: TpmState, *entries: EventLogEntry) -> TpmState:
    """Fold entries, in order, into their PCRs and append those same entries
    to the log, building the new state once. An entry that names no PCR
    raises before anything is folded."""
    steps = []
    for entry in entries:
        if entry.pcr_index is None:
            raise InvalidEntry(f"entry {entry.description!r} names no PCR to extend")
        steps.append((entry.pcr_index, entry.event_digest))
    bank = PcrBank(crypto.extend_registers(tpm.pcrs.registers, steps))
    return TpmState(bank, tpm.log + entries, tpm.ek, tpm.ek_cert, tpm.aks, tpm.kind)


def create_sealed_ak(
    tpm: TpmState,
    seed: bytes,
    policy_pcrs: Iterable[int],
    cert_claims: Optional[Mapping[str, str]] = None,
) -> Tuple[TpmState, str]:
    """Provision an AK sealed to the current values of the given registers.

    The device's own EK certifies the new key (in-TPM key certification),
    so the AK certificate chains through the EK certificate to the
    device's provisioner; C2 accepts a quote only through that chain.
    """
    indices = sorted(set(policy_pcrs))
    if not indices:
        raise EmptyPolicy("sealing requires at least one PCR index")
    policy = tuple((idx, tpm.pcrs.value(idx)) for idx in indices)
    keypair = crypto.keygen(seed, KeyKind.AK)
    claims = {"role": "ak", "tpm_kind": tpm.kind.value, **(cert_claims or {})}
    ak_cert = crypto.issue_cert(tpm.ek, keypair.public, claims)
    handle = f"ak-{len(tpm.aks) + 1}"
    sealed = SealedAk(keypair=keypair, policy=policy, ak_cert=ak_cert)
    return install_sealed_ak(tpm, handle, sealed), handle


def install_sealed_ak(tpm: TpmState, handle: str, sealed: SealedAk) -> TpmState:
    """Load an existing sealed blob into a device, e.g. after a reboot.

    The policy snapshot travels with the blob, so a stack that measures
    differently cannot quote with it.
    """
    return replace(tpm, aks={**tpm.aks, handle: sealed})


def default_ak_handle(tpm: TpmState) -> str:
    """Handle of the sole provisioned AK; most simulated devices hold one."""
    if len(tpm.aks) != 1:
        raise UnknownAk(f"expected exactly one AK, device holds {len(tpm.aks)}")
    return next(iter(tpm.aks))


def quote_signing_payload(values: Sequence[Tuple[int, Digest]], nonce: bytes) -> bytes:
    enc_len = crypto.enc_len
    parts = [_QUOTE_TAG, enc_len(len(values))]
    for idx, value in values:
        parts += (enc_len(idx), crypto.DIGEST_PREFIX, value.data)
    parts += (enc_len(len(nonce)), nonce)
    return b"".join(parts)


def tpm_quote(
    tpm: TpmState, handle: str, selection: Iterable[int], nonce: bytes
) -> TpmQuote:
    """Produce a signed quote, gated on the AK's sealed policy.

    Raises PolicyViolation when any policy register has moved since sealing;
    this is the enforcement point that strands attestation keys after a
    stack mutation.
    """
    sealed = tpm.aks.get(handle)
    if sealed is None:
        raise UnknownAk(f"no AK under handle {handle!r}")
    for idx, expected in sealed.policy:
        current = tpm.pcrs.value(idx)
        if current != expected:
            raise PolicyViolation(
                f"pcr {idx} = {current.hex()[:12]}.. diverges from sealed policy"
            )
    indices = sorted(set(selection))
    values = tuple((idx, tpm.pcrs.value(idx)) for idx in indices)
    signature = crypto.sign(sealed.keypair, quote_signing_payload(values, nonce))
    return TpmQuote(
        selection=tuple(indices),
        values=values,
        nonce=nonce,
        ak_public=sealed.keypair.public,
        signature=signature,
    )


def verify_quote_signature(quote: TpmQuote) -> bool:
    """Check the quote's signature against its own carried AK public key."""
    payload = quote_signing_payload(quote.values, quote.nonce)
    return crypto.verify(quote.ak_public, payload, quote.signature)


def read_pcrs(tpm: TpmState, selection: Iterable[int]) -> Dict[int, Digest]:
    return {idx: tpm.pcrs.value(idx) for idx in selection}
