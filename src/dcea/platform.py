"""Host platform: measured launch of the software stack under a boot TPM.

The launch records two chains into the platform's own TPM:

* static chain: the host firmware into PCR 0, then the platform events of
  ``STATIC_EVENTS`` into PCRs 1..7;
* dynamic chain: the launch environment (ACM, then the TDX loader) into
  PCR 17, and the stack that hosts confidential guests (kernel, hypervisor,
  vTPM binary) into PCR 18.

PCR 17/18 (``tpm.ANCHOR_PCRS``) are the anchors everything leans on: the
guest-facing TPM of :func:`instantiate_vtpm` appends the host's entries for
them and seals its attestation key to their values, so the key stops quoting
the moment the launched stack differs from the one it was provisioned for.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from . import crypto, tpm as tpm_mod
from .crypto import KeyPair
from .errors import DoubleLaunch
from .tpm import EventLogEntry, TpmKind, TpmState

PCR_FIRMWARE = 0
PCR_LAUNCH_ENV, PCR_HOST_STACK = tpm_mod.ANCHOR_PCRS

# (pcr index, payload, description) triples for PCRs 1..7. Real platforms
# differ wildly here; these just keep the static bank non-trivial.
STATIC_EVENTS: Tuple[Tuple[int, bytes, str], ...] = (
    (1, b"board-config", "board config"),
    (4, b"boot-manager", "boot manager"),
    (5, b"partition-table", "partition table"),
    (7, b"secure-boot-policy", "secure boot policy"),
)
# their entries: fixed payloads, so digested once for every launch
_STATIC_ENTRIES = tuple(
    EventLogEntry(idx, crypto.digest(payload), desc) for idx, payload, desc in STATIC_EVENTS
)


@dataclass(frozen=True)
class HostStack:
    """The six images whose digests define a platform launch."""

    firmware_image: bytes
    acm_image: bytes
    seamldr_image: bytes
    kernel_image: bytes
    hypervisor_image: bytes
    vtpm_binary: bytes

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"stack image {f.name} must be non-empty")


@dataclass(frozen=True)
class Platform:
    id: str
    tpm: TpmState


def measured_launch(
    stack: HostStack, tpm: TpmState, platform_id: Optional[str] = None
) -> Platform:
    """Boot a platform, measuring the stack into its TPM: one launch plan
    of entries, folded in one ``tpm.pcr_extend_digest`` call.

    Pure in the stack: the same inputs produce the same measurement state.
    Raises DoubleLaunch when the TPM already carries a launch (non-zero
    PCR 17).
    """
    if tpm.pcrs.value(PCR_LAUNCH_ENV) != crypto.ZERO_DIGEST:
        raise DoubleLaunch("tpm already recorded a measured launch")

    def entry(idx, image, desc):
        return EventLogEntry(idx, crypto.digest(image), desc)

    # the firmware, the static chain, then the PCR 17 and PCR 18 chains
    state = tpm_mod.pcr_extend_digest(
        tpm,
        entry(PCR_FIRMWARE, stack.firmware_image, "host firmware"),
        *_STATIC_ENTRIES,
        entry(PCR_LAUNCH_ENV, stack.acm_image, "acm"),
        entry(PCR_LAUNCH_ENV, stack.seamldr_image, "seamldr"),
        entry(PCR_HOST_STACK, stack.kernel_image, "kernel"),
        entry(PCR_HOST_STACK, stack.hypervisor_image, "hypervisor"),
        entry(PCR_HOST_STACK, stack.vtpm_binary, "vtpm binary"),
    )

    claims = state.ek_cert.claims_dict()
    pid = platform_id or claims.get("platform_id") or f"plat-{crypto.key_id(state.ek.public)[:8]}"
    return Platform(id=pid, tpm=state)


def instantiate_vtpm(
    platform: Platform,
    provider_ca: KeyPair,
    vtpm_seed: bytes,
    kind: TpmKind = TpmKind.VIRTUAL,
) -> TpmState:
    """Create the guest-facing TPM for a launched platform.

    The new instance appends the host's own PCR 17/18 log entries, then seals
    a fresh AK to a snapshot of those mirrored values and certifies it with
    its own EK. The AK therefore inherits the host launch state: quoting
    works exactly while the mirrored anchors match what was sealed.
    """
    claims = platform.tpm.ek_cert.claims_dict()
    claims.update({"platform_id": platform.id, "tpm_kind": kind.value})
    vtpm = tpm_mod.tpm_init(
        crypto.digest(b"vtpm-ek:" + vtpm_seed).data, provider_ca, claims, kind=kind
    )
    vtpm = tpm_mod.pcr_extend_digest(vtpm, *[
        entry for entry in platform.tpm.log if entry.pcr_index in tpm_mod.ANCHOR_PCRS
    ])
    vtpm, _handle = tpm_mod.create_sealed_ak(
        vtpm,
        crypto.digest(b"vtpm-ak:" + vtpm_seed).data,
        tpm_mod.ANCHOR_PCRS,
        cert_claims={"platform_id": platform.id},
    )
    return vtpm
