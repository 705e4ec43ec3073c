"""Trust domain (confidential guest) model.

A TD carries the enclave-side measurement registers: MRTD fixes the guest
firmware at launch, RTMR 0..2 accumulate runtime events, RTMR 3 stays
reserved. Every runtime event also names the PCR the same measurement lands
in on the guest-facing TPM, following the register correspondence

    ====================  =================
    TD register           mirrored PCRs
    ====================  =================
    MRTD                  0
    RTMR 0                1, 7
    RTMR 1                2, 3, 4, 5
    RTMR 2                8 .. 15
    RTMR 3 (reserved)     none
    ====================  =================

so one stream of guest ``EventLogEntry`` values, held as-is by both the guest
log and the TPM log, drives both views and a verifier can replay it against
either side.

The launch-time binding lives in MRCONFIGID: the host passes the public
attestation key of the TPM serving this TD and the TD records its digest.
Reports are signed by the platform's quoting enclave key and carry its
certificate chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from . import crypto
from .crypto import CertChain, Digest, KeyPair
from .errors import BadReportData, InvalidEntry, InvalidKey
from .platform import Platform
from .tpm import N_RTMRS, EventLogEntry, Scope

REPORT_DATA_LEN = 64
MRTD_PCR = 0

# RTMR index -> PCRs its events may mirror into.
RTMR_PCR_MAP: Dict[int, Tuple[int, ...]] = {
    0: (1, 7),
    1: (2, 3, 4, 5),
    2: tuple(range(8, 16)),
    3: (),
}

REPORT_DOMAIN_TAG = "dcea-td-report-v1"
_REPORT_TAG = crypto.enc_str(REPORT_DOMAIN_TAG)

# owner and TDX-module measurements every simulated report carries
MROWNER = crypto.digest(b"tenant").data
MRSEAM = crypto.digest(b"seam-module").data


@dataclass(frozen=True)
class TdState:
    mrtd: Digest
    rtmrs: Tuple[Digest, ...]
    mrconfigid: bytes
    guest_log: Tuple[EventLogEntry, ...]
    ppid: str


@dataclass(frozen=True)
class TdReport:
    """Snapshot of TD state signed by the platform's quoting enclave."""

    mrtd: Digest
    rtmrs: Tuple[Digest, ...]
    mrconfigid: bytes
    mrowner: bytes
    mrownerconfig: bytes
    report_data: bytes
    tee_tcb_svn: bytes
    mrseam: bytes
    seam_attributes: bytes
    td_attributes: bytes
    ppid: str
    qe_signature: bytes
    qe_chain: CertChain


def td_launch(platform: Platform, firmware: bytes, ak_pub: Optional[bytes]) -> TdState:
    """Start a TD on a launched platform.

    MRTD is the digest of the guest firmware; MRCONFIGID binds the digest
    of the serving TPM's public AK (zeroed when the host passes none, which
    a verifier running the binding check will refuse). The guest log opens
    with the firmware event so replaying it reproduces MRTD and the PCR 0
    mirror.
    """
    mrtd = crypto.digest(firmware)
    mrconfigid = crypto.digest(ak_pub).data if ak_pub is not None else b"\x00" * 48
    launch_entry = EventLogEntry(
        pcr_index=MRTD_PCR,
        event_digest=mrtd,
        description="td firmware",
        scope=Scope.GUEST,
        rtmr_index=None,
    )
    return TdState(
        mrtd=mrtd,
        rtmrs=(crypto.ZERO_DIGEST,) * N_RTMRS,
        mrconfigid=mrconfigid,
        guest_log=(launch_entry,),
        ppid="ppid-" + crypto.digest(b"ppid:" + platform.id.encode()).hex()[:24],
    )


def rtmr_extend(td: TdState, *entries: EventLogEntry) -> TdState:
    """Fold guest runtime entries, in order, into their RTMRs and append those
    same entries to the guest log, building the new state once. Each entry
    must name an RTMR and the PCR that register mirrors into (no PCR for
    reserved RTMR 3), per ``RTMR_PCR_MAP``; a bad one raises before anything
    is folded."""
    steps = []
    for entry in entries:
        if entry.scope is not Scope.GUEST or entry.rtmr_index is None:
            raise InvalidEntry("a runtime event is a guest entry that names an RTMR")
        allowed = RTMR_PCR_MAP[entry.rtmr_index]
        if entry.pcr_index not in (allowed or (None,)):
            raise InvalidEntry(
                f"rtmr {entry.rtmr_index} events mirror into PCRs {allowed}, got {entry.pcr_index}"
            )
        steps.append((entry.rtmr_index, entry.event_digest))
    rtmrs = crypto.extend_registers(td.rtmrs, steps)
    return TdState(td.mrtd, rtmrs, td.mrconfigid, td.guest_log + entries, td.ppid)


def report_signing_payload(report: TdReport) -> bytes:
    enc_len = crypto.enc_len
    ppid = report.ppid.encode("utf-8", "surrogatepass")
    parts = [_REPORT_TAG, crypto.DIGEST_PREFIX, report.mrtd.data, enc_len(len(report.rtmrs))]
    for rtmr in report.rtmrs:
        parts += (crypto.DIGEST_PREFIX, rtmr.data)
    for blob in (
        report.mrconfigid,
        report.mrowner,
        report.mrownerconfig,
        report.report_data,
        report.tee_tcb_svn,
        report.mrseam,
        report.seam_attributes,
        report.td_attributes,
        ppid,
    ):
        parts += (enc_len(len(blob)), blob)
    return b"".join(parts)


def td_report(td: TdState, report_data: bytes, qe: KeyPair, qe_chain: CertChain) -> TdReport:
    """Produce a signed report over the TD's current registers.

    report_data is caller-controlled and exactly 64 bytes; the protocol
    packs the verifier nonce (and optionally the AK binding) into it.
    """
    if len(report_data) != REPORT_DATA_LEN:
        raise BadReportData(
            f"report_data must be {REPORT_DATA_LEN} bytes, got {len(report_data)}"
        )
    unsigned = TdReport(
        mrtd=td.mrtd,
        rtmrs=td.rtmrs,
        mrconfigid=td.mrconfigid,
        mrowner=MROWNER,
        mrownerconfig=b"\x00" * 48,
        report_data=report_data,
        tee_tcb_svn=b"\x03" * 16,
        mrseam=MRSEAM,
        seam_attributes=b"\x00" * 8,
        td_attributes=b"\x00" * 8,
        ppid=td.ppid,
        qe_signature=b"",
        qe_chain=qe_chain,
    )
    signature = crypto.sign(qe, report_signing_payload(unsigned))
    return replace(unsigned, qe_signature=signature)


def verify_td_report_signature(report: TdReport) -> bool:
    """Check the report signature under the leaf key of its carried chain."""
    if not report.qe_chain:
        return False
    payload = report_signing_payload(report)
    try:
        return crypto.verify(report.qe_chain[0].subject_public, payload, report.qe_signature)
    except InvalidKey:
        return False
