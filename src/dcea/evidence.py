"""Evidence bundles: assembly, canonical JSON serialization, log replay,
and the register-consistency check between the two attestation views.

Wire format (``*.dcea.json``): one canonical JSON object, keys sorted
alphabetically at every level, byte fields hex-encoded, no whitespace.
``format_version`` gates future schema changes. The full field-by-field
layout is documented in the README and mirrored by the codec functions
here; ``serialize(deserialize(x)) == x`` for every well-formed input.

report_data layout (64 bytes):

* bytes 0..31: the verifier's TD nonce for this challenge;
* bytes 32..63: the binding tail. Zero by default; when the deployment
  binds the attestation key through report_data instead of MRCONFIGID it
  holds the first 32 bytes of SHA384(ak_public); when the in-TD
  consistency mode is enabled (MRCONFIGID binding only) byte 32 carries
  the one-bit outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from . import crypto
from .crypto import CertChain, Certificate, Digest
from .errors import IncompleteBundle, InvalidEntry, ParseError
from .td import REPORT_DATA_LEN, RTMR_PCR_MAP, TdReport
from .tpm import N_PCRS, N_RTMRS, EventLogEntry, Scope, TpmQuote

FORMAT_VERSION = 1

RD_NONCE = slice(0, 32)
RD_TAIL = slice(32, 64)

NONCE_LEN = 32


def encode_report_data(
    td_nonce: bytes,
    binding: Optional[bytes] = None,
    consistency_bit: Optional[bool] = None,
) -> bytes:
    """Pack the 64-byte report_data field; see the module docstring."""
    if len(td_nonce) != NONCE_LEN:
        raise ValueError(f"td nonce must be {NONCE_LEN} bytes")
    if binding is not None and consistency_bit is not None:
        raise ValueError("binding tail and consistency bit are mutually exclusive")
    tail = b"\x00" * 32
    if binding is not None:
        if len(binding) != 32:
            raise ValueError("binding tail must be 32 bytes")
        tail = binding
    elif consistency_bit is not None:
        tail = bytes([1 if consistency_bit else 0]) + b"\x00" * 31
    return td_nonce + tail


@dataclass(frozen=True)
class Nonces:
    td_nonce: bytes
    tpm_nonce: bytes


@dataclass(frozen=True)
class Timing:
    """Virtual-clock stamps (milliseconds) for one challenge round."""

    challenge_sent: float
    td_received: float
    quote_received: float


@dataclass(frozen=True)
class EvidenceBundle:
    td_report: TdReport
    tpm_quote: TpmQuote
    ek_cert_chain: CertChain
    ak_cert: Optional[Certificate]
    event_log: Tuple[EventLogEntry, ...]
    nonces: Nonces
    timing: Timing
    scenario_meta: Mapping[str, str] = field(default_factory=dict)


def build_bundle(
    td_report: Optional[TdReport],
    tpm_quote: Optional[TpmQuote],
    ek_cert_chain: Optional[CertChain],
    ak_cert: Optional[Certificate] = None,
    event_log: Iterable[EventLogEntry] = (),
    nonces: Optional[Nonces] = None,
    timing: Optional[Timing] = None,
    scenario_meta: Optional[Mapping[str, str]] = None,
) -> EvidenceBundle:
    """Assemble a bundle, refusing when a mandatory component is missing."""
    missing = [
        name
        for name, value in (
            ("td_report", td_report),
            ("tpm_quote", tpm_quote),
            ("ek_cert_chain", ek_cert_chain),
            ("nonces", nonces),
            ("timing", timing),
        )
        if value is None
    ]
    if missing:
        raise IncompleteBundle(f"bundle missing mandatory components: {missing}")
    if not ek_cert_chain.certs:
        raise IncompleteBundle("ek_cert_chain must hold at least one certificate")
    return EvidenceBundle(
        td_report=td_report,
        tpm_quote=tpm_quote,
        ek_cert_chain=ek_cert_chain,
        ak_cert=ak_cert,
        event_log=tuple(event_log),
        nonces=nonces,
        timing=timing,
        scenario_meta=dict(scenario_meta or {}),
    )


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def cert_to_obj(cert: Certificate) -> dict:
    return {
        "subject_public": cert.subject_public.hex(),
        "issuer_id": cert.issuer_id,
        "claims": dict(cert.claims),
        "signature": cert.signature.hex(),
    }


def _chain_obj(chain: CertChain) -> list:
    return [cert_to_obj(c) for c in chain.certs]


def _entry_obj(entry: EventLogEntry) -> dict:
    return {
        "scope": entry.scope.value,
        "pcr_index": entry.pcr_index,
        "rtmr_index": entry.rtmr_index,
        "event_digest": entry.event_digest.hex(),
        "description": entry.description,
    }


def _report_obj(report: TdReport) -> dict:
    return {
        "mrtd": report.mrtd.hex(),
        "rtmrs": [r.hex() for r in report.rtmrs],
        "mrconfigid": report.mrconfigid.hex(),
        "mrowner": report.mrowner.hex(),
        "mrownerconfig": report.mrownerconfig.hex(),
        "report_data": report.report_data.hex(),
        "tee_tcb_svn": report.tee_tcb_svn.hex(),
        "mrseam": report.mrseam.hex(),
        "seam_attributes": report.seam_attributes.hex(),
        "td_attributes": report.td_attributes.hex(),
        "ppid": report.ppid,
        "qe_signature": report.qe_signature.hex(),
        "qe_chain": _chain_obj(report.qe_chain),
    }


def _quote_obj(quote: TpmQuote) -> dict:
    return {
        "selection": list(quote.selection),
        "values": [[idx, value.hex()] for idx, value in quote.values],
        "nonce": quote.nonce.hex(),
        "ak_public": quote.ak_public.hex(),
        "signature": quote.signature.hex(),
        "algorithm": quote.algorithm,
    }


def bundle_to_obj(bundle: EvidenceBundle) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "td_report": _report_obj(bundle.td_report),
        "tpm_quote": _quote_obj(bundle.tpm_quote),
        "ek_cert_chain": _chain_obj(bundle.ek_cert_chain),
        "ak_cert": cert_to_obj(bundle.ak_cert) if bundle.ak_cert else None,
        "event_log": [_entry_obj(e) for e in bundle.event_log],
        "nonces": {
            "td_nonce": bundle.nonces.td_nonce.hex(),
            "tpm_nonce": bundle.nonces.tpm_nonce.hex(),
        },
        "timing": {
            "challenge_sent": bundle.timing.challenge_sent,
            "td_received": bundle.timing.td_received,
            "quote_received": bundle.timing.quote_received,
        },
        "scenario_meta": dict(bundle.scenario_meta),
    }


def serialize(bundle: EvidenceBundle) -> bytes:
    """Canonical bytes: sorted keys, compact separators, UTF-8."""
    return json.dumps(bundle_to_obj(bundle), sort_keys=True, separators=(",", ":")).encode()


# the JSON type each Python type check in Reader.get stands for
_JSON_TYPES = {
    str: "string", (int, float): "number", int: "integer",
    dict: "object", list: "array", bool: "boolean",
}


class Reader:
    """Schema walker that turns any shape violation into ParseError."""

    def __init__(self, root):
        self.root = root

    @staticmethod
    def fail(path: str, why: str):
        raise ParseError(f"{path}: {why}")

    def get(self, obj, path, key, kind=None, optional=False):
        if not isinstance(obj, dict):
            self.fail(path, "expected object")
        if key not in obj:
            if optional:
                return None
            self.fail(path, f"missing field {key!r}")
        value = obj[key]
        if value is None and optional:
            return None
        # JSON true/false decode as bool, a subclass of int: only a bool
        # field takes them
        if kind is not None and (
            not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
        ):
            self.fail(f"{path}.{key}", f"expected {_JSON_TYPES[kind]}")
        return value

    def number(self, obj, path, key) -> float:
        """A finite number field as a float; NaN and infinities fail."""
        try:
            value = float(self.get(obj, path, key, (int, float)))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            self.fail(f"{path}.{key}", "expected a finite number")
        return value

    @staticmethod
    def bytes_field(text, path, width=None):
        if not isinstance(text, str):
            Reader.fail(path, "expected hex string")
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            Reader.fail(path, "invalid hex")
        if width is not None and len(raw) != width:
            Reader.fail(path, f"expected {width} bytes, got {len(raw)}")
        return raw

    @classmethod
    def digest_field(cls, text, path) -> Digest:
        return Digest(cls.bytes_field(text, path, crypto.DIGEST_LEN))


def parse_cert(obj, path, r: Reader) -> Certificate:
    claims = r.get(obj, path, "claims", dict)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in claims.items()):
        r.fail(f"{path}.claims", "claims must map strings to strings")
    return Certificate(
        subject_public=r.bytes_field(r.get(obj, path, "subject_public"), f"{path}.subject_public"),
        issuer_id=r.get(obj, path, "issuer_id", str),
        claims=tuple(sorted(claims.items())),
        signature=r.bytes_field(r.get(obj, path, "signature"), f"{path}.signature"),
    )


def _parse_chain(items, path, r: Reader) -> CertChain:
    if not isinstance(items, list):
        r.fail(path, "expected list of certificates")
    return CertChain(tuple(parse_cert(c, f"{path}[{i}]", r) for i, c in enumerate(items)))


def _parse_entry(obj, path, r: Reader) -> EventLogEntry:
    scope_text = r.get(obj, path, "scope", str)
    try:
        scope = Scope(scope_text)
    except ValueError:
        r.fail(f"{path}.scope", f"unknown scope {scope_text!r}")
    pcr = r.get(obj, path, "pcr_index", int, optional=True)
    rtmr = r.get(obj, path, "rtmr_index", int, optional=True)
    try:
        return EventLogEntry(
            pcr_index=pcr,
            event_digest=r.digest_field(r.get(obj, path, "event_digest"), f"{path}.event_digest"),
            description=r.get(obj, path, "description", str),
            scope=scope,
            rtmr_index=rtmr,
        )
    except InvalidEntry as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_report(obj, path, r: Reader) -> TdReport:
    rtmrs = r.get(obj, path, "rtmrs", list)
    if len(rtmrs) != N_RTMRS:
        r.fail(f"{path}.rtmrs", f"expected {N_RTMRS} registers")
    return TdReport(
        mrtd=r.digest_field(r.get(obj, path, "mrtd"), f"{path}.mrtd"),
        rtmrs=tuple(r.digest_field(t, f"{path}.rtmrs[{i}]") for i, t in enumerate(rtmrs)),
        mrconfigid=r.bytes_field(r.get(obj, path, "mrconfigid"), f"{path}.mrconfigid", 48),
        mrowner=r.bytes_field(r.get(obj, path, "mrowner"), f"{path}.mrowner", 48),
        mrownerconfig=r.bytes_field(
            r.get(obj, path, "mrownerconfig"), f"{path}.mrownerconfig", 48
        ),
        report_data=r.bytes_field(
            r.get(obj, path, "report_data"), f"{path}.report_data", REPORT_DATA_LEN
        ),
        tee_tcb_svn=r.bytes_field(r.get(obj, path, "tee_tcb_svn"), f"{path}.tee_tcb_svn"),
        mrseam=r.bytes_field(r.get(obj, path, "mrseam"), f"{path}.mrseam"),
        seam_attributes=r.bytes_field(
            r.get(obj, path, "seam_attributes"), f"{path}.seam_attributes"
        ),
        td_attributes=r.bytes_field(r.get(obj, path, "td_attributes"), f"{path}.td_attributes"),
        ppid=r.get(obj, path, "ppid", str),
        qe_signature=r.bytes_field(r.get(obj, path, "qe_signature"), f"{path}.qe_signature"),
        qe_chain=_parse_chain(r.get(obj, path, "qe_chain"), f"{path}.qe_chain", r),
    )


def _parse_quote(obj, path, r: Reader) -> TpmQuote:
    selection = r.get(obj, path, "selection", list)
    values = r.get(obj, path, "values", list)
    parsed_values = []
    for i, pair in enumerate(values):
        if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int):
            r.fail(f"{path}.values[{i}]", "expected [index, hex] pair")
        if not 0 <= pair[0] < N_PCRS:
            r.fail(f"{path}.values[{i}]", f"pcr index {pair[0]} out of range")
        parsed_values.append((pair[0], r.digest_field(pair[1], f"{path}.values[{i}]")))
    if not all(type(s) is int and 0 <= s < N_PCRS for s in selection):
        r.fail(f"{path}.selection", "selection must hold pcr indices")
    return TpmQuote(
        selection=tuple(selection),
        values=tuple(parsed_values),
        nonce=r.bytes_field(r.get(obj, path, "nonce"), f"{path}.nonce", NONCE_LEN),
        ak_public=r.bytes_field(r.get(obj, path, "ak_public"), f"{path}.ak_public"),
        signature=r.bytes_field(r.get(obj, path, "signature"), f"{path}.signature"),
        algorithm=r.get(obj, path, "algorithm", str),
    )


def obj_to_bundle(obj) -> EvidenceBundle:
    r = Reader(obj)
    version = r.get(obj, "$", "format_version", int)
    if version != FORMAT_VERSION:
        r.fail("$.format_version", f"unsupported version {version}")
    nonces_obj = r.get(obj, "$", "nonces", dict)
    timing_obj = r.get(obj, "$", "timing", dict)
    meta = r.get(obj, "$", "scenario_meta", dict)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items()):
        r.fail("$.scenario_meta", "must map strings to strings")
    entries = r.get(obj, "$", "event_log", list)
    ak_obj = r.get(obj, "$", "ak_cert", dict, optional=True)

    return EvidenceBundle(
        td_report=_parse_report(r.get(obj, "$", "td_report", dict), "$.td_report", r),
        tpm_quote=_parse_quote(r.get(obj, "$", "tpm_quote", dict), "$.tpm_quote", r),
        ek_cert_chain=_parse_chain(r.get(obj, "$", "ek_cert_chain"), "$.ek_cert_chain", r),
        ak_cert=parse_cert(ak_obj, "$.ak_cert", r) if ak_obj is not None else None,
        event_log=tuple(
            _parse_entry(e, f"$.event_log[{i}]", r) for i, e in enumerate(entries)
        ),
        nonces=Nonces(
            td_nonce=r.bytes_field(
                r.get(nonces_obj, "$.nonces", "td_nonce"), "$.nonces.td_nonce", NONCE_LEN
            ),
            tpm_nonce=r.bytes_field(
                r.get(nonces_obj, "$.nonces", "tpm_nonce"), "$.nonces.tpm_nonce", NONCE_LEN
            ),
        ),
        timing=Timing(
            challenge_sent=r.number(timing_obj, "$.timing", "challenge_sent"),
            td_received=r.number(timing_obj, "$.timing", "td_received"),
            quote_received=r.number(timing_obj, "$.timing", "quote_received"),
        ),
        scenario_meta=dict(meta),
    )


def deserialize(data: bytes) -> EvidenceBundle:
    """Parse canonical bundle bytes; ParseError carries the byte offset for
    lexical failures and 0 for schema-level ones."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", offset=exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("not valid UTF-8", offset=exc.start) from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    return obj_to_bundle(obj)


# ---------------------------------------------------------------------------
# replay and consistency
# ---------------------------------------------------------------------------

def replay_event_log(
    log: Sequence[EventLogEntry], scope: Optional[Scope] = None
) -> Tuple[Tuple[Digest, ...], Tuple[Digest, ...]]:
    """Fold a log from zeroed registers into (pcr view, rtmr view).

    ``scope`` limits replay to one producer; None replays everything.
    Entries drive whichever register indices they carry, so guest entries
    land in both views and host entries only in the PCR bank.
    """
    pcrs = [crypto.ZERO_DIGEST] * N_PCRS
    rtmrs = [crypto.ZERO_DIGEST] * N_RTMRS
    for entry in log:
        if scope is not None and entry.scope is not scope:
            continue
        if entry.pcr_index is not None:
            pcrs[entry.pcr_index] = crypto.extend(pcrs[entry.pcr_index], entry.event_digest)
        if entry.rtmr_index is not None:
            rtmrs[entry.rtmr_index] = crypto.extend(rtmrs[entry.rtmr_index], entry.event_digest)
    return tuple(pcrs), tuple(rtmrs)


@dataclass(frozen=True)
class RowResult:
    """Outcome for one register-correspondence row.

    expected values are replayed from the guest event stream; actual values
    are the live registers from the two artifacts. A row matches only when
    both sides equal their replayed reference.
    """

    tdx_register: str
    pcr_indices: Tuple[int, ...]
    matched: bool
    td_expected: Digest
    td_actual: Digest
    pcr_expected: Tuple[Tuple[int, Digest], ...]
    pcr_actual: Tuple[Tuple[int, Optional[Digest]], ...]


@dataclass(frozen=True)
class ConsistencyResult:
    rows: Tuple[RowResult, ...]

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.rows)

    def mismatched(self) -> Tuple[str, ...]:
        return tuple(r.tdx_register for r in self.rows if not r.matched)


def check_rtmr_pcr_consistency(
    td_report: TdReport, tpm_quote: TpmQuote, event_log: Sequence[EventLogEntry]
) -> ConsistencyResult:
    """Cross-check the TD registers against the quoted PCRs.

    Replays the guest-scope event stream into both views and compares each
    side's live value to its replayed reference, one row per TD register
    (MRTD plus RTMR 0..2; RTMR 3 is reserved). PCRs absent from the quote
    count as matched only if their reference is still zero: an attacker
    cannot hide a mapped register by narrowing the quote selection.
    """
    guest = [e for e in event_log if e.scope is Scope.GUEST]
    pcr_ref, rtmr_ref = replay_event_log(guest)
    quoted = tpm_quote.values_dict()

    def pcr_side(indices):
        expected = tuple((i, pcr_ref[i]) for i in indices)
        actual = tuple((i, quoted.get(i)) for i in indices)
        ok = all(
            (got == pcr_ref[i]) if got is not None else (pcr_ref[i] == crypto.ZERO_DIGEST)
            for i, got in actual
        )
        return expected, actual, ok

    rows = []

    # MRTD row: the immutable firmware event, not an extend fold.
    fw_events = [e for e in guest if e.pcr_index == 0 and e.rtmr_index is None]
    td_expected = fw_events[0].event_digest if len(fw_events) == 1 else crypto.ZERO_DIGEST
    td_ok = len(fw_events) == 1 and td_report.mrtd == td_expected
    pcr_expected, pcr_actual, pcr_ok = pcr_side((0,))
    rows.append(
        RowResult(
            tdx_register="MRTD",
            pcr_indices=(0,),
            matched=td_ok and pcr_ok,
            td_expected=td_expected,
            td_actual=td_report.mrtd,
            pcr_expected=pcr_expected,
            pcr_actual=pcr_actual,
        )
    )

    for rtmr_index in (0, 1, 2):
        indices = RTMR_PCR_MAP[rtmr_index]
        td_expected = rtmr_ref[rtmr_index]
        td_actual = td_report.rtmrs[rtmr_index]
        pcr_expected, pcr_actual, pcr_ok = pcr_side(indices)
        rows.append(
            RowResult(
                tdx_register=f"RTMR{rtmr_index}",
                pcr_indices=indices,
                matched=(td_actual == td_expected) and pcr_ok,
                td_expected=td_expected,
                td_actual=td_actual,
                pcr_expected=pcr_expected,
                pcr_actual=pcr_actual,
            )
        )
    return ConsistencyResult(rows=tuple(rows))
