"""Evidence bundles: assembly, canonical JSON serialization, log replay,
and the register-consistency check between the two attestation views.

Wire format (``*.dcea.json``): one canonical JSON object, keys sorted
alphabetically at every level, byte fields lowercase hex (the only hex
spelling decoded), no whitespace. ``format_version`` gates future schema
changes. Each wire type is one table of field codecs below (``record`` and
its combinators), and each codec defines both directions: it writes a value
straight to the canonical JSON text and reads a parsed JSON value back, so
encoder and decoder cannot drift apart; the README documents the same layout.
A decoded object may carry no key outside its table.
``serialize(deserialize(x)) == x`` for every well-formed input. Decoded
values may be shared between bundles, and a shared certificate or event-log
entry keeps the text it was written as (see ``interned``).

report_data layout (64 bytes):

* bytes 0..31: the verifier's TD nonce for this challenge;
* bytes 32..63: the binding tail. Zero by default; when the deployment
  binds the attestation key through report_data instead of MRCONFIGID it
  holds the first 32 bytes of SHA384(ak_public).
"""

from __future__ import annotations

import json
import math
from binascii import unhexlify
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _string_text
from operator import attrgetter, itemgetter
from typing import (
    Callable, ClassVar, Hashable, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple,
    Type,
)

from . import crypto
from .crypto import CertChain, Certificate, Digest
from .errors import IncompleteBundle, InvalidEntry, ParseError
from .td import REPORT_DATA_LEN, RTMR_PCR_MAP, TdReport
from .tpm import N_PCRS, N_RTMRS, EventLogEntry, Scope, TpmQuote

FORMAT_VERSION = 1

RD_NONCE = slice(0, 32)
RD_TAIL = slice(32, 64)

NONCE_LEN = 32


def encode_report_data(td_nonce: bytes, binding: Optional[bytes] = None) -> bytes:
    """Pack the 64-byte report_data field; see the module docstring."""
    if len(td_nonce) != NONCE_LEN:
        raise ValueError(f"td nonce must be {NONCE_LEN} bytes")
    if binding is None:
        return td_nonce + b"\x00" * 32
    if len(binding) != 32:
        raise ValueError("binding tail must be 32 bytes")
    return td_nonce + binding


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

    format_version: ClassVar[int] = FORMAT_VERSION  # the wire generation it encodes as

    def __post_init__(self):
        if not self.ek_cert_chain.certs:
            raise IncompleteBundle("ek_cert_chain must hold at least one certificate")


# ---------------------------------------------------------------------------
# JSON codec: one table of field codecs per wire type
# ---------------------------------------------------------------------------

class Codec(NamedTuple):
    """A wire form: ``encode`` maps a value to its canonical JSON text, the
    very text ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    writes for the JSON value ``obj`` that ``decode(obj, path)`` reads back.
    ``decode`` raises ParseError that names where ``obj`` sits. A path is
    ``"$"`` or a ``(parent path, key or index)`` pair, rendered only for an
    error."""

    encode: Callable
    decode: Callable
    optional: bool = False  # a record may omit the key, which reads as None


def _json_path(path) -> str:
    if isinstance(path, str):
        return path
    parent, key = path
    return f"{_json_path(parent)}[{key}]" if isinstance(key, int) else f"{_json_path(parent)}.{key}"


def _fail(path, why) -> NoReturn:
    raise ParseError(f"{_json_path(path)}: {why}")


def _number_text(value) -> str:
    """What ``json.dumps`` writes for a bool, an int or a float."""
    if value.__class__ is int:  # the common case first
        return int.__repr__(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    return int.__repr__(value)


def scalar(kind: type, name: str) -> Codec:
    """A JSON string, integer or boolean of Python type ``kind``; the type
    must match exactly, as JSON true and false are bools, a subclass of int."""

    def decode(obj, path):
        if obj.__class__ is not kind:
            _fail(path, f"expected {name}")
        return obj

    return Codec(_string_text if kind is str else _number_text, decode)


def _number(obj, path) -> float:
    if obj.__class__ is not float and obj.__class__ is not int:
        _fail(path, "expected number")
    try:
        if math.isfinite(obj):
            return float(obj)
    except OverflowError:  # an integer beyond the float range
        pass
    _fail(path, "expected a finite number")


STRING = scalar(str, "string")
INTEGER = scalar(int, "integer")
BOOLEAN = scalar(bool, "boolean")
NUMBER = Codec(_number_text, _number)


# Intern tables: digest hex -> Digest (see DIGEST); certificate signature hex, and an
# entry's event digest hex with its scope and register indices (``_entry_key``) ->
# (JSON object, its field types or None, decoded value), see ``interned``. A table
# admits values until it holds MAX_INTERNED, then only answers lookups (see README).
# Platforms on one reference stack and guest image share 22 digests and 11 entries and
# add 2 certificates each; a platform with a stack of its own adds 7 digests and 5 entries.
MAX_INTERNED = 256
_INTERNED = _DIGESTS, _CERTS, _ENTRIES = ({}, {}, {})


def hex_bytes(width: Optional[int] = None, build: Optional[Callable] = None) -> Codec:
    """Bytes as hex text in the one spelling ``bytes.hex`` writes: digit
    pairs, lowercase, nothing between them. Exactly ``width`` bytes when
    given. ``build`` makes the decoded value of the bytes, and that value's
    ``hex()`` writes it back; the digest table interns it, so only DIGEST has a ``build``."""

    def decode(text, path):
        if text.__class__ is not str:
            _fail(path, "expected hex string")
        if build is not None:
            value = _DIGESTS.get(text)
            if value is not None:
                return value
        try:
            raw = unhexlify(text)  # unlike bytes.fromhex, refuses spaces
        except ValueError:
            _fail(path, "invalid hex")
        if raw.hex() != text:
            _fail(path, "hex must be lowercase")
        if width is not None and len(raw) != width:
            _fail(path, f"expected {width} bytes, got {len(raw)}")
        if build is None:
            return raw
        if len(_DIGESTS) < MAX_INTERNED:
            return _DIGESTS.setdefault(text, build(raw))
        return build(raw)

    return Codec(lambda value: f'"{value.hex()}"', decode)  # hex needs no escape


def enum_of(cls: Type[Enum], what: str) -> Codec:
    """An Enum member as its string value."""
    members = {member.value: member for member in cls}

    def decode(text, path):
        if text.__class__ is not str:
            _fail(path, "expected string")
        member = members.get(text)
        if member is None:
            _fail(path, f"unknown {what} {text!r}")
        return member

    return Codec(lambda member: _string_text(member.value), decode)


def checked(codec: Codec, ok: Callable, why: Callable) -> Codec:
    """``codec`` for the decoded values ``ok`` accepts; ``why(value)`` says
    what is wrong with any other."""

    def decode(obj, path):
        value = codec.decode(obj, path)
        if not ok(value):
            _fail(path, why(value))
        return value

    return codec._replace(decode=decode)


def exactly(codec: Codec, want, what: str) -> Codec:
    """``codec`` for the one value ``want``."""
    return checked(codec, lambda value: value == want, lambda v: f"unsupported {what} {v!r}")


def wrap(codec: Codec, build: Callable, unwrap: Callable) -> Codec:
    """``codec``'s wire form for what ``build`` makes of its decoded value."""
    return Codec(lambda v: codec.encode(unwrap(v)), lambda o, path: build(codec.decode(o, path)))


# the instance-dict key under which an interned value keeps its text
_TEXT = "_wire_text"


def interned(codec: Codec, key: Callable[[dict], Hashable], table: dict) -> Codec:
    """``codec`` for JSON objects, sharing each decoded value through
    ``table`` under ``key(obj)``, one probe per object. A hit needs an
    equal object whose fields have the same JSON types: ``true`` and ``1.0``
    do not match a stored ``1``. Only a number equals a value of another
    JSON type, so an object holding none skips the type check (a nested
    claims map holds strings). Anything else decodes as ``codec`` does, and
    an object whose key ``key`` cannot read or hash is never stored.

    The first encode of a value renders its text from the value's fields
    and keeps it in the value's instance dict, outside the dataclass
    fields, so equality, hashing and repr ignore it; every later encode of
    that object, in any bundle, reuses it. The value is frozen and its
    fields are immutable, so the text cannot go stale; ``dataclasses.replace``
    builds a new object, which renders again. Decoding renders nothing."""
    encode, decode = codec.encode, codec.decode

    def encode_interned(value):
        text = value.__dict__.get(_TEXT)
        if text is None:
            text = value.__dict__[_TEXT] = encode(value)
        return text

    def decode_interned(obj, path):
        try:
            found = key(obj)
            held = table.get(found)
        except (KeyError, TypeError):  # no JSON object, a key field missing or unhashable
            found = held = None
        if held is not None and held[0] == obj and (
                held[1] is None or held[1] == list(map(type, obj.values()))):
            return held[2]
        value = decode(obj, path)
        if found is not None and len(table) < MAX_INTERNED:  # a full table builds no copy
            copy = {name: dict(v) if v.__class__ is dict else v for name, v in obj.items()}
            types = list(map(type, obj.values()))
            numbers = not {bool, int, float}.isdisjoint(types)
            table.setdefault(found, (copy, types if numbers else None, value))
        return value

    return codec._replace(encode=encode_interned, decode=decode_interned)


def optional(codec: Codec) -> Codec:
    """``codec`` or null, which reads as None."""
    encode, decode = codec.encode, codec.decode
    return Codec(
        lambda value: "null" if value is None else encode(value),
        lambda obj, path: None if obj is None else decode(obj, path),
        optional=True,
    )


def list_of(item: Codec) -> Codec:
    """A JSON array of ``item``, read as a tuple."""
    decode_item, encode = item.decode, item.encode

    def decode(obj, path):
        if not isinstance(obj, list):
            _fail(path, "expected array")
        return tuple([decode_item(x, (path, i)) for i, x in enumerate(obj)])

    return Codec(lambda values: "[" + ",".join([encode(v) for v in values]) + "]", decode)


def pair_of(first: Codec, second: Codec) -> Codec:
    """A two-item JSON array, read as a tuple."""
    decode_first, decode_second = first.decode, second.decode
    encode_first, encode_second = first.encode, second.encode

    def decode(obj, path):
        if obj.__class__ is not list or len(obj) != 2:
            _fail(path, "expected a two-item array")
        return decode_first(obj[0], (path, 0)), decode_second(obj[1], (path, 1))

    return Codec(
        lambda pair: "[" + encode_first(pair[0]) + "," + encode_second(pair[1]) + "]", decode
    )


def _object_text(pairs, encode) -> str:
    """A JSON object from a dict, or (key, value) pairs, with string keys, in
    the order ``sort_keys`` writes: by the raw key, not by its escaped text."""
    items = sorted(dict(pairs).items())
    return "{" + ",".join([_string_text(k) + ":" + encode(v) for k, v in items]) + "}"


def map_of(key: Codec, value: Codec) -> Codec:
    """A JSON object with any keys, read as a dict; ``key`` is the codec
    between a dict key and its JSON string."""

    def decode(obj, path):
        if not isinstance(obj, dict):
            _fail(path, "expected object")
        return {key.decode(k, (path, k)): value.decode(v, (path, k)) for k, v in obj.items()}

    def encode(m):  # sorted by the raw key, so each key's text is parsed back
        return _object_text({json.loads(key.encode(k)): v for k, v in m.items()}, value.encode)

    return Codec(encode, decode)


def _string_map(obj, path) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected object")
    for key, value in obj.items():
        if key.__class__ is not str or value.__class__ is not str:
            _fail(path, "must map strings to strings")
    return dict(obj)


STRING_MAP = Codec(lambda pairs: _object_text(pairs, _string_text), _string_map)

# what a value's constructor raises for a combination of fields it refuses
_REFUSED = (InvalidEntry, IncompleteBundle, ValueError)


def record(make: Callable, fields: Mapping[str, Codec]) -> Codec:
    """A JSON object with exactly the keys of ``fields``: written from the
    value's attributes of those names, read as ``make(**values)``. An
    InvalidEntry, IncompleteBundle or ValueError from ``make`` fails at the
    object's path."""
    names = frozenset(fields)
    required = frozenset(name for name, codec in fields.items() if not codec.optional)
    decoders = tuple((name, codec.decode) for name, codec in fields.items())
    # in sort_keys order: each field's '"name":' prefix, its getter and its encoder
    encoders = tuple((_string_text(name) + ":", attrgetter(name), fields[name].encode)
                     for name in sorted(fields))

    def decode(obj, path):
        if obj.__class__ is not dict or obj.keys() != names:
            if not isinstance(obj, dict):
                _fail(path, "expected object")
            keys = obj.keys()
            if not keys <= names:
                _fail(path, f"unknown field {min(keys - names)!r}")
            if not required <= keys:
                _fail(path, f"missing field {min(required - keys)!r}")
        values = {}
        for name, dec in decoders:  # a loop costs less than a comprehension's call
            values[name] = dec(obj.get(name), (path, name))
        try:
            return make(**values)
        except _REFUSED as exc:
            _fail(path, exc)

    def encode(value):
        return "{" + ",".join([prefix + enc(get(value)) for prefix, get, enc in encoders]) + "}"

    return Codec(encode, decode)


# -- the bundle's wire types; the README documents the same layout ----------

DIGEST = hex_bytes(crypto.DIGEST_LEN, Digest)
NONCE = hex_bytes(NONCE_LEN)

_CERT = record(Certificate, {
    "subject_public": hex_bytes(),
    "issuer_id": STRING,
    "claims": wrap(STRING_MAP, lambda claims: tuple(sorted(claims.items())), dict),
    "signature": hex_bytes(),
})


CERT = interned(_CERT, itemgetter("signature"), _CERTS)

_CHAIN = wrap(list_of(CERT), CertChain, attrgetter("certs"))


def _pcr_index(obj, path) -> int:
    if obj.__class__ is not int:
        _fail(path, "expected integer")
    if not 0 <= obj < N_PCRS:
        _fail(path, f"pcr index {obj} out of range")
    return obj


PCR_INDEX = Codec(_number_text, _pcr_index)


def _quote(selection, values, **rest) -> TpmQuote:
    if selection != tuple(index for index, _ in values):
        raise ValueError("selection must list exactly the indices of values")
    return TpmQuote(selection=selection, values=values, **rest)


# An entry's key in the entry table: its event digest's hex, its scope and its register
# indices, read from its JSON object; ``_entry_key`` gives the same key for a decoded entry.
# Entries that measure one image into different registers (a host and a guest ``kernel``)
# so intern apart.
_ENTRY_JSON_KEY = itemgetter("event_digest", "scope", "pcr_index", "rtmr_index")


def _entry_key(entry: EventLogEntry) -> tuple:
    return (entry.event_digest.data.hex(), entry.scope.value, entry.pcr_index, entry.rtmr_index)


def _bundle(format_version: int, **parts) -> EvidenceBundle:
    return EvidenceBundle(**parts)  # the version is checked by its codec


_BUNDLE = record(_bundle, {
    "format_version": exactly(INTEGER, FORMAT_VERSION, "version"),
    "td_report": record(TdReport, {
        "mrtd": DIGEST,
        "rtmrs": checked(
            list_of(DIGEST), lambda rtmrs: len(rtmrs) == N_RTMRS,
            lambda rtmrs: f"expected {N_RTMRS} registers, got {len(rtmrs)}",
        ),
        "mrconfigid": hex_bytes(48),
        "mrowner": hex_bytes(48),
        "mrownerconfig": hex_bytes(48),
        "report_data": hex_bytes(REPORT_DATA_LEN),
        "tee_tcb_svn": hex_bytes(),
        "mrseam": hex_bytes(),
        "seam_attributes": hex_bytes(),
        "td_attributes": hex_bytes(),
        "ppid": STRING,
        "qe_signature": hex_bytes(),
        "qe_chain": _CHAIN,
    }),
    "tpm_quote": record(_quote, {
        "selection": list_of(PCR_INDEX),
        "values": list_of(pair_of(PCR_INDEX, DIGEST)),
        "nonce": NONCE,
        "ak_public": hex_bytes(),
        "signature": hex_bytes(),
        "algorithm": exactly(STRING, crypto.SIGNATURE_ALGORITHM, "algorithm"),
    }),
    "ek_cert_chain": _CHAIN,
    "ak_cert": optional(CERT),
    "event_log": list_of(interned(record(EventLogEntry, {
        "scope": enum_of(Scope, "scope"),
        "pcr_index": optional(INTEGER),
        "rtmr_index": optional(INTEGER),
        "event_digest": DIGEST,
        "description": STRING,
    }), _ENTRY_JSON_KEY, _ENTRIES)),
    "nonces": record(Nonces, {
        "td_nonce": NONCE,
        "tpm_nonce": NONCE,
    }),
    "timing": record(Timing, {
        "challenge_sent": NUMBER,
        "td_received": NUMBER,
        "quote_received": NUMBER,
    }),
    "scenario_meta": STRING_MAP,
})


def obj_to_bundle(obj) -> EvidenceBundle:
    return _BUNDLE.decode(obj, "$")


def serialize(bundle: EvidenceBundle) -> bytes:
    """Canonical bytes: sorted keys, compact separators, ASCII escapes, UTF-8."""
    return _BUNDLE.encode(bundle).encode()


def load_json(data: bytes):
    """UTF-8 JSON bytes to a JSON value; a ParseError names and carries the byte offset."""
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode())  # exc.pos counts characters
        raise ParseError(f"not valid JSON at byte {offset}: {exc.msg}", offset=offset) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 at byte {exc.start}", offset=exc.start) from exc


def deserialize(data: bytes) -> EvidenceBundle:
    """Parse canonical bundle bytes; ParseError carries the byte offset for
    lexical failures and 0 for schema-level ones."""
    return obj_to_bundle(load_json(data))


# ---------------------------------------------------------------------------
# replay and consistency
# ---------------------------------------------------------------------------

# Most entries a C5 memo holds; at this size it is cleared.
MAX_C5_MEMO = 128


def _remember(memo: dict, key: tuple, entries: tuple, digests: tuple, result):
    """Store ``result`` under ``key``, which names ``entries`` and ``digests``
    by ``id()``, when each of them is the object its intern table holds: a
    later decoded bundle hands over only those objects again, so an entry
    for any other would never be hit and would only crowd live ones out.
    The entry keeps its objects alive, so no id in the key can pass to
    another object while the entry lives, and a key found later names these
    very objects. Full means cleared first, as the link memo is. The keys of
    the two C5 functions differ in length, so they never meet."""
    for d in digests:
        if _DIGESTS.get(d.data.hex()) is not d:
            return result
    for e in entries:
        held = _ENTRIES.get(_entry_key(e))
        if held is None or held[2] is not e:
            return result
    if len(memo) >= MAX_C5_MEMO:
        memo.clear()
    memo[key] = ((entries, digests), result)
    return result


def replay_event_log(
    log: Sequence[EventLogEntry], scope: Optional[Scope] = None, memo: Optional[dict] = None
) -> Tuple[Tuple[Digest, ...], Tuple[Digest, ...]]:
    """Fold a log from zeroed registers into (pcr view, rtmr view).

    ``scope`` limits replay to one producer; None replays everything.
    Entries drive whichever register indices they carry, so guest entries
    land in both views and host entries only in the PCR bank.

    ``memo`` is a caller's C5 memo (see ``check_rtmr_pcr_consistency``): a
    log of the very interned entry objects replayed before, under the same
    scope, returns the remembered result object. Without one, the call
    gets a memo of its own.
    """
    memo = {} if memo is None else memo
    log = tuple(log)
    key = (scope, tuple(map(id, log)))
    held = memo.get(key)
    if held is not None:
        return held[1]
    pcrs = [crypto.ZERO_DIGEST] * N_PCRS
    rtmrs = [crypto.ZERO_DIGEST] * N_RTMRS
    for entry in log:
        if scope is not None and entry.scope is not scope:
            continue
        if entry.pcr_index is not None:
            pcrs[entry.pcr_index] = crypto.extend(pcrs[entry.pcr_index], entry.event_digest)
        if entry.rtmr_index is not None:
            rtmrs[entry.rtmr_index] = crypto.extend(rtmrs[entry.rtmr_index], entry.event_digest)
    return _remember(memo, key, log, (), (tuple(pcrs), tuple(rtmrs)))


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
    td_report: TdReport,
    tpm_quote: TpmQuote,
    event_log: Sequence[EventLogEntry],
    memo: Optional[dict] = None,
) -> ConsistencyResult:
    """Cross-check the TD registers against the quoted PCRs.

    Replays the guest-scope event stream into both views and compares each
    side's live value to its replayed reference, one row per TD register
    (MRTD plus RTMR 0..2; RTMR 3 is reserved). PCRs absent from the quote
    count as matched only if their reference is still zero: an attacker
    cannot hide a mapped register by narrowing the quote selection.

    ``memo`` is a caller's C5 memo, a dict bounded by ``MAX_C5_MEMO`` that
    this function and ``replay_event_log`` share; without one, the call gets
    a memo of its own. Its key here names every input the rows read: the
    guest entries, MRTD and RTMR 0..2 by identity, and each quoted pair by
    its index and its digest's identity. Inputs that are the very interned
    objects of an earlier call return that call's result object.
    """
    memo = {} if memo is None else memo
    guest = tuple([e for e in event_log if e.scope is Scope.GUEST])
    pcr_ref, rtmr_ref = replay_event_log(guest, memo=memo)
    values = tpm_quote.values
    digests = (td_report.mrtd, *td_report.rtmrs[:3], *map(itemgetter(1), values))
    key = (tuple(map(id, guest)), tuple(map(itemgetter(0), values)), tuple(map(id, digests)))
    held = memo.get(key)
    if held is not None:
        return held[1]
    quoted = tpm_quote.values_dict()
    zero = crypto.ZERO_DIGEST

    def row(register, indices, td_expected, td_actual, td_ok):
        actual = [quoted.get(i) for i in indices]
        # a PCR left out of the quote matches only a reference still at zero
        pcr_ok = [(got or zero).data for got in actual] == [pcr_ref[i].data for i in indices]
        expected = tuple([(i, pcr_ref[i]) for i in indices])
        return RowResult(register, indices, td_ok and pcr_ok, td_expected, td_actual,
                         expected, tuple(zip(indices, actual)))

    # MRTD row: the immutable firmware event, not an extend fold.
    fw_events = [e for e in guest if e.pcr_index == 0 and e.rtmr_index is None]
    td_expected = fw_events[0].event_digest if len(fw_events) == 1 else zero
    rows = [row("MRTD", (0,), td_expected, td_report.mrtd,
                len(fw_events) == 1 and td_report.mrtd == td_expected)]
    for rtmr_index in (0, 1, 2):
        td_expected, td_actual = rtmr_ref[rtmr_index], td_report.rtmrs[rtmr_index]
        rows.append(row(f"RTMR{rtmr_index}", RTMR_PCR_MAP[rtmr_index], td_expected, td_actual,
                        td_actual == td_expected))
    return _remember(memo, key, guest, digests, ConsistencyResult(rows=tuple(rows)))
