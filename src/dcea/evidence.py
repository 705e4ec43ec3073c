"""Evidence bundles: assembly, canonical JSON serialization, log replay,
and the register-consistency check between the two attestation views.

Wire format (``*.dcea.json``): one canonical JSON object, keys sorted
alphabetically at every level, byte fields lowercase hex (the only hex
spelling decoded), no whitespace. ``format_version`` gates future schema
changes. Each wire type is one table of field codecs below (``record`` and
its combinators), and each codec defines both directions: it writes a value
straight to the canonical JSON text and reads a parsed JSON value back, so
encoder and decoder cannot drift apart; the README documents the same layout.
Records and the fields the canonical reader reads decode first through an
accept function compiled from those tables at import (see ``_compile``),
which only takes good values; the combinators' own walk judges every other
value, and is the only decode that says why one is refused.
A decoded object may carry no key outside its table.
``serialize(deserialize(x)) == x`` for canonical input ``x``, the bytes
``serialize`` writes. Other well-formed spellings, such as an indented
re-encoding, also decode, but serialize back to the canonical bytes. A
certificate or event-log entry keeps the text it was first written as (see
``kept_text``). ``deserialize`` finds an array or object whose canonical
text it read before by that text and returns the value decoded then, so
decoded values may be shared between bundles (see ``_read``).

report_data layout (64 bytes):

* bytes 0..31: the verifier's TD nonce for this challenge;
* bytes 32..63: the binding tail. Zero by default; when the deployment
  binds the attestation key through report_data instead of MRCONFIGID it
  holds the first 32 bytes of SHA384(ak_public).
"""

from __future__ import annotations

import functools
import json
import json.scanner
import math
from binascii import unhexlify
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _string_text
from operator import attrgetter
from typing import (
    Callable, ClassVar, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple, Type,
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
    ``walk`` is the combinator decode, built from the walks of the codec's
    parts: the reference, and the only decode that raises ParseError,
    naming where ``obj`` sits. A record's ``decode`` is its accept function
    (see ``_compile``), else, for any value that function refuses, its
    ``walk``; any other codec's is ``walk``, and an accept function that
    holds the codec writes its ``inline`` in place. A path is ``"$"`` or a
    ``(parent path, key or index)`` pair, rendered only for an error."""

    encode: Callable
    decode: Callable
    walk: Callable
    # ``inline(codec, source, x, depth)`` writes the checks that take a good value
    # into an accept function (see ``_Source``); None for a codec that an accept
    # function calls through its walk
    inline: Optional[Callable] = None
    optional: bool = False  # a record may omit the key, which reads as None
    # a record's field table in wire order and the ``make`` it decodes through;
    # None for every other codec, which the canonical reader reads as one value.
    # A combinator over a record that adds a check (``checked``) drops both, so
    # the reader never walks past it; ``kept_text``, which adds none, keeps them.
    fields: Optional[Tuple[Tuple[str, "Codec"], ...]] = None
    make: Optional[Callable] = None


class _Miss(Exception):
    """An accept function does not take the value; the walk says why."""


class _Source:
    """The text of one accept function, and the values that text names.

    ``codec.inline(codec, source, x, depth)`` writes, at ``depth``,
    statements that turn the local ``x``, a JSON value that ``codec``
    accepts, into its decoded value, and raise for any other value: a
    failed check raises ``_Miss``. They name no path and catch nothing, as
    the walk alone says why a value is refused."""

    def __init__(self):
        self.lines: list = []
        self.values: dict = {}  # id -> (name, value)
        self.locals = 0

    def name(self, value) -> str:
        """The name under which compiled code reads ``value``."""
        return self.values.setdefault(id(value), (f"_{len(self.values)}", value))[0]

    def local(self) -> str:
        self.locals += 1
        return f"x{self.locals}"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def call(self, codec: Codec, x: str, depth: int) -> None:
        self.line(depth, f"{x} = {self.name(_compile(codec))}({x})")

    def emit(self, codec: Codec, x: str, depth: int) -> None:
        """Code that turns ``x`` into ``codec``'s value: inlined, or a call."""
        if codec.inline is None:
            self.call(codec, x, depth)
        else:
            codec.inline(codec, self, x, depth)


@functools.cache
def _compile(codec: Codec) -> Callable:
    """``codec``'s accept function, ``accept(obj)``: the decoded value of a
    JSON value that every check of the codec takes, and a raise for any
    other. It is written from the codec tables alone, never from input, as
    ``dataclasses`` writes ``__init__``; once per codec. A codec without
    ``inline`` accepts by its walk."""
    if codec.inline is None:
        walk = codec.walk
        return lambda obj: walk(obj, "$")
    source = _Source()
    source.emit(codec, "obj", 2)
    names = [name for name, _ in source.values.values()]
    text = "\n".join([f"def build({', '.join(names)}):", "    def accept(obj):",
                      *source.lines, "        return obj", "    return accept"])
    scope: dict = {}
    exec(compile(text, "<compiled decode>", "exec"), globals(), scope)
    return scope["build"](*[value for _, value in source.values.values()])


def _codec(encode: Callable, walk: Callable, inline: Optional[Callable] = None, **rest) -> Codec:
    """A codec that decodes by ``walk``."""
    return Codec(encode, walk, walk, inline, **rest)


def _json_path(path) -> str:
    if isinstance(path, str):
        return path
    parent, key = path
    return f"{_json_path(parent)}[{key}]" if isinstance(key, int) else f"{_json_path(parent)}.{key}"


def _fail(path, why) -> NoReturn:
    raise ParseError(f"{_json_path(path)}: {why}")


def _number_text(value) -> str:
    """What ``json.dumps`` writes for a bool, an int or a finite float; a
    NaN or an infinity, which no decoder reads, raises ValueError."""
    if value.__class__ is int:  # the common case first
        return int.__repr__(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"{value!r} has no canonical JSON form")
    return int.__repr__(value)


def scalar(kind: type, name: str) -> Codec:
    """A JSON string, integer or boolean of Python type ``kind``; the type
    must match exactly, as JSON true and false are bools, a subclass of int."""

    def walk(obj, path):
        if obj.__class__ is not kind:
            _fail(path, f"expected {name}")
        return obj

    def inline(self, source, x, depth):
        source.line(depth, f"if {x}.__class__ is not {source.name(kind)}: raise _Miss")

    return _codec(_string_text if kind is str else _number_text, walk, inline)


def _number(obj, path) -> float:
    if obj.__class__ is not float and obj.__class__ is not int:
        _fail(path, "expected number")
    try:
        if math.isfinite(obj):
            return float(obj)
    except OverflowError:  # an integer beyond the float range
        pass
    _fail(path, "expected a finite number")


def _inline_number(self, source, x, depth):
    # an integer, which the walk reads as a float, is left to the walk
    source.line(depth, f"if {x}.__class__ is not float or not {source.name(math.isfinite)}({x}): raise _Miss")


STRING = scalar(str, "string")
INTEGER = scalar(int, "integer")
BOOLEAN = scalar(bool, "boolean")
NUMBER = _codec(_number_text, _number, _inline_number)


def hex_bytes(width: Optional[int] = None) -> Codec:
    """Bytes as hex text in the one spelling ``bytes.hex`` writes: digit
    pairs, lowercase, nothing between them. Exactly ``width`` bytes when
    given."""

    def walk(text, path):
        if text.__class__ is not str:
            _fail(path, "expected hex string")
        try:
            raw = unhexlify(text)  # unlike bytes.fromhex, refuses spaces
        except ValueError:
            _fail(path, "invalid hex")
        if raw.hex() != text:
            _fail(path, "hex must be lowercase")
        if width is not None and len(raw) != width:
            _fail(path, f"expected {width} bytes, got {len(raw)}")
        return raw

    def inline(self, source, x, depth):
        raw = source.local()
        source.line(depth, f"{raw} = unhexlify({x})")  # raises for bad hex or a non-string
        fits = "" if width is None else f" or len({raw}) != {width}"
        source.line(depth, f"if {x}.__class__ is not str or {raw}.hex() != {x}{fits}: raise _Miss")
        source.line(depth, f"{x} = {raw}")

    return _codec(lambda value: f'"{value.hex()}"', walk, inline)  # hex needs no escape


def enum_of(cls: Type[Enum], what: str) -> Codec:
    """An Enum member as its string value."""
    members = {member.value: member for member in cls}

    def walk(text, path):
        if text.__class__ is not str:
            _fail(path, "expected string")
        member = members.get(text)
        if member is None:
            _fail(path, f"unknown {what} {text!r}")
        return member

    def inline(self, source, x, depth):
        source.line(depth, f"if {x}.__class__ is not str: raise _Miss")
        source.line(depth, f"{x} = {source.name(members)}[{x}]")

    return _codec(lambda member: _string_text(member.value), walk, inline)


def checked(codec: Codec, ok: Callable, why: Callable) -> Codec:
    """``codec`` for the decoded values ``ok`` accepts; ``why(value)`` says
    what is wrong with any other."""
    walk_value = codec.walk

    def walk(obj, path):
        value = walk_value(obj, path)
        if not ok(value):
            _fail(path, why(value))
        return value

    def inline(self, source, x, depth):
        source.emit(codec, x, depth)
        source.line(depth, f"if not {source.name(ok)}({x}): raise _Miss")

    return _codec(codec.encode, walk, inline, optional=codec.optional)


def exactly(codec: Codec, want, what: str) -> Codec:
    """``codec`` for the one value ``want``."""
    return checked(codec, lambda value: value == want, lambda v: f"unsupported {what} {v!r}")


def wrap(codec: Codec, build: Callable, unwrap: Callable) -> Codec:
    """``codec``'s wire form for what ``build`` makes of its decoded value."""
    walk_value = codec.walk

    def inline(self, source, x, depth):
        source.emit(codec, x, depth)
        source.line(depth, f"{x} = {source.name(build)}({x})")

    return _codec(lambda v: codec.encode(unwrap(v)), lambda o, path: build(walk_value(o, path)), inline)


# the instance-dict key under which a value keeps its text
_TEXT = "_wire_text"


def kept_text(codec: Codec) -> Codec:
    """``codec``, with an encode that keeps each value's text. The first
    encode of a value renders its text from the value's fields and keeps it
    in the value's instance dict, outside the dataclass fields, so equality,
    hashing and repr ignore it; every later encode of that object, in any
    bundle, reuses it. The value is frozen and its fields are immutable, so
    the text cannot go stale; ``dataclasses.replace`` builds a new object,
    which renders again. Decoding is ``codec``'s and renders nothing."""
    encode = codec.encode

    def encode_kept(value):
        text = value.__dict__.get(_TEXT)
        if text is None:
            text = value.__dict__[_TEXT] = encode(value)
        return text

    return codec._replace(encode=encode_kept)


def optional(codec: Codec) -> Codec:
    """``codec`` or null, which reads as None."""
    encode, walk_value = codec.encode, codec.walk

    def inline(self, source, x, depth):
        source.line(depth, f"if {x} is not None:")
        source.emit(codec, x, depth + 1)

    return _codec(
        lambda value: "null" if value is None else encode(value),
        lambda obj, path: None if obj is None else walk_value(obj, path),
        inline, optional=True,
    )


def list_of(item: Codec, most: Optional[int] = None) -> Codec:
    """A JSON array of ``item``, read as a tuple; of at most ``most`` items
    when given, which is checked before any item is decoded."""
    encode, walk_item = item.encode, item.walk

    def walk(obj, path):
        if not isinstance(obj, list):
            _fail(path, "expected array")
        if most is not None and len(obj) > most:
            _fail(path, f"expected at most {most} items, got {len(obj)}")
        return tuple([walk_item(x, (path, i)) for i, x in enumerate(obj)])

    def inline(self, source, x, depth):
        items, value = source.local(), source.local()
        fits = "" if most is None else f" or len({x}) > {most}"
        source.line(depth, f"if {x}.__class__ is not list{fits}: raise _Miss")
        source.line(depth, f"{items} = []")
        source.line(depth, f"for {value} in {x}:")
        source.emit(item, value, depth + 1)
        source.line(depth + 1, f"{items}.append({value})")
        source.line(depth, f"{x} = tuple({items})")

    return _codec(lambda values: "[" + ",".join([encode(v) for v in values]) + "]", walk, inline)


def pair_of(first: Codec, second: Codec) -> Codec:
    """A two-item JSON array, read as a tuple."""
    walk_first, walk_second = first.walk, second.walk
    encode_first, encode_second = first.encode, second.encode

    def walk(obj, path):
        if obj.__class__ is not list or len(obj) != 2:
            _fail(path, "expected a two-item array")
        return walk_first(obj[0], (path, 0)), walk_second(obj[1], (path, 1))

    def inline(self, source, x, depth):
        a, b = source.local(), source.local()
        source.line(depth, f"if {x}.__class__ is not list or len({x}) != 2: raise _Miss")
        source.line(depth, f"{a}, {b} = {x}")
        source.emit(first, a, depth)
        source.emit(second, b, depth)
        source.line(depth, f"{x} = {a}, {b}")

    return _codec(
        lambda pair: "[" + encode_first(pair[0]) + "," + encode_second(pair[1]) + "]", walk, inline
    )


def _object_text(pairs, encode) -> str:
    """A JSON object from a dict, or (key, value) pairs, with string keys, in
    the order ``sort_keys`` writes: by the raw key, not by its escaped text."""
    items = sorted(dict(pairs).items())
    return "{" + ",".join([_string_text(k) + ":" + encode(v) for k, v in items]) + "}"


def map_of(key: Codec, value: Codec) -> Codec:
    """A JSON object with any keys, read as a dict; ``key`` is the codec
    between a dict key and its JSON string."""

    def walk(obj, path):
        if not isinstance(obj, dict):
            _fail(path, "expected object")
        return {key.walk(k, (path, k)): value.walk(v, (path, k)) for k, v in obj.items()}

    def encode(m):  # sorted by the raw key, so each key's text is parsed back
        return _object_text({json.loads(key.encode(k)): v for k, v in m.items()}, value.encode)

    return _codec(encode, walk)


def _string_map(obj, path) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected object")
    for key, value in obj.items():
        if key.__class__ is not str or value.__class__ is not str:
            _fail(path, "must map strings to strings")
    return dict(obj)


STRING_MAP = _codec(lambda pairs: _object_text(pairs, _string_text), _string_map)

# what a value's constructor raises for a combination of fields it refuses
_REFUSED = (InvalidEntry, IncompleteBundle, ValueError)


def record(make: Callable, fields: Mapping[str, Codec]) -> Codec:
    """A JSON object with exactly the keys of ``fields``: written from the
    value's attributes of those names, read as ``make(**values)``. An
    InvalidEntry, IncompleteBundle or ValueError from ``make`` fails at the
    object's path. Its decode runs its accept function, compiled with the
    checks of every field written in place, a field that is itself a record
    called through its own accept function, and ``make`` called once; any
    value that function refuses goes to the walk, which judges it."""
    names = frozenset(fields)
    required = frozenset(name for name, codec in fields.items() if not codec.optional)
    walks = tuple((name, codec.walk) for name, codec in fields.items())
    table = tuple((name, fields[name]) for name in sorted(fields))  # in sort_keys order
    # each field's '"name":' prefix, its getter and its encoder
    encoders = tuple((_string_text(name) + ":", attrgetter(name), codec.encode)
                     for name, codec in table)

    def walk(obj, path):
        if obj.__class__ is not dict or obj.keys() != names:
            if not isinstance(obj, dict):
                _fail(path, "expected object")
            keys = obj.keys()
            if not keys <= names:
                _fail(path, f"unknown field {min(keys - names)!r}")
            if not required <= keys:
                _fail(path, f"missing field {min(required - keys)!r}")
        values = {}
        for name, walk_field in walks:  # a loop costs less than a comprehension's call
            values[name] = walk_field(obj.get(name), (path, name))
        try:
            return make(**values)
        except _REFUSED as exc:
            _fail(path, exc)

    def inline(self, source, x, depth):
        source.line(depth, f"if {x}.__class__ is not dict or {x}.keys() != {source.name(names)}: raise _Miss")
        values = []
        for name, codec in fields.items():
            value = source.local()
            source.line(depth, f"{value} = {x}[{name!r}]")
            # a record field is called: it runs once per object, and written out
            # in place it would make the memory compiling its parent takes grow
            (source.call if codec.fields else source.emit)(codec, value, depth)
            values.append(f"{name}={value}")
        source.line(depth, f"{x} = {source.name(make)}({', '.join(values)})")

    def encode(value):
        return "{" + ",".join([prefix + enc(get(value)) for prefix, get, enc in encoders]) + "}"

    def decode(obj, path):
        try:
            return accept(obj)
        except Exception:  # refused, by a check or by ``make``: the walk judges
            return walk(obj, path)

    codec = Codec(encode, decode, walk, inline, fields=table, make=make)
    accept = _compile(codec)  # read by ``decode`` when it runs
    return codec


# -- the bundle's wire types; the README documents the same layout ----------

DIGEST = wrap(hex_bytes(crypto.DIGEST_LEN), Digest, attrgetter("data"))
NONCE = hex_bytes(NONCE_LEN)
# one codec per width, so each width's accept function is compiled once
_HEX, _HEX_48 = hex_bytes(), hex_bytes(48)

_CERT = record(Certificate, {
    "subject_public": _HEX,
    "issuer_id": STRING,
    "claims": wrap(STRING_MAP, lambda claims: tuple(sorted(claims.items())), dict),
    "signature": _HEX,
})


CERT = kept_text(_CERT)

_CHAIN = wrap(list_of(CERT), CertChain, attrgetter("certs"))


PCR_INDEX = checked(INTEGER, lambda index: 0 <= index < N_PCRS,
                    lambda index: f"pcr index {index} out of range")


def _quote(selection, values, **rest) -> TpmQuote:
    if selection != tuple(index for index, _ in values):
        raise ValueError("selection must list exactly the indices of values")
    return TpmQuote(selection=selection, values=values, **rest)


# Most entries a bundle's event log may hold; a longer log fails to decode. Every
# honest bundle carries 11 (about 190 bytes of text each), and the cap bounds the
# entries of a held log and of a C5 memo key.
MAX_LOG_ENTRIES = 64


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
        "mrconfigid": _HEX_48,
        "mrowner": _HEX_48,
        "mrownerconfig": _HEX_48,
        "report_data": hex_bytes(REPORT_DATA_LEN),
        "tee_tcb_svn": _HEX,
        "mrseam": _HEX,
        "seam_attributes": _HEX,
        "td_attributes": _HEX,
        "ppid": STRING,
        "qe_signature": _HEX,
        "qe_chain": _CHAIN,
    }),
    "tpm_quote": record(_quote, {
        "selection": list_of(PCR_INDEX),
        "values": list_of(pair_of(PCR_INDEX, DIGEST)),
        "nonce": NONCE,
        "ak_public": _HEX,
        "signature": _HEX,
        "algorithm": exactly(STRING, crypto.SIGNATURE_ALGORITHM, "algorithm"),
    }),
    "ek_cert_chain": _CHAIN,
    "ak_cert": optional(CERT),
    "event_log": list_of(kept_text(record(EventLogEntry, {
        "scope": enum_of(Scope, "scope"),
        "pcr_index": optional(INTEGER),
        "rtmr_index": optional(INTEGER),
        "event_digest": DIGEST,
        "description": STRING,
    })), MAX_LOG_ENTRIES),
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
    return _parse_json(_utf8(data))


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 at byte {exc.start}", offset=exc.start) from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode())  # exc.pos counts characters
        raise ParseError(f"not valid JSON at byte {offset}: {exc.msg}", offset=offset) from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the parser's stack
        raise ParseError("not valid JSON: nested too deeply") from exc


# -- the canonical reader: a repeated value is found by its text, not parsed -----

# Held texts: (a codec's decode, the first HELD_PREFIX characters of a JSON array or
# object it decoded) -> (that value's whole text, the immutable value decoded from it).
# The table admits entries until it holds MAX_HELD, and then only answers lookups, as
# every verifier memo does. A platform's bundles repeat six such values; see README.
MAX_HELD = 128
HELD_PREFIX = 128  # also the shortest text held: a shorter value is cheaper to parse
_HELD: dict = {}

_scan = json.scanner.make_scanner(json.JSONDecoder())


def _plan(codec: Codec):
    """How the reader walks a record: its ``make``, and for each field in wire
    order the tag ``serialize`` writes before its value, its name, and its
    accept function or, for a field that is itself a record, that record's plan."""
    steps = []
    for i, (name, field) in enumerate(codec.fields):
        tag = ("{" if i == 0 else ",") + _string_text(name) + ":"
        inner = field.fields and _plan(field)
        steps.append((tag, name, None if inner else _compile(field), inner))
    return codec.make, tuple(steps)


_BUNDLE_PLAN = _plan(_BUNDLE)
_FIRST_VALUE_AT = len(_BUNDLE_PLAN[1][0][0])  # where the first field's value starts


def _read(text: str, pos: int, plan, misses: list):
    """The record ``plan`` read from ``text`` at ``pos``, with the position
    after it. Raises on any text ``serialize`` would not write around a value.
    Appends each array or object that was parsed, not found, to ``misses``."""
    make, steps = plan
    values = {}
    for tag, name, accept, inner in steps:
        if not text.startswith(tag, pos):
            raise ValueError(f"no {tag!r} at {pos}")
        pos += len(tag)
        if inner:
            values[name], pos = _read(text, pos, inner, misses)
            continue
        key = None
        if text[pos] in "[{":
            key = (accept, text[pos:pos + HELD_PREFIX])
            held = _HELD.get(key)
            if held is not None and text.startswith(held[0], pos):
                values[name] = held[1]
                pos += len(held[0])
                continue
            if len(_HELD) >= MAX_HELD:
                if pos == _FIRST_VALUE_AT:  # nothing here is held, and nothing can be
                    raise LookupError("a full table and a new first value")
                key = None
        obj, end = _scan(text, pos)
        values[name] = accept(obj)
        if key is not None and end - pos >= HELD_PREFIX:
            misses.append((key, text[pos:end], values[name]))
        pos = end
    if not text.startswith("}", pos):
        raise ValueError(f"no '}}' at {pos}")
    return make(**values), pos + 1


def deserialize(data: bytes) -> EvidenceBundle:
    """Parse bundle bytes; ParseError carries the byte offset for lexical
    failures and 0 for schema-level ones.

    Canonical text is read by ``_read``: a JSON array or object whose exact
    text was decoded before returns the value decoded then, and every other
    value is parsed by the ``json`` scanner and decoded by its codec's
    accept function. Any other text, and any failure, goes to the full
    path, ``obj_to_bundle(load_json(data))`` on the text already decoded,
    which alone reports errors, so both paths decode alike. A document read
    completely admits its new, immutable arrays and objects to the table."""
    text = _utf8(data)
    misses = []
    try:
        bundle, end = _read(text, 0, _BUNDLE_PLAN, misses)
        if end != len(text):
            raise ValueError(f"text after the bundle at {end}")
    except Exception:  # the full path decodes it, or says why it cannot
        return obj_to_bundle(_parse_json(text))
    for key, held_text, value in misses:
        if len(_HELD) >= MAX_HELD:
            break
        try:
            hash(value)  # every immutable value here hashes, and a dict does not
        except TypeError:
            continue
        _HELD.setdefault(key, (held_text, value))
    return bundle


# ---------------------------------------------------------------------------
# replay and consistency
# ---------------------------------------------------------------------------

# Most entries a C5 memo holds; a full memo only answers lookups.
MAX_C5_MEMO = 128

# the zeroed register files a replay starts from
_ZERO_PCRS = (crypto.ZERO_DIGEST,) * N_PCRS
_ZERO_RTMRS = (crypto.ZERO_DIGEST,) * N_RTMRS

# what the replay and the rows read of an entry: its description is read by neither
_ENTRY_VALUES = attrgetter("scope", "pcr_index", "rtmr_index", "event_digest.data")


def replay_event_log(
    log: Sequence[EventLogEntry], scope: Optional[Scope] = None, memo: Optional[dict] = None
) -> Tuple[Tuple[Digest, ...], Tuple[Digest, ...]]:
    """Fold a log from zeroed registers into (pcr view, rtmr view), each view
    in one ``crypto.extend_registers`` call.

    ``scope`` limits replay to one producer; None replays everything.
    Entries drive whichever register indices they carry, so guest entries
    land in both views and host entries only in the PCR bank.

    ``memo`` is a caller's C5 memo (see ``check_rtmr_pcr_consistency``),
    keyed here by ``scope`` and each entry's scope, register indices and
    event digest bytes: a log equal in those values to one replayed before
    under the same scope returns the remembered result object. Without a
    memo, the call gets one of its own.
    """
    memo = {} if memo is None else memo
    key = (scope, tuple(map(_ENTRY_VALUES, log)))
    held = memo.get(key)
    if held is not None:
        return held
    if scope is not None:
        log = [entry for entry in log if entry.scope is scope]
    result = (
        crypto.extend_registers(_ZERO_PCRS, [
            (entry.pcr_index, entry.event_digest) for entry in log if entry.pcr_index is not None
        ]),
        crypto.extend_registers(_ZERO_RTMRS, [
            (entry.rtmr_index, entry.event_digest) for entry in log if entry.rtmr_index is not None
        ]),
    )
    if len(memo) < MAX_C5_MEMO:
        memo[key] = result
    return result


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

    ``memo`` is a caller's C5 memo, a dict that this function and
    ``replay_event_log`` share; it admits results while it holds fewer than
    ``MAX_C5_MEMO`` and then only answers lookups. Without one, the call
    gets a memo of its own. Its key here holds every value the rows read:
    each guest entry's scope, register indices and event digest bytes, the
    bytes of MRTD and RTMR 0..2, and each quoted index with its digest's
    bytes. Inputs equal in those values to an earlier call's return that
    call's result object. The two functions' keys differ in length, so
    they never meet.
    """
    memo = {} if memo is None else memo
    guest = [e for e in event_log if e.scope is Scope.GUEST]
    pcr_ref, rtmr_ref = replay_event_log(guest, memo=memo)
    key = (
        tuple(map(_ENTRY_VALUES, guest)),
        (td_report.mrtd.data, *[rtmr.data for rtmr in td_report.rtmrs[:3]]),
        tuple([(index, value.data) for index, value in tpm_quote.values]),
    )
    held = memo.get(key)
    if held is not None:
        return held
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
    result = ConsistencyResult(rows=tuple(rows))
    if len(memo) < MAX_C5_MEMO:
        memo[key] = result
    return result
