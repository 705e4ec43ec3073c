"""Crypto core: SHA-384 digests, the extend fold, deterministic Ed25519 keys,
minimal claims-map certificates, and chain verification.

All measurement registers in the simulator share one digest width (48 bytes)
and one extend rule::

    new = SHA384(old || event_digest)

Keys are derived deterministically from caller seeds so that a fixed world
seed reproduces byte-identical evidence. Signatures are Ed25519; the scheme
is carried in artifacts as the algorithm-id string "ed25519".

Canonical signing encodings (byte-exact, also documented in the README):

* ``enc_bytes(b)``: 4-byte big-endian length, then the raw bytes.
* ``enc_str(s)``: ``enc_bytes`` of the UTF-8 encoding, a lone surrogate
  written as its three-byte form (``surrogatepass``).
* ``enc_map(m)``: 4-byte big-endian pair count, then for each key in
  ascending lexicographic order ``enc_str(key) || enc_str(value)``.
* certificate payload: ``enc_str("dcea-cert-v1") || enc_bytes(subject_public)
  || enc_str(issuer_id) || enc_map(claims)``.

The payload builders here, in ``td`` and in ``tpm``, write each payload with
one ``b"".join`` over precomputed tags and ``enc_len`` prefixes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import EmptyChain, InvalidKey, InvalidSeed

DIGEST_LEN = 48
SIGNATURE_ALGORITHM = "ed25519"

CERT_DOMAIN_TAG = "dcea-cert-v1"


@dataclass(frozen=True)
class Digest:
    """Fixed-width 48-byte measurement value."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes) or len(self.data) != DIGEST_LEN:
            raise ValueError("digest must be exactly %d bytes" % DIGEST_LEN)

    def hex(self) -> str:
        return self.data.hex()

    def __repr__(self) -> str:  # keep test failures readable
        return f"Digest({self.data.hex()[:12]}..)"


ZERO_DIGEST = Digest(b"\x00" * DIGEST_LEN)


def digest(data: bytes) -> Digest:
    """SHA-384 of raw bytes."""
    return Digest(hashlib.sha384(data).digest())


def extend(old: Digest, event_digest: Digest) -> Digest:
    """One extend step: fold an event digest into an accumulator register."""
    return Digest(hashlib.sha384(old.data + event_digest.data).digest())


def fold(events: Iterable[Digest], start: Digest = ZERO_DIGEST) -> Digest:
    """Replay a whole event-digest sequence from a starting register value."""
    acc = start
    for ev in events:
        acc = extend(acc, ev)
    return acc


def extend_registers(
    registers: Sequence[Digest], steps: Iterable[Tuple[int, Digest]]
) -> Tuple[Digest, ...]:
    """Fold ``(register index, event digest)`` steps, in order, into a
    register file by the extend rule.

    The fold runs over raw bytes and builds one Digest per register it
    touched; untouched registers come back as the same objects. Indices
    are the caller's to check. ``extend`` and ``fold`` are its oracle.
    """
    folded = {}
    for index, event in steps:
        old = folded.get(index)
        if old is None:
            old = registers[index].data
        folded[index] = hashlib.sha384(old + event.data).digest()
    out = list(registers)
    for index, data in folded.items():
        out[index] = Digest(data)
    return tuple(out)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

class KeyKind(str, Enum):
    EK = "ek"
    AK = "ak"
    QE = "qe"
    CA = "ca"


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 pair: its private bytes and what they derive. The private
    bytes are parsed once, here: the library key object is built in
    ``__post_init__`` and held for every ``sign``, and ``public`` is derived
    from it. The held object takes no part in equality, hashing or repr."""

    public: bytes = field(init=False)
    private: bytes
    _key: Ed25519PrivateKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            key = Ed25519PrivateKey.from_private_bytes(self.private)
        except (ValueError, TypeError) as exc:
            raise InvalidKey(f"bad private key: {exc}") from exc
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "public", key.public_key().public_bytes_raw())


def keygen(seed: bytes, kind: KeyKind) -> KeyPair:
    """Derive a deterministic Ed25519 pair from (kind, seed).

    The kind is mixed into the derivation so one seed string can safely
    parent several roles without key reuse.
    """
    if not seed:
        raise InvalidSeed("key seed must be non-empty")
    raw = hashlib.sha384(kind.value.encode("ascii") + b":" + seed).digest()[:32]
    return KeyPair(private=raw)


def sign(key: KeyPair, message: bytes) -> bytes:
    return key._key.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        key = Ed25519PublicKey.from_public_bytes(public)
    except (ValueError, TypeError) as exc:
        raise InvalidKey(f"bad public key: {exc}") from exc
    try:
        key.verify(signature, message)
        return True
    except InvalidSignature:
        return False


def key_id(public: bytes) -> str:
    """Short stable identifier for a public key (hex prefix of its digest)."""
    return digest(public).hex()[:16]


# ---------------------------------------------------------------------------
# canonical signing encodings
# ---------------------------------------------------------------------------

# the 4-byte big-endian length or count prefix of every encoding below
enc_len = struct.Struct(">I").pack

# the length prefix of a Digest's data, which is always DIGEST_LEN bytes
DIGEST_PREFIX = enc_len(DIGEST_LEN)


def enc_str(text: str) -> bytes:
    data = text.encode("utf-8", "surrogatepass")
    return enc_len(len(data)) + data


_CERT_TAG = enc_str(CERT_DOMAIN_TAG)


def cert_signing_payload(
    subject_public: bytes, issuer_id: str, claims: Sequence[Tuple[str, str]]
) -> bytes:
    """The certificate payload, ``enc_map(claims)`` included, in one join."""
    issuer = issuer_id.encode("utf-8", "surrogatepass")
    ordered = sorted(claims)
    parts = [_CERT_TAG, enc_len(len(subject_public)), subject_public,
             enc_len(len(issuer)), issuer, enc_len(len(ordered))]
    for key, value in ordered:
        key, value = key.encode("utf-8", "surrogatepass"), value.encode("utf-8", "surrogatepass")
        parts += (enc_len(len(key)), key, enc_len(len(value)), value)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Minimal certificate: a signed claims map over a subject key.

    claims are stored as a sorted tuple of pairs so certificates are
    hashable and their signing payload is canonical.
    """

    subject_public: bytes
    issuer_id: str
    claims: Tuple[Tuple[str, str], ...]
    signature: bytes

    def claims_dict(self) -> dict:
        return dict(self.claims)


@dataclass(frozen=True)
class CertChain:
    """Leaf-first chain; the last certificate is expected to be self-signed."""

    certs: Tuple[Certificate, ...] = ()

    @property
    def leaf(self) -> Certificate:
        return self.certs[0]


class ChainStatus(Enum):
    VALID = "valid"
    UNTRUSTED_ROOT = "untrusted_root"
    BROKEN_LINK = "broken_link"


@dataclass(frozen=True)
class ChainVerdict:
    status: ChainStatus
    broken_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status is ChainStatus.VALID


_VALID = ChainVerdict(ChainStatus.VALID)
_UNTRUSTED_ROOT = ChainVerdict(ChainStatus.UNTRUSTED_ROOT)


def issue_cert(issuer: KeyPair, subject_public: bytes, claims: Mapping[str, str]) -> Certificate:
    """Sign a claims map over a subject key. Self-signed when subject is issuer."""
    normalized = tuple(sorted(claims.items()))
    issuer_id = key_id(issuer.public)
    payload = cert_signing_payload(subject_public, issuer_id, normalized)
    return Certificate(
        subject_public=subject_public,
        issuer_id=issuer_id,
        claims=normalized,
        signature=sign(issuer, payload),
    )


def _cert_signature_valid(cert: Certificate, signer_public: bytes) -> bool:
    payload = cert_signing_payload(cert.subject_public, cert.issuer_id, cert.claims)
    try:
        return verify(signer_public, payload, cert.signature)
    except InvalidKey:
        return False


# (certificate, signer public key): one signature checked in a chain walk
Link = Tuple[Certificate, bytes]


def verify_chain(
    chain: CertChain,
    trusted_roots: Iterable[Certificate],
    known_links: Dict[Link, None],
) -> ChainVerdict:
    """Test the chain's anchor, then walk it leaf to root.

    Status precedence: UNTRUSTED_ROOT, then BROKEN_LINK, then VALID. The
    last certificate must be one of ``trusted_roots`` (by equality); if it
    is not, the chain is UNTRUSTED_ROOT after no signature check, however
    its links stand, as RFC 5280 path validation starts from the trust
    anchor. Only a chain under a pinned root is walked: each certificate's
    signature is checked under its parent's subject key, and the root's
    under its own. BROKEN_LINK carries the index of the first certificate
    whose signature fails.

    ``known_links`` is the caller's memo of verified links, an
    insertion-ordered dict: a link in it skips its signature check, and the
    links of a VALID chain that it lacks are appended to it in walk order.
    So a link enters the memo only under a trusted root and only when its
    whole chain is valid; ``verifier.verify_bundle`` decides which links
    stay. A link is a certificate plus its signer key, so altering any
    signed field makes it a new link.
    """
    certs = chain.certs
    if not certs:
        raise EmptyChain("certificate chain is empty")
    if certs[-1] not in trusted_roots:
        return _UNTRUSTED_ROOT
    signers = [cert.subject_public for cert in certs[1:]]
    signers.append(certs[-1].subject_public)
    links = list(zip(certs, signers))
    unknown = []
    for i, link in enumerate(links):
        if link not in known_links:
            if not _cert_signature_valid(*link):
                return ChainVerdict(ChainStatus.BROKEN_LINK, broken_index=i)
            unknown.append(link)
    for link in unknown:
        known_links[link] = None
    return _VALID
