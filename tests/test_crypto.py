"""Crypto core: digests, extend folds, deterministic keys, claim certs, chains.

Expected values below were frozen from independent oracles (hashlib / struct /
raw library primitives) before the module was written.
"""

import hashlib
import struct
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcea import adversary, crypto, td, tpm
from dcea.errors import EmptyChain, InvalidKey, InvalidSeed

# Frozen oracle outputs.
SHA384_EMPTY = "38b060a751ac96384cd9327eb1b1e36a21fdb71114be07434c0cc7bf63f6e1da274edebfe76f65fbd51ad2f14898b95b"
FOLD_TWO_EVENTS = "be7aae7ec0aa188a56ac4d902d38ab6624ea2a096b621f5dbedd4b6905f702e4f8403646fde6032171b49cd2842dbc4f"
AK_PUB_UNIT_SEED = "36c0f392e4b47534336f581756d29b02c8ce12ea627192a6dbc9a62ce9706c13"
CERT_PAYLOAD_SMALL = (
    "0000000c646365612d636572742d763100000002010200000006726f6f742d31"
    "000000020000000161000000013100000001620000000132"
)


def test_digest_empty_matches_sha384_constant():
    assert crypto.digest(b"").hex() == SHA384_EMPTY


@given(st.binary(max_size=256))
def test_digest_matches_hashlib(data):
    assert crypto.digest(data).data == hashlib.sha384(data).digest()


def test_digest_width_is_48():
    assert len(crypto.digest(b"x").data) == 48
    assert crypto.ZERO_DIGEST.data == b"\x00" * 48


def test_digest_rejects_wrong_width():
    with pytest.raises(ValueError):
        crypto.Digest(b"\x00" * 47)


def test_two_step_extend_matches_frozen_fold():
    ev1 = crypto.digest(b"event-one")
    ev2 = crypto.digest(b"event-two")
    acc = crypto.extend(crypto.ZERO_DIGEST, ev1)
    acc = crypto.extend(acc, ev2)
    assert acc.hex() == FOLD_TWO_EVENTS


@given(st.binary(min_size=1, max_size=32), st.binary(min_size=1, max_size=32))
def test_extend_is_order_sensitive(a, b):
    da, db = crypto.digest(a), crypto.digest(b)
    ab = crypto.extend(crypto.extend(crypto.ZERO_DIGEST, da), db)
    ba = crypto.extend(crypto.extend(crypto.ZERO_DIGEST, db), da)
    if da != db:
        assert ab != ba


def test_keygen_deterministic_frozen():
    kp = crypto.keygen(b"unit-seed", crypto.KeyKind.AK)
    assert kp.public.hex() == AK_PUB_UNIT_SEED
    again = crypto.keygen(b"unit-seed", crypto.KeyKind.AK)
    assert again == kp
    assert hash(again) == hash(kp)
    assert crypto.KeyPair(private=kp.private) == kp
    # the held library key object is no part of the pair's repr
    assert repr(kp) == (
        f"KeyPair(public={kp.public!r}, private={kp.private!r})"
    )


@pytest.mark.parametrize("deployment", list(adversary.Deployment))
def test_honest_round_parses_each_private_key_once(monkeypatch, deployment):
    # a round mints six keys: the provider and TEE CAs, the QE, the host
    # TPM's EK, and the EK and AK of the guest-facing TPM; KeyPair parses
    # each once and every signature reuses the parsed key
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    parsed = []
    original = Ed25519PrivateKey.from_private_bytes

    def counting(data):
        parsed.append(bytes(data))
        return original(data)

    monkeypatch.setattr(Ed25519PrivateKey, "from_private_bytes", counting)
    world = adversary.build_world(adversary.WorldConfig(seed=7, deployment=deployment))
    assert adversary.attest_honest(world).verdict.accepted
    assert len(parsed) == 6
    assert len(set(parsed)) == 6


def test_keygen_distinct_seeds_and_kinds():
    a = crypto.keygen(b"seed-a", crypto.KeyKind.EK)
    b = crypto.keygen(b"seed-b", crypto.KeyKind.EK)
    c = crypto.keygen(b"seed-a", crypto.KeyKind.AK)
    assert a.public != b.public
    assert a.public != c.public


def test_keygen_empty_seed_rejected():
    with pytest.raises(InvalidSeed):
        crypto.keygen(b"", crypto.KeyKind.EK)


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
def test_sign_verify_roundtrip_against_raw_library(seed, message):
    # Oracle: verify with the raw library primitive, not crypto.verify.
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    kp = crypto.keygen(seed, crypto.KeyKind.QE)
    sig = crypto.sign(kp, message)
    Ed25519PublicKey.from_public_bytes(kp.public).verify(sig, message)
    assert crypto.verify(kp.public, message, sig)


def test_verify_rejects_tampered_message():
    kp = crypto.keygen(b"tamper", crypto.KeyKind.AK)
    sig = crypto.sign(kp, b"payload")
    assert not crypto.verify(kp.public, b"payload!", sig)
    assert not crypto.verify(kp.public, b"payload", b"\x00" * 64)


def test_malformed_key_raises():
    with pytest.raises(InvalidKey):
        crypto.KeyPair(private=b"\x01\x02")
    with pytest.raises(InvalidKey):
        crypto.verify(b"\x01\x02", b"m", b"\x00" * 64)


def test_cert_payload_frozen_encoding():
    payload = crypto.cert_signing_payload(b"\x01\x02", "root-1", (("a", "1"), ("b", "2")))
    assert payload.hex() == CERT_PAYLOAD_SMALL


def test_cert_payload_matches_struct_oracle():
    def eb(b):
        return struct.pack(">I", len(b)) + b

    def es(s):
        return eb(s.encode("utf-8"))

    claims = {"z": "26", "m": "13"}
    want = es("dcea-cert-v1") + eb(b"\xaa") + es("issuer-x") + struct.pack(">I", 2)
    for k in sorted(claims):
        want += es(k) + es(claims[k])
    got = crypto.cert_signing_payload(b"\xaa", "issuer-x", tuple(sorted(claims.items())))
    assert got == want


def test_issue_cert_and_self_verify():
    ca = crypto.keygen(b"ca-root", crypto.KeyKind.CA)
    leaf = crypto.keygen(b"leaf", crypto.KeyKind.EK)
    cert = crypto.issue_cert(ca, leaf.public, {"provider": "examplecloud"})
    assert cert.subject_public == leaf.public
    assert cert.issuer_id == crypto.key_id(ca.public)
    payload = crypto.cert_signing_payload(cert.subject_public, cert.issuer_id, cert.claims)
    assert crypto.verify(ca.public, payload, cert.signature)


def _chain(*, break_middle=False):
    ca = crypto.keygen(b"chain-ca", crypto.KeyKind.CA)
    mid = crypto.keygen(b"chain-mid", crypto.KeyKind.CA)
    leaf = crypto.keygen(b"chain-leaf", crypto.KeyKind.EK)
    root_cert = crypto.issue_cert(ca, ca.public, {"role": "root"})
    mid_issuer = crypto.keygen(b"unrelated", crypto.KeyKind.CA) if break_middle else ca
    mid_cert = crypto.issue_cert(mid_issuer, mid.public, {"role": "intermediate"})
    leaf_cert = crypto.issue_cert(mid, leaf.public, {"role": "leaf"})
    return (leaf_cert, mid_cert, root_cert), root_cert


def test_an_intermediate_with_a_malformed_key_breaks_the_link_it_should_have_signed():
    # the root validly certifies a 31-byte subject key, which no Ed25519 key
    # parses from: the leaf's signature cannot verify under it
    ca = crypto.keygen(b"chain-ca", crypto.KeyKind.CA)
    root_cert = crypto.issue_cert(ca, ca.public, {"role": "root"})
    mid_cert = crypto.issue_cert(ca, b"\x01" * 31, {"role": "intermediate"})
    leaf = crypto.keygen(b"chain-leaf", crypto.KeyKind.EK)
    leaf_cert = crypto.issue_cert(leaf, leaf.public, {"role": "leaf"})
    chain, known = (leaf_cert, mid_cert, root_cert), {}
    verdict = crypto.verify_chain(chain, [root_cert], known)
    assert verdict == crypto.ChainVerdict(crypto.ChainStatus.BROKEN_LINK, broken_index=0)
    assert known == {}


def test_verify_chain_valid():
    chain, root = _chain()
    verdict = crypto.verify_chain(chain, [root], {})
    assert verdict.status is crypto.ChainStatus.VALID
    assert verdict.ok


def _other_root():
    other = crypto.keygen(b"other-root", crypto.KeyKind.CA)
    return crypto.issue_cert(other, other.public, {"role": "root"})


def test_verify_chain_untrusted_root():
    chain, _ = _chain()
    verdict = crypto.verify_chain(chain, [_other_root()], {})
    assert verdict.status is crypto.ChainStatus.UNTRUSTED_ROOT
    assert not verdict.ok


def test_verify_chain_broken_middle_link_index_1():
    chain, root = _chain(break_middle=True)
    verdict = crypto.verify_chain(chain, [root], {})
    assert verdict.status is crypto.ChainStatus.BROKEN_LINK
    assert verdict.broken_index == 1


@pytest.mark.parametrize("break_middle", [False, True], ids=["valid_links", "broken_middle"])
def test_a_chain_to_an_unpinned_root_makes_no_verify(monkeypatch, break_middle):
    # precedence: UNTRUSTED_ROOT before BROKEN_LINK, because the anchor is
    # tested before any link is walked
    chain, _ = _chain(break_middle=break_middle)
    calls, known = [], {}
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args))
    verdict = crypto.verify_chain(chain, [_other_root()], known)
    assert verdict == crypto.ChainVerdict(crypto.ChainStatus.UNTRUSTED_ROOT)
    assert calls == []
    assert known == {}


def test_a_pinned_root_with_a_broken_leaf_reports_index_0_and_remembers_nothing():
    chain, root = _chain()
    leaf = replace(chain[0], claims=(("role", "altered"),))
    known = {}
    verdict = crypto.verify_chain((leaf,) + chain[1:], [root], known)
    assert verdict == crypto.ChainVerdict(crypto.ChainStatus.BROKEN_LINK, broken_index=0)
    assert known == {}


def test_a_memo_holding_every_link_verifies_nothing_and_stays_as_it_was(monkeypatch):
    world = adversary.build_world()
    chain = world.qe_chain
    known = {}
    assert crypto.verify_chain(chain, [world.tee_root], known).ok
    assert list(known) == list(zip(chain, [world.tee_root.subject_public] * 2))
    before = list(known)
    calls = []
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args))
    assert crypto.verify_chain(chain, [world.tee_root], known).ok
    assert list(known) == before
    assert calls == []


def test_verify_chain_empty_rejected():
    with pytest.raises(EmptyChain):
        crypto.verify_chain((), [], {})


def test_self_signed_single_cert_chain():
    ca = crypto.keygen(b"solo", crypto.KeyKind.CA)
    root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    assert crypto.verify_chain((root,), [root], {}).ok


# -- the three signing payloads against the README's "Canonical signing encodings"

def _enc_bytes(data):
    return struct.pack(">I", len(data)) + data


def _enc_str(text):
    return _enc_bytes(text.encode("utf-8"))


def _enc_map(mapping):
    out = struct.pack(">I", len(mapping))
    for key in sorted(mapping):
        out += _enc_str(key) + _enc_str(mapping[key])
    return out


_DIGESTS = st.binary(min_size=48, max_size=48).map(crypto.Digest)


@given(st.data(), st.sampled_from((4, 24)))
def test_extend_registers_matches_the_fold_oracle(data, width):
    registers = tuple(data.draw(st.lists(_DIGESTS, min_size=width, max_size=width)))
    steps = data.draw(st.lists(st.tuples(st.integers(0, width - 1), _DIGESTS), max_size=12))
    out = crypto.extend_registers(registers, steps)
    assert len(out) == width
    for index, register in enumerate(registers):
        events = [event for i, event in steps if i == index]
        if events:
            assert out[index] == crypto.fold(events, start=register)
        else:  # untouched: the very object passed in
            assert out[index] is register


@given(st.binary(), st.text(), st.dictionaries(st.text(), st.text(), max_size=4))
def test_cert_payload_matches_the_readme_field_by_field(subject_public, issuer_id, claims):
    want = (_enc_str("dcea-cert-v1") + _enc_bytes(subject_public) + _enc_str(issuer_id)
            + _enc_map(claims))
    got = crypto.cert_signing_payload(subject_public, issuer_id, tuple(sorted(claims.items())))
    assert got == want


def test_cert_payload_with_non_ascii_and_empty_claims():
    claims = {"": "", "région": "eu-ouest-1", "провайдер": "☁"}
    want = _enc_str("dcea-cert-v1") + _enc_bytes(b"") + _enc_str("émetteur") + _enc_map(claims)
    assert crypto.cert_signing_payload(b"", "émetteur", tuple(sorted(claims.items()))) == want
    assert crypto.cert_signing_payload(b"\x01", "i", ()) == (
        _enc_str("dcea-cert-v1") + _enc_bytes(b"\x01") + _enc_str("i") + struct.pack(">I", 0)
    )


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), _DIGESTS), max_size=24), st.binary())
def test_quote_payload_matches_the_readme_field_by_field(values, nonce):
    want = _enc_str("dcea-quote-v1") + struct.pack(">I", len(values))
    for index, value in values:
        want += struct.pack(">I", index) + _enc_bytes(value.data)
    want += _enc_bytes(nonce)
    assert tpm.quote_signing_payload(tuple(values), nonce) == want


REPORT_BLOBS = ("mrconfigid", "mrowner", "mrownerconfig", "report_data", "tee_tcb_svn",
                "mrseam", "seam_attributes", "td_attributes")


@given(_DIGESTS, st.lists(_DIGESTS, max_size=4), st.lists(st.binary(), min_size=8, max_size=8),
       st.text())
def test_report_payload_matches_the_readme_field_by_field(mrtd, rtmrs, blobs, ppid):
    report = td.TdReport(mrtd=mrtd, rtmrs=tuple(rtmrs), **dict(zip(REPORT_BLOBS, blobs)),
                         ppid=ppid, qe_signature=b"", qe_chain=())
    want = _enc_str("dcea-td-report-v1") + _enc_bytes(mrtd.data) + struct.pack(">I", len(rtmrs))
    for rtmr in rtmrs:
        want += _enc_bytes(rtmr.data)
    for blob in blobs:
        want += _enc_bytes(blob)
    want += _enc_str(ppid)
    assert td.report_signing_payload(report) == want
