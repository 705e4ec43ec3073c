"""Verifier: challenge issuance, the eight-check pipeline, registry."""

import functools
import itertools
import json
import math
import random
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from dcea import adversary, cli, crypto, evidence, platform, td, tpm, verifier
from dcea.tpm import TpmKind

from support import empty_held_texts, verify_once
from test_evidence import honest_bundle, honest_pieces
from test_td import make_qe

TD_NONCE = b"\x0a" * 32
TPM_NONCE = b"\x0b" * 32


def honest_policy():
    ca = crypto.keygen(b"provider-ca", crypto.KeyKind.CA)
    provider_root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    _, _, tee_root = make_qe()
    plat, _, _, _, quote, _, _ = honest_pieces()
    return verifier.VerifierPolicy(
        trusted_tee_roots=(tee_root,),
        trusted_provider_roots=(provider_root,),
        expected_pcr17_18={17: quote.values_dict()[17], 18: quote.values_dict()[18]},
        rtt_threshold_ms=verifier.default_rtt_threshold(TpmKind.VIRTUAL, 12.0),
        require_ak_registry_uniqueness=False,
    )


def honest_challenge():
    return verifier.Challenge(td_nonce=TD_NONCE, tpm_nonce=TPM_NONCE, issued_at=0.0)


def test_default_rtt_threshold_values():
    assert verifier.default_rtt_threshold(TpmKind.DISCRETE, 10.0) == 570.0
    assert verifier.default_rtt_threshold(TpmKind.VIRTUAL, 12.0) == 324.0


def test_honest_bundle_accepted():
    verdict = verify_once(honest_bundle(), honest_policy(), honest_challenge())
    failed = [c for c in verdict.checks if not c.passed]
    assert verdict.accepted, failed
    assert len(verdict.checks) == 8
    assert verdict.attack_flags == frozenset()
    assert all(verdict.goals.values())


def test_verdict_deterministic():
    a = verify_once(honest_bundle(), honest_policy(), honest_challenge())
    b = verify_once(honest_bundle(), honest_policy(), honest_challenge())
    assert a == b


def _failed_ids(verdict):
    return {c.check_id for c in verdict.checks if not c.passed}


def test_c1_untrusted_qe_root():
    bundle = honest_bundle()
    fake_ca = crypto.keygen(b"fake-tee", crypto.KeyKind.CA)
    fake_qe = crypto.keygen(b"fake-qe", crypto.KeyKind.QE)
    fake_chain = crypto.CertChain((
        crypto.issue_cert(fake_ca, fake_qe.public, {"role": "qe"}),
        crypto.issue_cert(fake_ca, fake_ca.public, {"role": "tee-root"}),
    ))
    report = replace(bundle.td_report, qe_chain=fake_chain, qe_signature=b"")
    from dcea import td as td_mod

    signed = replace(report, qe_signature=crypto.sign(fake_qe, td_mod.report_signing_payload(report)))
    bundle = replace(bundle, td_report=signed)
    verdict = verify_once(bundle, honest_policy(), honest_challenge())
    assert _failed_ids(verdict) == {"C1"}
    assert verdict.attack_flags == frozenset({"A1"})
    assert not verdict.accepted


def test_c2_broken_quote_signature():
    bundle = honest_bundle()
    quote = replace(bundle.tpm_quote, signature=bytes(64))
    verdict = verify_once(replace(bundle, tpm_quote=quote), honest_policy(), honest_challenge())
    assert "C2" in _failed_ids(verdict)
    assert {"A1", "A5"} <= verdict.attack_flags


def test_c2_rejects_a_bundle_without_an_ak_certificate():
    bundle = honest_bundle()
    stripped = replace(bundle, ak_cert=None)
    registry = verifier.AkRegistry()
    verifier.registry_register(
        registry,
        bundle.tpm_quote.ak_public,
        verifier.RegistryEntry(platform_id="plat-1", issuer="examplecloud"),
    )
    for known in (None, registry):  # a registry entry is no provenance
        verdict = verify_once(stripped, honest_policy(), honest_challenge(), registry=known)
        assert verdict.failed_checks() == ("C2",)
        assert "no AK certificate" in verdict.checks_by_id()["C2"].detail


def test_c3_binding_mismatch():
    bundle = honest_bundle()
    other = crypto.keygen(b"other-ak", crypto.KeyKind.AK)
    report = replace(bundle.td_report, mrconfigid=crypto.digest(other.public).data)
    # re-sign so only the binding breaks, not C1
    qe, chain, _ = make_qe()
    from dcea import td as td_mod

    unsigned = replace(report, qe_signature=b"")
    signed = replace(unsigned, qe_signature=crypto.sign(qe, td_mod.report_signing_payload(unsigned)))
    verdict = verify_once(replace(bundle, td_report=signed), honest_policy(), honest_challenge())
    assert _failed_ids(verdict) == {"C3"}
    assert verdict.attack_flags == frozenset({"A2", "A5"})
    assert verdict.goals["AB"] is False and verdict.goals["PO"] is False
    assert verdict.goals["MC"] is True


def test_c3_report_data_channel():
    plat, vtpm, guest, _, quote, log, ca = honest_pieces()
    handle = tpm.default_ak_handle(vtpm)
    ak_pub = vtpm.aks[handle].keypair.public
    qe, qe_chain, _ = make_qe()
    from dcea import td as td_mod

    rd = evidence.encode_report_data(TD_NONCE, binding=crypto.digest(ak_pub).data[:32])
    report = td_mod.td_report(guest, rd, qe, qe_chain)
    root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    bundle = evidence.EvidenceBundle(
        td_report=report,
        tpm_quote=quote,
        ek_cert_chain=crypto.CertChain((vtpm.ek_cert, root)),
        ak_cert=vtpm.aks[handle].ak_cert,
        event_log=log,
        nonces=evidence.Nonces(TD_NONCE, TPM_NONCE),
        timing=evidence.Timing(0.0, 374.0, 324.0),
    )
    policy = replace(honest_policy(), binding_channel=verifier.BindingChannel.REPORT_DATA)
    verdict = verify_once(bundle, policy, honest_challenge())
    assert verdict.accepted
    # same bundle under the default channel binds via MRCONFIGID and also passes
    assert verify_once(bundle, honest_policy(), honest_challenge()).accepted


def test_c4_nonce_mismatch():
    bundle = honest_bundle()
    stale = verifier.Challenge(td_nonce=b"\x01" * 32, tpm_nonce=b"\x02" * 32, issued_at=0.0)
    verdict = verify_once(bundle, honest_policy(), stale)
    assert _failed_ids(verdict) == {"C4"}
    assert {"A1", "A4"} <= verdict.attack_flags


def test_c5_event_log_tamper():
    bundle = honest_bundle()
    log = list(bundle.event_log)
    for i, entry in enumerate(log):
        if entry.scope is tpm.Scope.GUEST and entry.rtmr_index is not None:
            log[i] = replace(entry, event_digest=crypto.digest(b"doctored"))
            break
    verdict = verify_once(replace(bundle, event_log=tuple(log)), honest_policy(), honest_challenge())
    assert _failed_ids(verdict) == {"C5"}
    assert verdict.attack_flags == frozenset({"A3"})


def test_c6_anchor_pin_mismatch():
    policy = honest_policy()
    pinned = replace(policy, expected_pcr17_18={17: crypto.digest(b"x"), 18: crypto.digest(b"y")})
    verdict = verify_once(honest_bundle(), pinned, honest_challenge())
    assert _failed_ids(verdict) == {"C6"}
    assert verdict.attack_flags == frozenset({"A6"})


def test_c6_names_a_pinned_register_the_quote_does_not_select():
    policy = honest_policy()
    assert 16 not in honest_bundle().tpm_quote.selection
    anchors = {**policy.expected_pcr17_18, 16: crypto.ZERO_DIGEST}
    pinned = replace(policy, expected_pcr17_18=anchors)
    verdict = verify_once(honest_bundle(), pinned, honest_challenge())
    assert _failed_ids(verdict) == {"C6"}
    assert verdict.checks_by_id()["C6"].detail == "PCR16 missing from the quote"


def test_c6_unpinned_passes():
    policy = replace(honest_policy(), expected_pcr17_18=None)
    verdict = verify_once(honest_bundle(), policy, honest_challenge())
    assert verdict.accepted


def test_c7_rtt_exceeded():
    bundle = honest_bundle()
    slow = replace(bundle, timing=evidence.Timing(0.0, 374.0, 324.0 + 50.0))
    verdict = verify_once(slow, honest_policy(), honest_challenge())
    assert _failed_ids(verdict) == {"C7"}
    assert verdict.attack_flags == frozenset({"A2"})


def test_c7_exact_threshold_passes():
    verdict = verify_once(honest_bundle(), honest_policy(), honest_challenge())
    assert verdict.checks_by_id()["C7"].passed


def test_c8_registry_required():
    policy = replace(honest_policy(), require_ak_registry_uniqueness=True)
    bundle = honest_bundle()
    verdict = verify_once(bundle, policy, honest_challenge())
    assert _failed_ids(verdict) == {"C8"}
    assert verdict.attack_flags == frozenset({"A5"})
    assert verdict.checks_by_id()["C8"].detail == "quoting key is absent from the AK registry"

    registry = verifier.AkRegistry()
    verifier.registry_register(
        registry, bundle.tpm_quote.ak_public, verifier.RegistryEntry(platform_id="plat-1")
    )
    verdict = verify_once(bundle, policy, honest_challenge(), registry=registry)
    assert verdict.accepted

    clash = verifier.registry_register(
        registry, bundle.tpm_quote.ak_public, verifier.RegistryEntry(platform_id="plat-2")
    )
    assert clash.status == "duplicate"
    assert clash.existing.platform_id == "plat-1"
    verdict = verify_once(bundle, policy, honest_challenge(), registry=registry)
    assert _failed_ids(verdict) == {"C8"}


def test_registry_same_platform_idempotent():
    registry = verifier.AkRegistry()
    entry = verifier.RegistryEntry(platform_id="plat-1")
    assert verifier.registry_register(registry, b"\x01" * 32, entry).status == "registered"
    assert verifier.registry_register(registry, b"\x01" * 32, entry).status == "registered"
    assert registry.entries == {b"\x01" * 32: entry}


GOLDEN = Path(__file__).parent / "fixtures"


def golden_s1_with(alter):
    """Appraise the honest_s1 golden bundle, altered as JSON, under its own context."""
    obj = json.loads((GOLDEN / "honest_s1.dcea.json").read_text())
    alter(obj)
    ctx = cli._load(str(GOLDEN / "honest_s1.policy.json"))
    return verify_once(evidence.obj_to_bundle(obj), ctx.policy, ctx.challenge, ctx.registry)


def test_a_check_that_raises_fails_alone_with_the_error_as_its_detail():
    def empty_qe_chain(obj):
        obj["td_report"]["qe_chain"] = []

    def short_ak_public(obj):
        obj["tpm_quote"]["ak_public"] = obj["tpm_quote"]["ak_public"][:-2]

    verdict = golden_s1_with(empty_qe_chain)
    assert len(verdict.checks) == 8
    assert verdict.failed_checks() == ("C1",)
    assert verdict.checks_by_id()["C1"].detail == "EmptyChain: certificate chain is empty"

    verdict = golden_s1_with(short_ak_public)
    assert len(verdict.checks) == 8
    assert verdict.failed_checks() == ("C2", "C3")
    assert verdict.checks_by_id()["C2"].detail.startswith("InvalidKey: bad public key: ")


def test_no_short_circuit_all_checks_evaluated():
    bundle = honest_bundle()
    stale = verifier.Challenge(td_nonce=b"\x01" * 32, tpm_nonce=b"\x02" * 32, issued_at=0.0)
    slow = replace(bundle, timing=evidence.Timing(0.0, 374.0, 999.0))
    verdict = verify_once(slow, honest_policy(), stale)
    assert _failed_ids(verdict) == {"C4", "C7"}
    assert len(verdict.checks) == 8


def test_disabled_check_hook_flips_verdict():
    policy = honest_policy()
    pinned = replace(policy, expected_pcr17_18={17: crypto.digest(b"x"), 18: crypto.digest(b"y")})
    rejected = verify_once(honest_bundle(), pinned, honest_challenge())
    assert not rejected.accepted
    accepted = verify_once(
        honest_bundle(), pinned, honest_challenge(), disabled_checks=frozenset({"C6"})
    )
    assert accepted.accepted
    assert accepted.checks_by_id()["C6"].detail == "disabled (diagnostic hook)"


def test_challenge_nonces_unique_and_deterministic():
    v1 = verifier.Verifier(honest_policy(), rng=random.Random(42))
    issued = []
    for _ in range(500):
        ch = v1.challenge()
        assert len(ch.td_nonce) == 32 and len(ch.tpm_nonce) == 32
        issued.append((ch.td_nonce, ch.tpm_nonce))
    assert len(set(issued)) == len(issued)
    # a second verifier on the same seed issues the same first challenge
    first = verifier.Verifier(honest_policy(), rng=random.Random(42)).challenge()
    assert (first.td_nonce, first.tpm_nonce) == issued[0]
    a = verifier.Verifier(honest_policy(), rng=random.Random(7)).challenge()
    b = verifier.Verifier(honest_policy(), rng=random.Random(7)).challenge()
    assert (a.td_nonce, a.tpm_nonce) == (b.td_nonce, b.tpm_nonce)


def test_verifier_marks_challenge_spent():
    v = verifier.Verifier(honest_policy(), rng=random.Random(1))
    bundle = honest_bundle()
    ch = honest_challenge()
    v.adopt_challenge(ch)
    first = v.verify(bundle, ch)
    assert first.accepted
    second = v.verify(bundle, ch)
    assert not second.accepted
    assert second.failed_checks() == ("C4",)
    assert second.checks_by_id()["C4"].detail == (
        "challenge was not issued by this verifier; challenge already consumed"
    )


def test_verifier_rejects_foreign_challenge():
    v = verifier.Verifier(honest_policy(), rng=random.Random(1))
    verdict = v.verify(honest_bundle(), honest_challenge())
    assert not verdict.accepted
    assert verdict.failed_checks() == ("C4",)
    assert verdict.checks_by_id()["C4"].detail == "challenge was not issued by this verifier"


def test_verdict_to_obj_shape():
    verdict = verify_once(honest_bundle(), honest_policy(), honest_challenge())
    obj = verdict.to_obj()
    assert obj["accepted"] is True
    assert [c["id"] for c in obj["checks"]] == [f"C{i}" for i in range(1, 9)]
    assert set(obj["goals"]) == {"AB", "F", "MC", "CV", "PO"}


def test_policy_roundtrip():
    policy = honest_policy()
    obj = json.loads(verifier.POLICY.encode(policy))
    back = verifier.POLICY.decode(obj, "$")
    assert back == policy


def test_policy_roundtrip_without_anchors_allowlist_or_mrconfigid_binding():
    policy = replace(
        honest_policy(),
        expected_pcr17_18=None,
        provider_allowlist=(),
        binding_channel=verifier.BindingChannel.REPORT_DATA,
        require_ak_registry_uniqueness=True,
    )
    obj = json.loads(verifier.POLICY.encode(policy))
    assert obj["expected_pcr17_18"] is None and obj["provider_allowlist"] == []
    assert verifier.POLICY.decode(obj, "$") == policy


def test_challenge_roundtrip():
    challenge = verifier.Challenge(td_nonce=TD_NONCE, tpm_nonce=TPM_NONCE, issued_at=12.5)
    obj = json.loads(verifier.CHALLENGE.encode(challenge))
    assert verifier.CHALLENGE.decode(obj, "$") == challenge


@pytest.mark.parametrize("td_len, tpm_len", [(31, 32), (32, 33), (0, 32)])
def test_a_challenge_refuses_a_nonce_of_another_width(td_len, tpm_len):
    with pytest.raises(ValueError, match="challenge nonces must be 32 bytes"):
        verifier.Challenge(td_nonce=b"\x0a" * td_len, tpm_nonce=b"\x0b" * tpm_len, issued_at=0.0)


@pytest.mark.parametrize("issued_at", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_a_challenge_refuses_a_non_finite_issued_at(issued_at):
    with pytest.raises(ValueError, match="issued_at must be finite"):
        verifier.Challenge(td_nonce=TD_NONCE, tpm_nonce=TPM_NONCE, issued_at=issued_at)
    v = verifier.Verifier(honest_policy(), rng=random.Random(1), clock=lambda: issued_at)
    with pytest.raises(ValueError, match="issued_at must be finite"):
        v.challenge()
    assert v._outstanding == {}


def test_registry_roundtrip_keeps_conflicts():
    registry = verifier.AkRegistry()
    first = verifier.RegistryEntry("plat-A", issuer="ca-1", registered_at=1.0)
    verifier.registry_register(registry, b"\x01" * 32, first)
    verifier.registry_register(registry, b"\x02" * 32, verifier.RegistryEntry("plat-B"))
    clone = verifier.RegistryEntry("plat-C", issuer="ca-2", registered_at=2.5)
    assert verifier.registry_register(registry, b"\x01" * 32, clone).status == "duplicate"
    assert registry.conflicts == {b"\x01" * 32: (clone,)}
    back = verifier.REGISTRY.decode(json.loads(verifier.REGISTRY.encode(registry)), "$")
    assert back == registry


# -- the verified-link memo of a long-lived Verifier --------------------------

ALL_CHECKS = frozenset(verifier.CHECK_IDS)

LIVE_CELLS = [("honest", d) for d in adversary.Deployment] + [
    (sid, dep) for sid, sc in adversary.SCENARIOS.items() for dep in sc.deployments
]


def next_bundle(world):
    """A fresh challenge and honest bundle from the world's platform."""
    outcome = adversary.attest_honest(world, disabled_checks=ALL_CHECKS)
    return outcome.bundle, outcome.challenge


def appraise(v, world, alter=lambda bundle: bundle):
    bundle, challenge = next_bundle(world)
    v.adopt_challenge(challenge)
    return v.verify(alter(bundle), challenge)


def new_verifier(world):
    v = verifier.Verifier(adversary.default_policy_for(world), rng=random.Random(5))
    for ak_public, entry in world.registrations:
        verifier.registry_register(v.registry, ak_public, entry)
    return v


def warm_verifier():
    """A world and a long-lived verifier that has accepted one of its bundles."""
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    v = new_verifier(world)
    assert appraise(v, world).accepted
    return world, v


def altered_claim(cert):
    """The certificate with its first claim changed and its signature kept."""
    (key, value), *rest = cert.claims
    return replace(cert, claims=((key, value + "-altered"),) + tuple(rest))


def alter_qe_leaf(bundle):
    chain = bundle.td_report.qe_chain
    qe_chain = crypto.CertChain((altered_claim(chain.leaf),) + chain.certs[1:])
    return replace(bundle, td_report=replace(bundle.td_report, qe_chain=qe_chain))


@pytest.mark.parametrize(
    "alter, check_id, detail",
    [
        (alter_qe_leaf, "C1", "TEE certificate chain: broken_link"),
        (lambda b: replace(b, ak_cert=altered_claim(b.ak_cert)),
         "C2", "AK provenance chain: broken_link"),
    ],
    ids=["qe_cert", "ak_cert"],
)
def test_memo_still_rejects_a_remembered_cert_with_an_altered_claim(alter, check_id, detail):
    world, v = warm_verifier()
    verdict = appraise(v, world, alter)
    assert verdict.failed_checks() == (check_id,)
    assert verdict.checks_by_id()[check_id].detail == detail


def reroot_qe_chain(bundle):
    """A QE chain with valid links up to a self-signed root nobody pinned."""
    fake_ca = crypto.keygen(b"fake-tee", crypto.KeyKind.CA)
    fake_qe = crypto.keygen(b"fake-qe", crypto.KeyKind.QE)
    chain = crypto.CertChain((
        crypto.issue_cert(fake_ca, fake_qe.public, {"role": "qe"}),
        crypto.issue_cert(fake_ca, fake_ca.public, {"role": "tee-root"}),
    ))
    report = replace(bundle.td_report, qe_chain=chain)
    report = replace(
        report, qe_signature=crypto.sign(fake_qe, td.report_signing_payload(report))
    )
    return replace(bundle, td_report=report)


def ek_chain_as_qe_chain(bundle):
    """Remembered links (the EK chain) offered under the TEE roots."""
    return replace(bundle, td_report=replace(bundle.td_report, qe_chain=bundle.ek_cert_chain))


@pytest.mark.parametrize(
    "alter", [reroot_qe_chain, ek_chain_as_qe_chain], ids=["new_links", "remembered_links"]
)
def test_memo_still_rejects_a_chain_to_an_unpinned_root(alter):
    world, v = warm_verifier()
    known = dict(v._known_links)
    verdict = appraise(v, world, alter)
    assert verdict.failed_checks() == ("C1",)
    assert verdict.checks_by_id()["C1"].detail == "TEE certificate chain: untrusted_root"
    assert v._known_links == known


def test_warm_appraisal_makes_two_verifies(monkeypatch):
    world, warm = warm_verifier()
    fresh = new_verifier(world)
    (b0, c0), (b1, c1), (b2, c2) = [next_bundle(world) for _ in range(3)]
    warm.adopt_challenge(c0)
    fresh.adopt_challenge(c1)
    calls = []
    real_verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real_verify(*args))

    def verifies(verify, bundle, challenge):
        calls.clear()
        assert verify(bundle, challenge).accepted
        return len(calls)

    assert verifies(warm.verify, b0, c0) == 2
    assert verifies(fresh.verify, b1, c1) == 7
    assert verifies(lambda b, c: verify_once(b, warm.policy, c), b2, c2) == 7


# Ed25519 verifies a fresh Verifier makes per live cell: honest and the C3-C8
# cells verify both chains and both signatures (7). A forged quote stops C2
# after its signature, and a chain to an unpinned root costs no verify:
# A1_report_forgery's QE chain leaves C2's four, and C2 tests A5_ek_spoof's
# EK anchor before its quote, which leaves C1's three.
FRESH_VERIFIES = {"A1_quote_forgery": 4, "A1_report_forgery": 4, "A5_ek_spoof": 3}


def test_a_fresh_verifier_spends_no_verify_on_an_unpinned_chain(monkeypatch):
    calls = []
    real_verify = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(args) or real_verify(*args))
    seen = {}
    for sid, dep in LIVE_CELLS:
        world = adversary.build_world(adversary.WorldConfig(seed=0, deployment=dep))
        if sid == "honest":
            out = adversary.attest_honest(world, disabled_checks=ALL_CHECKS)
        else:
            out = adversary.attest_attack(world, sid, disabled_checks=ALL_CHECKS)
        v = verifier.Verifier(out.policy)
        for ak_public, entry in world.registrations:
            verifier.registry_register(v.registry, ak_public, entry)
        v.adopt_challenge(out.challenge)
        calls.clear()
        verdict = v.verify(out.bundle, out.challenge)
        scenario = adversary.SCENARIOS.get(sid)
        assert verdict.failed_checks() == (() if scenario is None else (scenario.targeted_check,))
        seen[sid, dep.value] = len(calls)
    assert seen == {(sid, dep.value): FRESH_VERIFIES.get(sid, 7) for sid, dep in LIVE_CELLS}
    assert sum(seen.values()) == 89


def test_memo_never_grows_past_its_bound(monkeypatch):
    monkeypatch.setattr(verifier, "MAX_KNOWN_LINKS", 8)
    world, v = warm_verifier()  # 5 links: both roots and the QE, EK and AK certificates
    ek = world.vtpms["plat-A"].ek
    ak_cert = next_bundle(world)[0].ak_cert
    # twelve distinct AK certificates over one key: each is a new link
    ak_certs = [crypto.issue_cert(ek, ak_cert.subject_public,
                                  dict(ak_cert.claims + (("serial", str(serial)),)))
                for serial in range(12)]
    counts = Counts(monkeypatch)

    def verifies(ak_cert):
        bundle, challenge = next_bundle(world)
        v.adopt_challenge(challenge)
        counts.take()
        assert v.verify(replace(bundle, ak_cert=ak_cert), challenge).accepted
        assert len(v._known_links) <= verifier.MAX_KNOWN_LINKS
        return counts.take()["verify"]

    assert [verifies(cert) for cert in ak_certs] == [3] * 12
    # the first three were admitted; the memo was then full and admitted no more
    assert [(cert, ek.public) in v._known_links for cert in ak_certs] == [True] * 3 + [False] * 9
    known = dict(v._known_links)
    assert [verifies(cert) for cert in ak_certs] == [2] * 3 + [3] * 9
    assert v._known_links == known


# -- AK provenance across two platforms of one provider ------------------------

TWO_PLATFORM_CONFIGS = pytest.mark.parametrize(
    "config",
    [
        adversary.WorldConfig(seed=seed, deployment=deployment, binding_channel=channel)
        for seed in range(3)
        for deployment in adversary.Deployment
        for channel in verifier.BindingChannel
    ],
    ids=lambda c: f"seed{c.seed}-{c.deployment.value}-{c.binding_channel.value}",
)

# every bundle part a platform signs or certifies
SIGNED_PARTS = ("td_report", "tpm_quote", "ek_cert_chain", "ak_cert", "event_log")


def two_platforms(config):
    """A world whose second platform, plat-B, is enrolled too, and a challenge."""
    world = adversary.build_world(config)
    adversary._spawn_platform(world, "plat-B")
    return world, new_verifier(world).challenge()


def appraise_once(world, bundle, challenge):
    """Appraise through a fresh verifier that enrols every registration."""
    v = new_verifier(world)
    v.adopt_challenge(challenge)
    return v.verify(bundle, challenge)


@TWO_PLATFORM_CONFIGS
def test_c2_rejects_a_quote_under_another_platforms_ek_chain(config):
    world, challenge = two_platforms(config)
    borrowed = adversary._respond(
        world, challenge, "ek_borrow", ek_cert=world.vtpms["plat-B"].ek_cert
    )
    verdict = appraise_once(world, replace(borrowed, ak_cert=None), challenge)
    assert verdict.failed_checks() == ("C2",)
    assert "no AK certificate" in verdict.checks_by_id()["C2"].detail


@TWO_PLATFORM_CONFIGS
def test_only_one_platforms_own_parts_pass(config):
    # both platforms boot the reference stack and guest image, so their event
    # logs are equal: an accepted bundle is compared by value, not by origin
    world, challenge = two_platforms(config)
    own = [adversary._respond(world, challenge, "honest", pid) for pid in ("plat-A", "plat-B")]

    def parts(bundle):
        return tuple(getattr(bundle, name) for name in SIGNED_PARTS)

    own_parts = [parts(bundle) for bundle in own]
    accepted = []
    for sources in itertools.product(own, repeat=len(SIGNED_PARTS)):
        mixed = replace(
            own[0], **{name: getattr(src, name) for name, src in zip(SIGNED_PARTS, sources)}
        )
        for bundle in (mixed, replace(mixed, ak_cert=None)):
            if appraise_once(world, bundle, challenge).accepted:
                accepted.append(parts(bundle))
    assert all(p in own_parts for p in accepted)
    assert all(p in accepted for p in own_parts)


# -- the C5 memo of a long-lived Verifier --------------------------------------

def wire_trip(bundle):
    """The bundle as a verifier receives it: decoded from its wire bytes."""
    return evidence.deserialize(evidence.serialize(bundle))


def warm_wire_verifier():
    """A world and a long-lived verifier that has accepted one bundle decoded
    from emptied held texts, and that bundle."""
    empty_held_texts()
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    v = new_verifier(world)
    bundle, challenge = next_bundle(world)
    bundle = wire_trip(bundle)
    v.adopt_challenge(challenge)
    assert v.verify(bundle, challenge).accepted
    return world, v, bundle


def resign_report(world, report):
    return replace(report, qe_signature=crypto.sign(world.qe, td.report_signing_payload(report)))


def resign_quote(world, quote):
    key = world.vtpms["plat-A"].aks[world.ak_handles["plat-A"]].keypair
    payload = tpm.quote_signing_payload(quote.values, quote.nonce)
    return replace(quote, signature=crypto.sign(key, payload))


@pytest.mark.parametrize("attribute, detail", [
    ("td_attributes", "debug TD: td_attributes sets DEBUG"),
    ("seam_attributes", "debug TDX module: seam_attributes are not zero"),
], ids=["td", "seam"])
@pytest.mark.parametrize("config", [
    adversary.WorldConfig(deployment=deployment, binding_channel=channel)
    for deployment in adversary.Deployment for channel in verifier.BindingChannel
], ids=lambda c: f"{c.deployment.value}-{c.binding_channel.value}")
def test_c6_refuses_a_debug_td_or_tdx_module_signed_by_the_platforms_qe(config, attribute, detail):
    world = adversary.build_world(config)
    honest = adversary.attest_honest(world)
    assert honest.verdict.accepted
    report = honest.bundle.td_report
    assert getattr(report, attribute) == bytes(8)
    debug = resign_report(world, replace(report, **{attribute: b"\x01" + bytes(7)}))
    bundle = replace(honest.bundle, td_report=debug)
    verdict = verify_once(bundle, honest.policy, honest.challenge, honest.registry)
    assert verdict.failed_checks() == ("C6",)
    assert verdict.checks_by_id()["C6"].detail == detail
    # a launch anchor that differs too is named after the debug mode
    pinned = replace(honest.policy, expected_pcr17_18={17: crypto.digest(b"other")})
    verdict = verify_once(bundle, pinned, honest.challenge, honest.registry)
    assert verdict.checks_by_id()["C6"].detail == f"{detail}; PCR17 differs from the pinned value"


def alter_rtmr1(world, bundle):
    report = bundle.td_report
    rtmrs = list(report.rtmrs)
    rtmrs[1] = crypto.extend(rtmrs[1], crypto.digest(b"unlogged"))
    return replace(bundle, td_report=resign_report(world, replace(report, rtmrs=tuple(rtmrs))))


def alter_pcr2(world, bundle):
    quote = bundle.tpm_quote
    values = tuple((i, crypto.extend(d, crypto.digest(b"unlogged")) if i == 2 else d)
                   for i, d in quote.values)
    return replace(bundle, tpm_quote=resign_quote(world, replace(quote, values=values)))


@pytest.mark.parametrize("alter", [alter_rtmr1, alter_pcr2], ids=["rtmr1", "pcr2"])
def test_c5_memo_rejects_one_altered_register_under_the_held_log(alter):
    world, v, honest = warm_wire_verifier()
    bundle, challenge = next_bundle(world)
    bundle = wire_trip(alter(world, bundle))
    assert all(a is b for a, b in zip(bundle.event_log, honest.event_log))
    v.adopt_challenge(challenge)
    verdict = v.verify(bundle, challenge)
    assert verdict.failed_checks() == ("C5",)
    assert verdict.checks_by_id()["C5"].detail == "inconsistent registers: RTMR1"


def test_c5_memo_rejects_one_altered_log_entry_under_the_held_registers():
    world, v, honest = warm_wire_verifier()
    bundle, challenge = next_bundle(world)
    *rest, agent = bundle.event_log
    log = (*rest, replace(agent, event_digest=crypto.digest(b"unlogged")))
    bundle = wire_trip(replace(bundle, event_log=log))
    report, quote = bundle.td_report, bundle.tpm_quote
    assert all(a is b for a, b in zip(report.rtmrs, honest.td_report.rtmrs))
    assert all(a is b for (_, a), (_, b) in zip(quote.values, honest.tpm_quote.values))
    v.adopt_challenge(challenge)
    verdict = v.verify(bundle, challenge)
    assert verdict.failed_checks() == ("C5",)
    assert verdict.checks_by_id()["C5"].detail == "inconsistent registers: RTMR2"


def test_c5_memo_returns_the_remembered_result_object():
    world, v, honest = warm_wire_verifier()
    bundle, challenge = next_bundle(world)
    bundle = wire_trip(bundle)
    args = (bundle.td_report, bundle.tpm_quote, bundle.event_log)
    remembered = evidence.check_rtmr_pcr_consistency(*args, v._c5_memo)
    assert remembered is evidence.check_rtmr_pcr_consistency(
        honest.td_report, honest.tpm_quote, honest.event_log, v._c5_memo
    )
    assert remembered == evidence.check_rtmr_pcr_consistency(*args)


@pytest.mark.parametrize("sid, dep", LIVE_CELLS, ids=lambda c: getattr(c, "value", c))
def test_a_warm_verifier_gives_a_fresh_verifiers_verdict(sid, dep):
    assert len(LIVE_CELLS) == 15
    for seed in range(5):
        empty_held_texts()
        world = adversary.build_world(adversary.WorldConfig(seed=seed, deployment=dep))
        scenario = adversary.SCENARIOS.get(sid)
        policy = adversary.default_policy_for(world, scenario)
        warm = verifier.Verifier(policy, rng=random.Random(seed))
        for ak_public, entry in world.registrations:
            verifier.registry_register(warm.registry, ak_public, entry)
        challenge = warm.challenge()
        assert warm.verify(wire_trip(adversary._respond(world, challenge, "honest")),
                           challenge).accepted
        challenge = warm.challenge()
        if scenario is None:
            bundle = adversary._respond(world, challenge, "honest")
        else:
            bundle = scenario.generate(world, challenge)
        bundle = wire_trip(bundle)
        fresh = verifier.Verifier(policy)
        fresh.adopt_challenge(challenge)
        for v in (warm, fresh):
            for ak_public, entry in world.registrations:
                verifier.registry_register(v.registry, ak_public, entry)
        cold = fresh.verify(bundle, challenge)
        assert cold.failed_checks() == (() if scenario is None else (scenario.targeted_check,))
        assert warm.verify(bundle, challenge).to_obj() == cold.to_obj()


class Counts:
    """Counts calls of crypto.verify, extend steps folded by
    crypto.extend_registers, Digest objects built and RowResults built,
    while installed."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(("verify", "extend", "Digest", "RowResult"), 0)
        for owner, name, label in ((crypto, "verify", "verify"),
                                   (crypto.Digest, "__post_init__", "Digest"),
                                   (evidence, "RowResult", "RowResult")):
            monkeypatch.setattr(owner, name, self._counting(getattr(owner, name), label))
        monkeypatch.setattr(crypto, "extend_registers", self._counting_steps(crypto.extend_registers))

    def _counting(self, real, label):
        def counting(*args, **kwargs):
            self.calls[label] += 1
            return real(*args, **kwargs)
        return counting

    def _counting_steps(self, real):
        def counting(registers, steps):
            steps = list(steps)
            self.calls["extend"] += len(steps)
            return real(registers, steps)
        return counting

    def take(self):
        taken = dict(self.calls)
        self.calls.update(dict.fromkeys(self.calls, 0))
        return taken


def with_rtmr3_event(bundle, serial):
    """The bundle with one more guest event, into the reserved RTMR 3: C5
    replays it, but no row reads RTMR 3, so the bundle is still accepted."""
    entry = tpm.EventLogEntry(None, crypto.digest(b"rtmr3-%d" % serial), "rtmr3 event",
                              tpm.Scope.GUEST, rtmr_index=3)
    return replace(bundle, event_log=bundle.event_log + (entry,))


def test_c5_memo_never_grows_past_its_bound(monkeypatch):
    monkeypatch.setattr(verifier, "MAX_C5_MEMO", 8)
    world, v = warm_verifier()  # 2 entries: the replay and the rows

    def appraise_rtmr3(serial):
        bundle, challenge = next_bundle(world)
        bundle = with_rtmr3_event(bundle, serial)  # distinct values: two new keys
        v.adopt_challenge(challenge)
        assert v.verify(bundle, challenge).accepted
        assert len(v._c5_memo) <= verifier.MAX_C5_MEMO
        return bundle

    for serial in range(12):
        appraise_rtmr3(serial)
    held = dict(v._c5_memo)
    counts = Counts(monkeypatch)
    results = []
    real_check = evidence.check_rtmr_pcr_consistency
    monkeypatch.setattr(evidence, "check_rtmr_pcr_consistency",
                        lambda *args: results.append(real_check(*args)) or results[-1])
    for serial in range(12):
        counts.take()
        bundle = appraise_rtmr3(serial)  # a fresh bundle with the same C5 values
        built = counts.take()["RowResult"]
        # the first three were admitted and still hit; the rest are computed
        # again, correctly, and the full memo stores none of them
        assert built == (0 if serial < 3 else 4)
        assert any(results[-1] is stored for stored in held.values()) == (serial < 3)
        assert results[-1] == real_check(bundle.td_report, bundle.tpm_quote, bundle.event_log)
    assert v._c5_memo == held


def test_an_in_memory_bundle_appraised_again_replays_nothing_and_builds_no_rows(monkeypatch):
    # the prover's own objects, which no held text found: the memo keys
    # by value, so the second bundle from the platform hits
    world, v = warm_verifier()
    assert len(v._c5_memo) == 2  # the replay and the rows
    counts = Counts(monkeypatch)
    assert appraise(v, world).accepted
    taken = counts.take()
    assert (taken["extend"], taken["RowResult"]) == (0, 0)
    assert len(v._c5_memo) == 2


def test_a_warm_appraisal_replays_nothing_and_builds_no_rows(monkeypatch):
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    v = new_verifier(world)
    wires = [(evidence.serialize(b), c) for b, c in (next_bundle(world) for _ in range(3))]
    counts = Counts(monkeypatch)
    seen = []
    for wire, challenge in wires:
        counts.take()
        v.adopt_challenge(challenge)
        assert v.verify(evidence.deserialize(wire), challenge).accepted
        seen.append(counts.take())
    first, *warm = seen
    assert (first["verify"], first["extend"], first["RowResult"]) == (7, 11, 4)
    # a warm op builds two Digests: C3's digest of the quoting key, and the
    # decoded MRTD, which is no array or object, so the reader parses it again
    assert warm == [{"verify": 2, "extend": 0, "Digest": 2, "RowResult": 0}] * 2


def with_unlogged_guest_entries(bundle, serial, n=40):
    """The bundle with ``n`` more guest entries on RTMR 1 that no register
    reflects: C5 alone rejects it."""
    pcr = td.RTMR_PCR_MAP[1][0]
    junk = tuple(tpm.EventLogEntry(pcr, crypto.digest(b"junk-%d-%d" % (serial, i)), "junk",
                                   tpm.Scope.GUEST, rtmr_index=1) for i in range(n))
    return replace(bundle, event_log=bundle.event_log + junk)


def test_a_rejected_stream_stores_nothing_in_the_c5_memo(monkeypatch):
    # each rejected appraisal computes a replay and rows of its own; stored, 64
    # of them would fill the memo, and honest warm ops would replay again
    world = adversary.build_world(adversary.WorldConfig(seed=0, deployment=adversary.Deployment.S2))
    v = new_verifier(world)
    for serial in range(70):
        bundle, challenge = next_bundle(world)
        bundle = wire_trip(with_unlogged_guest_entries(bundle, serial))
        assert len(bundle.event_log) == 51 <= evidence.MAX_LOG_ENTRIES
        v.adopt_challenge(challenge)
        assert v.verify(bundle, challenge).failed_checks() == ("C5",)
    assert v._c5_memo == {}
    counts = Counts(monkeypatch)
    extends = []
    for _ in range(2):
        counts.take()
        bundle, challenge = next_bundle(world)
        v.adopt_challenge(challenge)
        assert v.verify(wire_trip(bundle), challenge).accepted
        extends.append(counts.take()["extend"])
    assert extends == [11, 0]
    assert len(v._c5_memo) == 2  # the replay and the rows


def test_an_appraisal_with_a_check_disabled_stores_nothing_in_the_c5_memo():
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    v = new_verifier(world)
    bundle, challenge = next_bundle(world)
    v.adopt_challenge(challenge)
    assert v.verify(bundle, challenge, frozenset({"C7"})).accepted
    assert v._c5_memo == {}
    assert appraise(v, world).accepted
    assert len(v._c5_memo) == 2


def late_timing(bundle):
    """The bundle with its quote received a second past its challenge: C7 alone rejects it."""
    late = bundle.timing.challenge_sent + 1000.0
    return replace(bundle, timing=replace(bundle.timing, quote_received=late))


def raising_c6(bundle, challenge, v):
    raise RuntimeError("check after C5 raised")


def test_a_rejected_raising_or_diagnostic_appraisal_leaves_both_memos_as_they_were(monkeypatch):
    # each bundle comes from a second platform, plat-B, and carries new C5
    # values that pass: C1 and C2 append its two links and C5 two entries,
    # which the appraisal then gives up, so each memo keeps what it held
    world, v = warm_verifier()
    adversary._spawn_platform(world, "plat-B")
    links, held = list(v._known_links), list(v._c5_memo.items())
    assert (len(links), len(held)) == (5, 2)  # see warm_verifier; the replay and the rows

    def appraise_b(serial, alter=lambda bundle: bundle, disabled=frozenset()):
        rng = random.Random(serial)
        challenge = verifier.Challenge(rng.randbytes(32), rng.randbytes(32), world.clock_ms)
        bundle = with_rtmr3_event(adversary._respond(world, challenge, "honest", "plat-B"), serial)
        new_links = [(bundle.ak_cert, bundle.ek_cert_chain.leaf.subject_public),
                     (bundle.ek_cert_chain.leaf, world.provider_root.subject_public)]
        assert not any(link in v._known_links for link in new_links)
        v.adopt_challenge(challenge)
        return v.verify(alter(bundle), challenge, disabled)

    def as_they_were():
        assert list(v._known_links) == links
        assert list(v._c5_memo.items()) == held
        assert all(a[1] is b[1] for a, b in zip(v._c5_memo.items(), held))

    assert appraise_b(0, late_timing).failed_checks() == ("C7",)
    as_they_were()
    assert appraise_b(1, disabled=frozenset({"C8"})).accepted
    as_they_were()
    rows = [row._replace(evaluate=raising_c6) if row.check_id == "C6" else row
            for row in verifier.CHECKS]
    monkeypatch.setattr(verifier, "CHECKS", tuple(rows))
    with pytest.raises(RuntimeError, match="check after C5 raised"):
        appraise_b(2)
    as_they_were()
    monkeypatch.undo()
    # a plat-B bundle accepted with nothing disabled appends its entries
    assert appraise_b(2).accepted
    assert (list(v._known_links)[:5], len(v._known_links)) == (links, 7)
    assert (list(v._c5_memo.items())[:2], len(v._c5_memo)) == (held, 4)


def test_entries_that_measure_one_image_into_two_registers_decode_apart(monkeypatch):
    # the host and the guest ``kernel`` entries of honest_pieces share an
    # event digest; the held log keeps both, and the C5 memo keys each by its
    # own scope and registers
    wire = evidence.serialize(honest_bundle())
    first, second = evidence.deserialize(wire), evidence.deserialize(wire)
    assert len(first.event_log) == 11
    assert [a is b for a, b in zip(first.event_log, second.event_log)] == [True] * 11
    v = verifier.Verifier(honest_policy())
    challenge = honest_challenge()
    v.adopt_challenge(challenge)
    assert v.verify(first, challenge).accepted
    counts = Counts(monkeypatch)
    assert v.verify(second, challenge).failed_checks() == ("C4",)  # the spent challenge
    assert counts.take()["extend"] == 0


def distinct_stack(world, platform_id):
    """The reference stack with every image made the platform's own."""
    images = astuple(world.reference_stack)
    return platform.HostStack(*[image + platform_id.encode() for image in images])


def warm_fleet_counts(monkeypatch, n, distinct=False):
    """One verifier, S2, world seed 7: n platforms answer round-robin twice.
    Returns the verifier and the counts per op of the second, warm round."""
    world = adversary.build_world(adversary.WorldConfig(seed=7))
    for i in range(1, n):
        pid = f"plat-{i}"
        adversary._spawn_platform(world, pid, stack=distinct_stack(world, pid) if distinct else None)
    policy = adversary.default_policy_for(world)
    v = verifier.Verifier(replace(policy, expected_pcr17_18=None) if distinct else policy)
    for ak_public, entry in world.registrations:
        verifier.registry_register(v.registry, ak_public, entry)
    counts = Counts(monkeypatch)
    for _ in range(2):
        counts.take()
        stored = len(v._c5_memo)
        for pid in world.platforms:
            challenge = v.challenge()
            wire = evidence.serialize(adversary._respond(world, challenge, "honest", pid))
            assert v.verify(evidence.deserialize(wire), challenge).accepted
    assert len(v._c5_memo) == stored  # the warm round stores nothing
    return v, {name: count / n for name, count in counts.take().items()}


@pytest.mark.parametrize(
    "n, distinct, rows_per_op, memo_entries",
    [
        # one shared replay and one set of rows for every reference-stack platform
        (8, False, 0.0, 2), (64, False, 0.0, 2), (200, False, 0.0, 2),
        # one shared replay and each platform's rows; past 256 digests in all,
        # a platform's PCR 17/18 values decode as new objects, and the memo,
        # keyed by value, still hits
        (8, True, 0.0, 9), (64, True, 0.0, 65),
    ],
    ids=str,
)
def test_counts_per_warm_op_at_fleet_scale(monkeypatch, n, distinct, rows_per_op, memo_entries):
    v, warm = warm_fleet_counts(monkeypatch, n, distinct)
    assert len(v._c5_memo) == memo_entries
    assert (warm["verify"], warm["extend"], warm["RowResult"]) == (2.0, 0.0, rows_per_op)


def test_a_full_link_memo_keeps_answering_for_the_platforms_it_admitted(monkeypatch):
    # the memo holds 3 shared links (the QE certificate and both roots) and 2
    # per platform (its AK certificate, then its EK certificate): 1,024 admit
    # the first 510 platforms whole and the next one's AK certificate, so on
    # a warm op the other 89 platforms verify both their links again and that
    # one platform its EK certificate
    n = 600
    v, warm = warm_fleet_counts(monkeypatch, n)
    assert len(v._known_links) == verifier.MAX_KNOWN_LINKS
    assert warm["verify"] == (2 * n + 2 * 89 + 1) / n
    assert (warm["extend"], warm["RowResult"]) == (0.0, 0.0)


# -- the challenge ledger of a long-lived Verifier ----------------------------

def ledger_size(v):
    return len(v._outstanding) + len(v._spent)


def test_a_fleet_verifiers_ledger_stays_within_its_bound():
    # each round on a platform issues its challenge one RTT budget after the
    # last, so at most two challenges are unexpired at once
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    v = new_verifier(world)
    for _ in range(300):
        assert appraise(v, world).accepted
        assert ledger_size(v) <= max(verifier.LEDGER_FLOOR, 2 * 2)


def expiry_detail(policy):
    return (
        f"challenge expired: issued more than {policy.rtt_threshold_ms:.1f}ms"
        " before the verifier's newest challenge"
    )


def c4(v, challenge):
    """C4 of appraising the honest bundle re-echoing ``challenge``; the other
    checks are disabled, as the bundle's signatures no longer cover it."""
    bundle = honest_bundle()
    echoed = replace(
        bundle,
        td_report=replace(
            bundle.td_report, report_data=evidence.encode_report_data(challenge.td_nonce)
        ),
        tpm_quote=replace(bundle.tpm_quote, nonce=challenge.tpm_nonce),
        nonces=evidence.Nonces(challenge.td_nonce, challenge.tpm_nonce),
    )
    return v.verify(echoed, challenge, ALL_CHECKS - {"C4"}).checks_by_id()["C4"]


def test_a_challenge_expires_past_one_budget_and_then_fails_c4_alike_held_or_pruned():
    policy = honest_policy()
    now = [0.0]
    v = verifier.Verifier(policy, rng=random.Random(3), clock=lambda: now[0])
    old = v.challenge()
    now[0] = policy.rtt_threshold_ms
    v.challenge()
    assert c4(v, old).passed  # exactly one budget old is still fresh
    now[0] += 1.0
    v.challenge()
    assert verifier._challenge_key(old) in v._spent
    held = c4(v, old)
    for _ in range(verifier.LEDGER_FLOOR):
        v.challenge()
    assert verifier._challenge_key(old) not in v._spent
    pruned = c4(v, old)
    assert not held.passed and not pruned.passed
    assert held.detail == pruned.detail == expiry_detail(policy)


class ChallengeLedger(RuleBasedStateMachine):
    """One long-lived Verifier whose challenges are issued, adopted,
    answered, replayed and re-adopted while its clock advances. The model
    keeps every key the ledger would hold if it never pruned."""

    def __init__(self):
        super().__init__()
        self.policy = honest_policy()
        self.wall = 0.0
        self.v = verifier.Verifier(self.policy, rng=random.Random(0), clock=lambda: self.wall)
        self.now = -math.inf  # the newest issued_at handed to the verifier
        self.outstanding = {}  # key -> challenge, as in the verifier's ledger
        self.spent = {}
        self.unanswered = []  # handed over once and not yet answered
        self.peak_unexpired = 0
        self.serial = 0

    def hand(self, challenge):
        self.now = max(self.now, challenge.issued_at)
        self.outstanding[verifier._challenge_key(challenge)] = challenge

    def appraise(self, challenge):
        key = verifier._challenge_key(challenge)
        self.outstanding.pop(key, None)
        self.spent[key] = challenge
        return c4(self.v, challenge)

    def expired(self, challenge):
        return self.now - challenge.issued_at > self.policy.rtt_threshold_ms

    @rule()
    def issue(self):
        challenge = self.v.challenge()
        self.hand(challenge)
        self.unanswered.append(challenge)

    # the clock moves in quarter budgets, so challenges often sit exactly one
    # budget from the newest
    @rule(quarters=st.integers(-8, 4))
    def adopt(self, quarters):
        self.serial += 1
        issued_at = max(self.now, 0.0) + quarters * self.policy.rtt_threshold_ms / 4
        challenge = verifier.Challenge(self.serial.to_bytes(32, "big"), bytes(32), issued_at)
        self.v.adopt_challenge(challenge)
        self.hand(challenge)
        self.unanswered.append(challenge)

    @rule(quarters=st.integers(0, 8))
    def advance_clock(self, quarters):
        self.wall += quarters * self.policy.rtt_threshold_ms / 4

    @precondition(lambda self: self.unanswered)
    @rule(data=st.data())
    def answer(self, data):
        challenge = self.unanswered.pop(data.draw(st.integers(0, len(self.unanswered) - 1)))
        expired = self.expired(challenge)
        result = self.appraise(challenge)
        if expired:
            assert not result.passed and result.detail == expiry_detail(self.policy)
        else:
            assert result.passed, result.detail

    @precondition(lambda self: self.spent)
    @rule(data=st.data())
    def replay(self, data):
        challenge = data.draw(st.sampled_from(list(self.spent.values())))
        result = self.appraise(challenge)
        assert not result.passed
        if self.expired(challenge):
            assert result.detail == expiry_detail(self.policy)
        else:
            assert result.detail.endswith("challenge already consumed")

    @precondition(lambda self: self.spent)
    @rule(data=st.data())
    def readopt_spent(self, data):
        challenge = data.draw(st.sampled_from(list(self.spent.values())))
        self.v.adopt_challenge(challenge)
        self.hand(challenge)

    @invariant()
    def ledger_holds_every_unexpired_key_and_stays_within_bound(self):
        assert self.v._now == self.now
        unexpired = 0
        for model, ledger in ((self.outstanding, self.v._outstanding), (self.spent, self.v._spent)):
            assert ledger.keys() <= model.keys()
            for key, challenge in model.items():
                if not self.expired(challenge):
                    assert ledger[key] == challenge.issued_at
                    unexpired += 1
        self.peak_unexpired = max(self.peak_unexpired, unexpired)
        assert ledger_size(self.v) <= max(verifier.LEDGER_FLOOR, 2 * self.peak_unexpired)


TestChallengeLedger = ChallengeLedger.TestCase
TestChallengeLedger.settings = settings(max_examples=60, stateful_step_count=80, deadline=None)


# -- the memo rule: one long-lived Verifier against a fresh one per appraisal ---

@functools.lru_cache(maxsize=None)
def appraisal_pool(deployment):
    """The policy of one world (seed 3) and bundles to appraise under it, each
    with its own challenge: honest answers from plat-A and plat-B, two of
    each with one more RTMR 3 event (new C5 values that pass), the same
    answers late (C7 alone rejects them), and one bundle of each live attack
    cell of the deployment. The policy does not require the registry, so
    A5_ak_clone's bundle is accepted. Every challenge is issued at 0, so none
    expires."""
    world = adversary.build_world(adversary.WorldConfig(seed=3, deployment=deployment))
    adversary._spawn_platform(world, "plat-B")
    rng = random.Random(3)
    pool = []

    def challenge():
        return verifier.Challenge(rng.randbytes(32), rng.randbytes(32), 0.0)

    for pid in ("plat-A", "plat-B"):
        for serial in range(3):
            c = challenge()
            bundle = adversary._respond(world, c, "honest", pid)
            pool.append((with_rtmr3_event(bundle, serial) if serial else bundle, c))
            if serial:
                c = challenge()
                late = late_timing(adversary._respond(world, c, "honest", pid))
                pool.append((with_rtmr3_event(late, serial), c))
    for sid, dep in LIVE_CELLS:
        if sid != "honest" and dep is deployment:
            c = challenge()
            pool.append((adversary.SCENARIOS[sid].generate(world, c), c))
    return adversary.default_policy_for(world), tuple(pool)


STEP_DISABLES = (None,) * 24 + verifier.CHECK_IDS


@pytest.mark.parametrize("deployment", adversary.Deployment, ids=lambda d: d.value)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    bounds=st.tuples(st.integers(2, 8), st.integers(1, 5)),
    # a replay draws a bundle again; one step in four disables a check
    steps=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(STEP_DISABLES)),
                   min_size=10, max_size=40),
)
def test_a_long_lived_verifier_gives_a_fresh_verifiers_verdicts_within_its_bounds(
    deployment, bounds, steps
):
    policy, pool = appraisal_pool(deployment)
    v, spent = verifier.Verifier(policy), {}
    with mock.patch.multiple(verifier, MAX_KNOWN_LINKS=bounds[0], MAX_C5_MEMO=bounds[1]):
        for index, disabled in steps:
            bundle, challenge = pool[index % len(pool)]
            disabled = frozenset([disabled] if disabled else [])
            # C4 as the long-lived ledger sees it: a replayed challenge is spent
            fresh = verifier.Verifier(policy)
            fresh._spent = dict(spent)
            key = verifier._challenge_key(challenge)
            if key not in spent:
                v.adopt_challenge(challenge)
                fresh.adopt_challenge(challenge)
            before = list(v._known_links), list(v._c5_memo.items())
            verdict = v.verify(bundle, challenge, disabled)
            assert verdict.to_obj() == fresh.verify(bundle, challenge, disabled).to_obj()
            spent[key] = challenge.issued_at
            after = list(v._known_links), list(v._c5_memo.items())
            assert [len(held) <= bound for held, bound in zip(after, bounds)] == [True, True]
            if verdict.accepted and not disabled:
                assert tuple(held[:len(was)] for held, was in zip(after, before)) == before
            else:
                assert after == before
