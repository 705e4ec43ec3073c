"""World simulation, honest attestation flows, and the attack scenarios.

The load-bearing property: every scenario is rejected with exactly its
targeted check failing, and flipping that one check off makes the same
bundle acceptable. That isolates what each check buys.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from dcea import adversary, cli, crypto, evidence, tpm, verifier
from dcea.adversary import Deployment, WorldConfig
from dcea.errors import UnknownScenario, WorldError

ALL_CASES = [
    (sid, dep)
    for sid, sc in adversary.SCENARIOS.items()
    for dep in sc.deployments
]


def world_for(dep, seed=11, **kw):
    return adversary.build_world(WorldConfig(seed=seed, deployment=dep, **kw))


# -- worlds and honest flows --------------------------------------------------

def test_world_determinism():
    a = adversary.attest_honest(world_for(Deployment.S2, seed=7))
    b = adversary.attest_honest(world_for(Deployment.S2, seed=7))
    assert evidence.serialize(a.bundle) == evidence.serialize(b.bundle)
    assert a.verdict == b.verdict
    c = adversary.attest_honest(world_for(Deployment.S2, seed=8))
    assert evidence.serialize(c.bundle) != evidence.serialize(a.bundle)


@pytest.mark.parametrize("dep", [Deployment.S1, Deployment.S2])
def test_honest_accepted(dep):
    out = adversary.attest_honest(world_for(dep))
    assert out.verdict.accepted, out.verdict.failed_checks()
    assert out.bundle.scenario_meta["scenario"] == "honest"
    assert out.bundle.scenario_meta["deployment"] == dep.value


def test_quoting_tpm_kind_follows_deployment():
    s1 = world_for(Deployment.S1)
    s2 = world_for(Deployment.S2)
    assert s1.vtpms["plat-A"].kind is tpm.TpmKind.VIRTUAL
    assert s2.vtpms["plat-A"].kind is tpm.TpmKind.DISCRETE


def test_honest_timing_hits_threshold_exactly():
    # quote RTT = 2 * one-way delay + quote latency; the default threshold
    # is exactly that, so honest responders sit on the boundary.
    out = adversary.attest_honest(world_for(Deployment.S2))
    rtt = out.bundle.timing.quote_received - out.bundle.timing.challenge_sent
    assert rtt == 550.0 + 2 * 12.0 == out.policy.rtt_threshold_ms
    out1 = adversary.attest_honest(world_for(Deployment.S1))
    rtt1 = out1.bundle.timing.quote_received - out1.bundle.timing.challenge_sent
    assert rtt1 == 300.0 + 2 * 12.0 == out1.policy.rtt_threshold_ms


def test_honest_report_data_channel():
    world = world_for(
        Deployment.S2, binding_channel=verifier.BindingChannel.REPORT_DATA
    )
    out = adversary.attest_honest(world)
    assert out.verdict.accepted
    # binding moved to the report_data tail; MRCONFIGID stays zero
    assert out.bundle.td_report.mrconfigid == b"\x00" * 48
    ak = out.bundle.tpm_quote.ak_public
    assert out.bundle.td_report.report_data[32:] == crypto.digest(ak).data[:32]


# -- scenario registry --------------------------------------------------------

def test_scenario_registry_shape():
    scenarios = adversary.SCENARIOS
    assert set(scenarios) == {
        "A1_quote_forgery",
        "A1_report_forgery",
        "A2_mix_match",
        "A2_frankenstein",
        "A3_register_desync",
        "A4_replay",
        "A5_ek_spoof",
        "A5_ak_substitute",
        "A5_ak_clone",
        "A6_stack_downgrade",
    }
    # between them the scenarios exercise every check
    assert {sc.targeted_check for sc in scenarios.values()} == {
        f"C{i}" for i in range(1, 9)
    }
    for sid, sc in scenarios.items():
        assert sid.startswith(sc.declared_attack)
        assert sc.declared_attack in verifier.CHECK_ATTACKS[sc.targeted_check]
        assert sc.description
    # per-deployment relevance
    both = {Deployment.S1, Deployment.S2}
    for sid, sc in scenarios.items():
        expected = both if sc.declared_attack in ("A1", "A3") else {Deployment.S2}
        assert set(sc.deployments) == expected, sid


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        adversary.attest_attack(world_for(Deployment.S2), "A9_nonsense")


def test_attack_irrelevant_in_deployment_raises():
    with pytest.raises(WorldError):
        adversary.attest_attack(world_for(Deployment.S1), "A4_replay")


# -- the core property: one attack, one failed check --------------------------

@pytest.mark.parametrize("sid,dep", ALL_CASES)
def test_attack_fails_exactly_its_targeted_check(sid, dep):
    sc = adversary.SCENARIOS[sid]
    out = adversary.attest_attack(world_for(dep), sid)
    assert not out.verdict.accepted
    assert out.verdict.failed_checks() == (sc.targeted_check,)
    assert sc.declared_attack in out.verdict.attack_flags
    assert out.bundle.scenario_meta["scenario"] == sid


@pytest.mark.parametrize("sid,dep", ALL_CASES)
def test_disabling_targeted_check_flips_verdict(sid, dep):
    sc = adversary.SCENARIOS[sid]
    out = adversary.attest_attack(
        world_for(dep), sid, disabled_checks=frozenset({sc.targeted_check})
    )
    assert out.verdict.accepted


# SHA-256 of serialize(bundle) for every live cell at world seed 0, with the
# checks its verdict fails. Any change to keys, signatures, event order or
# clock steps in the prover flows moves a digest.
CELL_DIGESTS = {
    ("honest", Deployment.S1):
        ("8c73337e49f5a42fb8313f8babbc1279666ba5fee7251a639e6c3444d997e2b4", ()),
    ("honest", Deployment.S2):
        ("4d9936600b98080c20b6573e8af2a489df9197b2eda444fea71c41362d5b9acb", ()),
    ("A1_quote_forgery", Deployment.S1):
        ("080ad70341cbe2b76dcde3e71facfb6c6e3913cd0402aac3c6c46bb6813514a6", ("C2",)),
    ("A1_quote_forgery", Deployment.S2):
        ("953e48e46c15a0c5c32f6aa5fba796ad016dbec9d9cac826f2236a30bb5e20f4", ("C2",)),
    ("A1_report_forgery", Deployment.S1):
        ("53c2ba8126bf0043af49e5ec141a51eda94e8f5f3e31a5131e479e9fc27180ed", ("C1",)),
    ("A1_report_forgery", Deployment.S2):
        ("9c1b58d88259fa37c397bc85035e533efd925e906ec3fe9d68b2a4b577a60a1f", ("C1",)),
    ("A2_mix_match", Deployment.S2):
        ("07088244352e64842f0fbad200c1116d9893ad7f431dc26fbfd9360c9c26a834", ("C3",)),
    ("A2_frankenstein", Deployment.S2):
        ("b7b6a0fc082781393cb16c5fbd6ddcfdda68e4a80d8c27a63c5ec38273286634", ("C7",)),
    ("A3_register_desync", Deployment.S1):
        ("2aae33f0be0ac81c4d42bbe4b6ef3d09a441feee039187e5c9367f25d7cdb014", ("C5",)),
    ("A3_register_desync", Deployment.S2):
        ("889fc116aa8631388cae51c351d10990309edeb894d23e7679e76a222eb93778", ("C5",)),
    ("A4_replay", Deployment.S2):
        ("7757c01b3fd86734eb6acc308cfb2844ef7c06e99aee81245141a06406084adf", ("C4",)),
    ("A5_ek_spoof", Deployment.S2):
        ("f5ae7d72d5c71d0e925a91acd1b82f00dedd89da7022716319ccf1576f3352b6", ("C2",)),
    ("A5_ak_substitute", Deployment.S2):
        ("c3d0b1360d4f45211c0cdcf096493320c8a64b9e274d75cfac2752c7a429113d", ("C3",)),
    ("A5_ak_clone", Deployment.S2):
        ("c2cd29ab55a7a6318a578b9626a8196357437347b7589840e97704ea2ae374e9", ("C8",)),
    ("A6_stack_downgrade", Deployment.S2):
        ("5180956f26fee49e9fd37ac394da578c8e0e7c7fc1345412bc62b0d41f75335f", ("C6",)),
}


def test_cell_digests_cover_every_live_cell():
    assert set(CELL_DIGESTS) == {("honest", d) for d in Deployment} | set(ALL_CASES)


def attest_cell(sid, dep, seed):
    world = world_for(dep, seed=seed)
    if sid == "honest":
        return adversary.attest_honest(world)
    return adversary.attest_attack(world, sid)


@pytest.mark.parametrize("sid,dep", sorted(CELL_DIGESTS, key=lambda c: (c[0], c[1].value)))
def test_cell_evidence_is_pinned(sid, dep):
    out = attest_cell(sid, dep, seed=0)
    digest = hashlib.sha256(evidence.serialize(out.bundle)).hexdigest()
    assert (digest, out.verdict.failed_checks()) == CELL_DIGESTS[(sid, dep)]


# The 15 cells the fifty-seed digests below cover, in matrix order (honest,
# then the scenario catalog, S1 before S2). The tuple is frozen so that a new
# scenario gets its own CELL_DIGESTS row while these digests keep proving
# that no byte of an old cell moved.
PINNED_MATRIX_CELLS = (
    ("honest", Deployment.S1),
    ("honest", Deployment.S2),
    ("A1_quote_forgery", Deployment.S1),
    ("A1_quote_forgery", Deployment.S2),
    ("A1_report_forgery", Deployment.S1),
    ("A1_report_forgery", Deployment.S2),
    ("A2_mix_match", Deployment.S2),
    ("A2_frankenstein", Deployment.S2),
    ("A3_register_desync", Deployment.S1),
    ("A3_register_desync", Deployment.S2),
    ("A4_replay", Deployment.S2),
    ("A5_ek_spoof", Deployment.S2),
    ("A5_ak_substitute", Deployment.S2),
    ("A5_ak_clone", Deployment.S2),
    ("A6_stack_downgrade", Deployment.S2),
)

# SHA-256 over serialize(bundle), and over the sorted-key JSON of each
# verdict, for every pinned cell at world seeds 0..49: cells in the order
# above, then seed. A refactor of the prover or verifier that moves any byte
# or verdict moves a digest.
MATRIX_BUNDLES_SHA256 = "66c959e431c2fa74c1fe41287d4ee81a3c07aab202cc0c3bfc522412a64885b1"
MATRIX_VERDICTS_SHA256 = "d7b93d8367465b10662aeb319a0eba9a62c719a1443d7117117a05985d81a72f"


def test_fifty_seed_matrix_bytes_and_verdicts_are_pinned():
    bundles, verdicts = hashlib.sha256(), hashlib.sha256()
    for sid, dep in PINNED_MATRIX_CELLS:
        for seed in range(50):
            out = attest_cell(sid, dep, seed)
            bundles.update(evidence.serialize(out.bundle))
            verdicts.update(json.dumps(out.verdict.to_obj(), sort_keys=True).encode())
    assert bundles.hexdigest() == MATRIX_BUNDLES_SHA256
    assert verdicts.hexdigest() == MATRIX_VERDICTS_SHA256


# SHA-256 over the sorted-key JSON of each cell's verification context
# (policy, challenge and the world's registry, as ``dcea run --policy``
# writes it), same cells and seeds as above. It covers the registry
# entries that the scenario generators enrol.
MATRIX_CONTEXTS_SHA256 = "18ddc7213efe5845ff554f9733d6b458ab7b847fae337066d35bf32586a0d47f"


def test_fifty_seed_matrix_contexts_are_pinned():
    contexts = hashlib.sha256()
    for sid, dep in PINNED_MATRIX_CELLS:
        for seed in range(50):
            world = world_for(dep, seed=seed)
            out = (
                adversary.attest_honest(world) if sid == "honest"
                else adversary.attest_attack(world, sid)
            )
            contexts.update(json.dumps(cli._context_obj(out), sort_keys=True).encode())
    assert contexts.hexdigest() == MATRIX_CONTEXTS_SHA256


# -- scenario-specific behavior ------------------------------------------------

def test_frankenstein_margin_scales_with_relay():
    for relay in (25.0, 40.0, 120.0):
        world = world_for(Deployment.S2, relay_delay_ms=relay)
        out = adversary.attest_attack(world, "A2_frankenstein")
        rtt = out.bundle.timing.quote_received - out.bundle.timing.challenge_sent
        assert rtt == out.policy.rtt_threshold_ms + 2 * relay
        assert out.verdict.failed_checks() == ("C7",)


def test_frankenstein_round_mirrors_only_its_spawned_platform(monkeypatch):
    # both rounds spawn one platform, whose launch and guest mirror make 21
    # extend steps; frankenstein's boot of a guest on plat-A feeds no TPM
    real_extend = tpm.pcr_extend_digest
    calls = []

    def counting_extend(state, *entries):
        calls.extend(entries)
        return real_extend(state, *entries)

    monkeypatch.setattr(tpm, "pcr_extend_digest", counting_extend)
    counts = {}
    for sid in ("A2_frankenstein", "A3_register_desync"):
        world = world_for(Deployment.S2, seed=0)
        calls.clear()
        adversary.attest_attack(world, sid)
        counts[sid] = len(calls)
    assert counts == {"A2_frankenstein": 21, "A3_register_desync": 21}


@pytest.mark.parametrize("tamper_index", [99, 6, -1])
def test_a_tamper_index_outside_the_guest_log_raises(tamper_index):
    # the guest log holds 6 entries: the firmware event and 5 boot events;
    # a mirror that tampers with nothing would be an honest one
    world = world_for(Deployment.S2, seed=0)
    with pytest.raises(WorldError, match="outside the 6-entry guest log"):
        adversary._spawn_platform(world, "plat-D", tamper_index=tamper_index)
    assert "plat-D" not in world.platforms and len(world.registrations) == 1


@pytest.mark.parametrize("dep", [Deployment.S1, Deployment.S2])
def test_a_spawned_vtpm_log_holds_its_sources_own_entries(dep):
    # the mirror appends the host TPM's PCR 17/18 entries and the guest log's
    # entries themselves; only the entry A3's host doctors is a new value
    world = world_for(dep, seed=3)
    adversary.attest_attack(world, "A3_register_desync")
    for pid in ("plat-A", "plat-D"):
        host = [e for e in world.platforms[pid].tpm.log if e.pcr_index in (17, 18)]
        guest_log = world.tds[pid].guest_log
        mirror = world.vtpms[pid].log
        assert len(host) == 5 and len(mirror) == len(host) + len(guest_log)
        assert all(m is h for m, h in zip(mirror, host))
        assert all(g is e for g, e in zip(guest_log[1:], world.guest_events))
        for i, (m, g) in enumerate(zip(mirror[len(host):], guest_log)):
            if pid == "plat-D" and i == adversary.TAMPER_EVENT_INDEX:
                assert m is not g and m.event_digest != g.event_digest
                assert m == replace(g, event_digest=m.event_digest)
            else:
                assert m is g


def test_mix_match_uses_two_platforms():
    out = adversary.attest_attack(world_for(Deployment.S2), "A2_mix_match")
    meta = out.bundle.scenario_meta
    assert meta["platform_id"] != "plat-A"  # quote side
    assert out.bundle.td_report.ppid == "ppid-" + crypto.digest(b"ppid:plat-A").hex()[:24]


def test_stack_downgrade_strands_provisioned_ak():
    out = adversary.attest_attack(world_for(Deployment.S2), "A6_stack_downgrade")
    assert out.bundle.scenario_meta["fallback"] == "policy-violation"
    quoted = out.bundle.tpm_quote.values_dict()
    pins = out.policy.expected_pcr17_18
    assert quoted[17] == pins[17]  # launch env untouched
    assert quoted[18] != pins[18]  # mutated hosting stack


def test_clone_recorded_as_registry_conflict():
    world = world_for(Deployment.S2)
    out = adversary.attest_attack(world, "A5_ak_clone")
    assert out.policy.require_ak_registry_uniqueness
    ak = out.bundle.tpm_quote.ak_public
    owners = [e.platform_id for pub, e in world.registrations if pub == ak]
    assert len(owners) == 2 and len(set(owners)) == 2


def test_replay_reuses_stale_nonces():
    world = world_for(Deployment.S2)
    out = adversary.attest_attack(world, "A4_replay")
    assert out.bundle.nonces.td_nonce != out.challenge.td_nonce
    assert out.bundle.tpm_quote.nonce != out.challenge.tpm_nonce
    # the stale bundle's own round trip was honest, so timing stays green
    rtt = out.bundle.timing.quote_received - out.bundle.timing.challenge_sent
    assert rtt <= out.policy.rtt_threshold_ms


def test_attacks_work_under_report_data_channel():
    for sid in ("A5_ak_substitute", "A2_mix_match"):
        world = world_for(
            Deployment.S2, binding_channel=verifier.BindingChannel.REPORT_DATA
        )
        out = adversary.attest_attack(world, sid)
        assert out.verdict.failed_checks() == ("C3",), sid


def test_default_policy_pins_reference_anchors():
    world = world_for(Deployment.S2)
    policy = adversary.default_policy_for(world)
    host = tpm.read_pcrs(world.platforms["plat-A"].tpm, [17, 18])
    assert policy.expected_pcr17_18 == {17: host[17], 18: host[18]}
    assert policy.provider_allowlist == ("examplecloud",)
