"""Deterministic attack harness: simulated worlds, honest flows, and the
attack scenario catalog.

A :class:`World` is one provider environment grown from an integer seed:
provider and TEE-vendor roots, a quoting enclave, a reference software
stack, and one honest launched platform (``plat-A``) with a booted guest.
Scenario generators may grow the world further (second platforms, rogue
CAs, rebooted hosts) and then produce the evidence bundle an adversary in
that position would submit.

Every scenario is engineered to fail exactly one verifier check under the
default policy, so the test suite can demonstrate that no check is
redundant: disable the targeted check and the same bundle passes.

The two deployments differ only in which kind of TPM serves the guest:

* ``S1`` -- a host-backed virtual TPM (fast quotes);
* ``S2`` -- a DCEA-capable discrete TPM (slow quotes).

Timing uses a virtual clock in milliseconds. An honest exchange takes one
network round trip plus the TPM's quote latency, which is exactly the
default verifier threshold; any relay hop pushes past it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from . import crypto, platform as platform_mod, td as td_mod, tpm as tpm_mod
from .crypto import CertChain, Certificate, KeyPair
from .errors import PolicyViolation, UnknownScenario, WorldError
from .evidence import EvidenceBundle, Nonces, Timing, encode_report_data
from .platform import HostStack, Platform
from .td import TdState
from .tpm import EventLogEntry, Scope, TpmKind, TpmState
from .verifier import (
    QUOTE_LATENCY_MS,
    AkRegistry,
    BindingChannel,
    Challenge,
    RegistryEntry,
    Verdict,
    Verifier,
    VerifierPolicy,
    default_rtt_threshold,
    registry_register,
)


class Deployment(enum.Enum):
    S1 = "S1"  # guest quotes through a host-backed virtual TPM
    S2 = "S2"  # guest quotes through a DCEA-capable discrete TPM


@dataclass(frozen=True)
class WorldConfig:
    seed: int = 0
    deployment: Deployment = Deployment.S2
    one_way_delay_ms: float = 12.0
    relay_delay_ms: float = 40.0
    binding_channel: BindingChannel = BindingChannel.MRCONFIGID


PROVIDER = "examplecloud"
REGION = "region-1"
TD_REPORT_LATENCY_MS = 50.0


@dataclass
class World:
    config: WorldConfig
    rng: random.Random
    clock_ms: float
    provider_ca: KeyPair
    provider_root: Certificate
    tee_root: Certificate
    qe: KeyPair
    qe_chain: CertChain
    reference_stack: HostStack
    guest_firmware: bytes
    guest_events: Tuple[EventLogEntry, ...]
    platforms: Dict[str, Platform] = field(default_factory=dict)
    vtpms: Dict[str, TpmState] = field(default_factory=dict)
    ak_handles: Dict[str, str] = field(default_factory=dict)
    tds: Dict[str, TdState] = field(default_factory=dict)
    bound_pubs: Dict[str, bytes] = field(default_factory=dict)
    registrations: List[Tuple[bytes, RegistryEntry]] = field(default_factory=list)


# (rtmr, pcr, label) for the canonical guest boot; payloads are seed-derived
GUEST_BOOT_PLAN = (
    (0, 1, "guest fw config"),
    (0, 7, "guest boot services"),
    (1, 2, "guest kernel"),
    (1, 3, "guest initrd"),
    (2, 8, "workload agent"),
)

TAMPER_EVENT_INDEX = 3  # guest-log position of the kernel event; lands in the RTMR1 row

QUOTE_SELECTION = tuple(range(16)) + tpm_mod.ANCHOR_PCRS


def _seed_bytes(config: WorldConfig, label: str) -> bytes:
    return crypto.digest(f"world:{config.seed}:{label}".encode()).data


def _reference_stack(config: WorldConfig) -> HostStack:
    def img(name: str) -> bytes:
        return _seed_bytes(config, f"img:{name}")

    return HostStack(
        firmware_image=img("firmware"),
        acm_image=img("acm"),
        seamldr_image=img("seamldr"),
        kernel_image=img("kernel"),
        hypervisor_image=img("hypervisor"),
        vtpm_binary=img("vtpm"),
    )


def quoting_kind(world: World) -> TpmKind:
    return TpmKind.VIRTUAL if world.config.deployment is Deployment.S1 else TpmKind.DISCRETE


def build_world(config: Optional[WorldConfig] = None) -> World:
    config = config or WorldConfig()
    provider_ca = crypto.keygen(_seed_bytes(config, "provider-ca"), crypto.KeyKind.CA)
    provider_root = crypto.issue_cert(
        provider_ca, provider_ca.public, {"role": "root", "provider": PROVIDER}
    )
    tee_ca = crypto.keygen(_seed_bytes(config, "tee-ca"), crypto.KeyKind.CA)
    tee_root = crypto.issue_cert(tee_ca, tee_ca.public, {"role": "tee-root"})
    qe = crypto.keygen(_seed_bytes(config, "qe"), crypto.KeyKind.QE)
    qe_chain = CertChain((crypto.issue_cert(tee_ca, qe.public, {"role": "qe"}), tee_root))
    events = tuple(
        EventLogEntry(pcr, crypto.digest(_seed_bytes(config, f"guest:{label}")), label,
                      Scope.GUEST, rtmr)
        for rtmr, pcr, label in GUEST_BOOT_PLAN
    )
    world = World(
        config=config,
        rng=random.Random(config.seed),
        clock_ms=0.0,
        provider_ca=provider_ca,
        provider_root=provider_root,
        tee_root=tee_root,
        qe=qe,
        qe_chain=qe_chain,
        reference_stack=_reference_stack(config),
        guest_firmware=_seed_bytes(config, "guest-firmware"),
        guest_events=events,
    )
    _spawn_platform(world, "plat-A")
    return world


# ---------------------------------------------------------------------------
# growing worlds
# ---------------------------------------------------------------------------

def _boot_guest(world: World, plat: Platform, bound_pub: bytes) -> TdState:
    """Launch a TD on ``plat`` that binds ``bound_pub``; boot it through the guest events."""
    launch_bind = bound_pub if world.config.binding_channel is BindingChannel.MRCONFIGID else None
    guest = td_mod.td_launch(plat, world.guest_firmware, ak_pub=launch_bind)
    return td_mod.rtmr_extend(guest, *world.guest_events)


def _spawn_platform(
    world: World,
    platform_id: str,
    stack: Optional[HostStack] = None,
    ca: Optional[KeyPair] = None,
    bind_ak_pub: Optional[bytes] = None,
    register: bool = True,
    tamper_index: Optional[int] = None,
    vtpm_seed: Optional[str] = None,
) -> None:
    """Launch a platform, give it a serving TPM (seed label ``vtpm_seed``,
    ``vtpm:<platform_id>`` by default), boot a guest on it and mirror its log
    into that TPM, and enrol the key the guest binds (``bind_ak_pub``, else
    its own AK) if ``register``. The mirror appends the guest log's own
    entries, except that it swaps in a doctored copy of the entry at
    ``tamper_index``, as a host that filters the mirror stream would; an
    index outside the guest log raises WorldError."""
    ca = ca or world.provider_ca
    device = tpm_mod.tpm_init(
        _seed_bytes(world.config, f"ek:{platform_id}"),
        ca,
        {"provider": PROVIDER, "platform_id": platform_id, "region": REGION},
    )
    plat = platform_mod.measured_launch(stack or world.reference_stack, device)
    vtpm = platform_mod.instantiate_vtpm(
        plat, ca, _seed_bytes(world.config, vtpm_seed or f"vtpm:{platform_id}"),
        kind=quoting_kind(world),
    )
    handle = tpm_mod.default_ak_handle(vtpm)
    bound = bind_ak_pub if bind_ak_pub is not None else vtpm.aks[handle].keypair.public
    guest = _boot_guest(world, plat, bound)
    mirror = list(guest.guest_log)
    if tamper_index is not None:
        if not 0 <= tamper_index < len(mirror):
            raise WorldError(
                f"tamper index {tamper_index} is outside the {len(mirror)}-entry guest log"
            )
        entry = mirror[tamper_index]
        filtered = crypto.digest(b"filtered:" + entry.event_digest.data)
        mirror[tamper_index] = replace(entry, event_digest=filtered)
    vtpm = tpm_mod.pcr_extend_digest(vtpm, *mirror)
    world.platforms[platform_id] = plat
    world.vtpms[platform_id] = vtpm
    world.ak_handles[platform_id] = handle
    world.tds[platform_id] = guest
    world.bound_pubs[platform_id] = bound
    if register:
        world.registrations.append(
            (bound, RegistryEntry(platform_id=platform_id, issuer=PROVIDER,
                                  registered_at=world.clock_ms))
        )


# ---------------------------------------------------------------------------
# bundle assembly
# ---------------------------------------------------------------------------

def _respond(
    world: World,
    challenge: Challenge,
    scenario_id: str,
    platform_id: str = "plat-A",
    *,
    guest: Optional[TdState] = None,
    bound_pub: Optional[bytes] = None,
    handle: Optional[str] = None,
    ek_cert: Optional[Certificate] = None,
    root_cert: Optional[Certificate] = None,
    extra_quote_delay_ms: float = 0.0,
    **meta_extra: str,
) -> EvidenceBundle:
    """Answer a challenge from ``platform_id``: the TD report, the quote of
    its serving TPM, its certificates, its host log plus the guest log, and
    the wire timing, which also advances the world clock.

    Each keyword is a part an adversary swaps in; left unset, the
    platform's own is used. ``handle`` picks the quoting AK and its
    certificate, and ``meta_extra`` lands in ``scenario_meta``.
    """
    cfg = world.config
    vtpm = world.vtpms[platform_id]
    guest = world.tds[platform_id] if guest is None else guest
    bound_pub = world.bound_pubs[platform_id] if bound_pub is None else bound_pub
    handle = world.ak_handles[platform_id] if handle is None else handle

    if cfg.binding_channel is BindingChannel.REPORT_DATA:
        rd = encode_report_data(challenge.td_nonce, binding=crypto.digest(bound_pub).data[:32])
    else:
        rd = encode_report_data(challenge.td_nonce)
    report = td_mod.td_report(guest, rd, world.qe, world.qe_chain)
    quote = tpm_mod.tpm_quote(vtpm, handle, QUOTE_SELECTION, challenge.tpm_nonce)

    t0 = challenge.issued_at
    rtt = 2 * cfg.one_way_delay_ms
    timing = Timing(
        challenge_sent=t0,
        td_received=t0 + rtt + TD_REPORT_LATENCY_MS,
        quote_received=t0 + rtt + QUOTE_LATENCY_MS[quoting_kind(world)] + extra_quote_delay_ms,
    )
    world.clock_ms = max(world.clock_ms, timing.td_received, timing.quote_received)
    return EvidenceBundle(
        td_report=report,
        tpm_quote=quote,
        ek_cert_chain=CertChain((ek_cert or vtpm.ek_cert, root_cert or world.provider_root)),
        ak_cert=vtpm.aks[handle].ak_cert,
        event_log=tuple(e for e in vtpm.log if e.scope is Scope.HOST) + guest.guest_log,
        nonces=Nonces(challenge.td_nonce, challenge.tpm_nonce),
        timing=timing,
        scenario_meta={
            "scenario": scenario_id,
            "deployment": cfg.deployment.value,
            "platform_id": platform_id,
            "seed": str(cfg.seed),
            **meta_extra,
        },
    )


# ---------------------------------------------------------------------------
# scenario catalog: each generator declares its scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackScenario:
    scenario_id: str
    targeted_check: str
    deployments: Tuple[Deployment, ...]
    description: str
    generate: Callable[[World, Challenge], EvidenceBundle]
    policy_overrides: Mapping[str, object] = field(default_factory=dict)

    @property
    def declared_attack(self) -> str:  # the attack class: the id's prefix
        return self.scenario_id.split("_", 1)[0]


# in declaration order, which the matrix and its digests follow
SCENARIOS: Dict[str, AttackScenario] = {}

_BOTH, _S2 = tuple(Deployment), (Deployment.S2,)


def _scenario(scenario_id: str, targeted_check: str, deployments: Tuple[Deployment, ...],
              description: str, **policy_overrides: object):
    """Declare the decorated generator's scenario and enter it into ``SCENARIOS``."""
    def enter(generate: Callable[[World, Challenge], EvidenceBundle]):
        SCENARIOS[scenario_id] = AttackScenario(
            scenario_id, targeted_check, deployments, description, generate, policy_overrides
        )
        return generate
    return enter


@_scenario("A1_quote_forgery", "C2", _BOTH,
           "fabricated TPM quote: honest structure, forged signature")
def _gen_quote_forgery(world: World, challenge: Challenge) -> EvidenceBundle:
    # the adversary cannot reach the sealed key: the signature is junk of the right size
    bundle = _respond(world, challenge, "A1_quote_forgery")
    junk = (_seed_bytes(world.config, "forged-sig-a") + _seed_bytes(world.config, "forged-sig-b"))[:64]
    return replace(bundle, tpm_quote=replace(bundle.tpm_quote, signature=junk))


@_scenario("A1_report_forgery", "C1", _BOTH,
           "fabricated TD report signed by a self-minted quoting-enclave chain")
def _gen_report_forgery(world: World, challenge: Challenge) -> EvidenceBundle:
    bundle = _respond(world, challenge, "A1_report_forgery")
    rogue_ca = crypto.keygen(_seed_bytes(world.config, "rogue-tee-ca"), crypto.KeyKind.CA)
    rogue_qe = crypto.keygen(_seed_bytes(world.config, "rogue-qe"), crypto.KeyKind.QE)
    rogue_chain = CertChain((
        crypto.issue_cert(rogue_ca, rogue_qe.public, {"role": "qe"}),
        crypto.issue_cert(rogue_ca, rogue_ca.public, {"role": "tee-root"}),
    ))
    unsigned = replace(bundle.td_report, qe_chain=rogue_chain, qe_signature=b"")
    signed = replace(
        unsigned,
        qe_signature=crypto.sign(rogue_qe, td_mod.report_signing_payload(unsigned)),
    )
    return replace(bundle, td_report=signed)


@_scenario("A2_mix_match", "C3", _S2,
           "TD report from one machine paired with a live quote from another")
def _gen_mix_match(world: World, challenge: Challenge) -> EvidenceBundle:
    # identical stacks and parallel queries keep everything but the key binding green
    _spawn_platform(world, "plat-B")
    return _respond(
        world, challenge, "A2_mix_match", "plat-B",
        guest=world.tds["plat-A"], bound_pub=world.bound_pubs["plat-A"],
    )


@_scenario("A2_frankenstein", "C7", _S2,
           "local TD vouches for a remote platform's AK; quotes relayed over the wire")
def _gen_frankenstein(world: World, challenge: Challenge) -> EvidenceBundle:
    # the remote platform is honest: only the wire time gives the relay away
    _spawn_platform(world, "plat-R")
    guest = _boot_guest(world, world.platforms["plat-A"], world.bound_pubs["plat-R"])
    return _respond(
        world, challenge, "A2_frankenstein", "plat-R",
        guest=guest, extra_quote_delay_ms=2 * world.config.relay_delay_ms,
    )


@_scenario("A3_register_desync", "C5", _BOTH,
           "host filters one guest event out of the PCR mirror stream")
def _gen_register_desync(world: World, challenge: Challenge) -> EvidenceBundle:
    # the two measurement views stop describing the same boot
    _spawn_platform(world, "plat-D", tamper_index=TAMPER_EVENT_INDEX)
    return _respond(world, challenge, "A3_register_desync", "plat-D")


@_scenario("A4_replay", "C4", _S2,
           "previously captured bundle resubmitted against a new challenge")
def _gen_replay(world: World, challenge: Challenge) -> EvidenceBundle:
    stale = Challenge(
        td_nonce=world.rng.randbytes(32),
        tpm_nonce=world.rng.randbytes(32),
        issued_at=world.clock_ms,
    )
    return _respond(world, stale, "A4_replay")


@_scenario("A5_ek_spoof", "C2", _S2,
           "platform endorsed by a rogue CA that impersonates the provider by name")
def _gen_ek_spoof(world: World, challenge: Challenge) -> EvidenceBundle:
    # the chain verifies but roots nowhere trusted
    rogue_ca = crypto.keygen(_seed_bytes(world.config, "rogue-provider-ca"), crypto.KeyKind.CA)
    rogue_root = crypto.issue_cert(
        rogue_ca, rogue_ca.public, {"role": "root", "provider": PROVIDER}
    )
    _spawn_platform(world, "plat-E", ca=rogue_ca, register=False)
    return _respond(world, challenge, "A5_ek_spoof", "plat-E", root_cert=rogue_root)


@_scenario("A5_ak_substitute", "C3", _S2,
           "quote made with a second certified AK the TD never bound")
def _gen_ak_substitute(world: World, challenge: Challenge) -> EvidenceBundle:
    # certification alone doesn't tie a key to a guest
    _spawn_platform(world, "plat-S")
    vtpm_s, handle2 = tpm_mod.create_sealed_ak(
        world.vtpms["plat-S"],
        _seed_bytes(world.config, "substitute-ak"),
        tpm_mod.ANCHOR_PCRS,
        cert_claims={"platform_id": "plat-S"},
    )
    world.vtpms["plat-S"] = vtpm_s
    return _respond(world, challenge, "A5_ak_substitute", "plat-S", handle=handle2)


@_scenario("A5_ak_clone", "C8", _S2,
           "victim's sealed AK cloned onto a second platform and enrolled again",
           require_ak_registry_uniqueness=True)
def _gen_ak_clone(world: World, challenge: Challenge) -> EvidenceBundle:
    # the second platform has the same stack; every signature checks out,
    # only the registry notices
    victim_vtpm = world.vtpms["plat-A"]
    sealed = victim_vtpm.aks[world.ak_handles["plat-A"]]
    _spawn_platform(world, "plat-C", bind_ak_pub=sealed.keypair.public)
    world.vtpms["plat-C"] = tpm_mod.install_sealed_ak(world.vtpms["plat-C"], "ak-stolen", sealed)
    # the adversary replays the victim's public certificates
    return _respond(
        world, challenge, "A5_ak_clone", "plat-C",
        handle="ak-stolen", ek_cert=victim_vtpm.ek_cert,
    )


@_scenario("A6_stack_downgrade", "C6", _S2,
           "host rebooted into a patched hypervisor; a fresh AK is sealed to the live state")
def _gen_stack_downgrade(world: World, challenge: Challenge) -> EvidenceBundle:
    # the AK provisioned on the reference stack strands on its sealed policy,
    # so the adversary quotes with a fresh one: only the pinned anchors disagree
    _spawn_platform(world, "plat-M", register=False)
    provisioned = world.vtpms["plat-M"].aks[world.ak_handles["plat-M"]]

    mutated = replace(
        world.reference_stack,
        hypervisor_image=world.reference_stack.hypervisor_image + b"-patched",
    )
    _spawn_platform(
        world, "plat-M", stack=mutated, register=False, vtpm_seed="vtpm:plat-M:reboot"
    )
    vtpm = tpm_mod.install_sealed_ak(world.vtpms["plat-M"], "ak-provisioned", provisioned)
    try:
        tpm_mod.tpm_quote(vtpm, "ak-provisioned", QUOTE_SELECTION, challenge.tpm_nonce)
        raise WorldError("provisioned AK quoted on a mutated stack; sealing is broken")
    except PolicyViolation:
        pass
    world.vtpms["plat-M"] = vtpm
    return _respond(
        world, challenge, "A6_stack_downgrade", "plat-M", fallback="policy-violation"
    )


# ---------------------------------------------------------------------------
# attestation rounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    bundle: EvidenceBundle
    challenge: Challenge
    policy: VerifierPolicy
    verdict: Verdict
    registry: AkRegistry  # the registry the verdict was appraised under


def default_policy_for(world: World, scenario: Optional[AttackScenario] = None) -> VerifierPolicy:
    """The policy a relying party would pin for this world: the provider and
    TEE roots, the reference stack's launch anchors, and the tight physical
    round-trip budget. Scenario overrides (e.g. requiring the registry) are
    applied on top."""
    cfg = world.config
    host = world.platforms["plat-A"].tpm
    policy = VerifierPolicy(
        trusted_tee_roots=(world.tee_root,),
        trusted_provider_roots=(world.provider_root,),
        expected_pcr17_18={i: host.pcrs.value(i) for i in tpm_mod.ANCHOR_PCRS},
        rtt_threshold_ms=default_rtt_threshold(quoting_kind(world), cfg.one_way_delay_ms),
        binding_channel=cfg.binding_channel,
        provider_allowlist=(PROVIDER,),
    )
    if scenario is not None and scenario.policy_overrides:
        policy = replace(policy, **scenario.policy_overrides)
    return policy


def _attest(world: World, scenario: Optional[AttackScenario], disabled_checks) -> Outcome:
    policy = default_policy_for(world, scenario)
    verifier = Verifier(
        policy,
        rng=random.Random(world.rng.getrandbits(64)),
        clock=lambda: world.clock_ms,
    )
    challenge = verifier.challenge()
    if scenario is None:
        bundle = _respond(world, challenge, "honest")
    else:
        bundle = scenario.generate(world, challenge)
    for ak_pub, entry in world.registrations:
        registry_register(verifier.registry, ak_pub, entry)
    verdict = verifier.verify(bundle, challenge, disabled_checks=frozenset(disabled_checks))
    return Outcome(bundle, challenge, policy, verdict, verifier.registry)


def attest_honest(world: World, disabled_checks=frozenset()) -> Outcome:
    """One protocol-following challenge/response round on plat-A."""
    return _attest(world, None, disabled_checks)


def attest_attack(world: World, scenario_id: str, disabled_checks=frozenset()) -> Outcome:
    """One round where the adversary of the named scenario answers."""
    scenario = SCENARIOS.get(scenario_id)
    if scenario is None:
        raise UnknownScenario(
            f"no scenario named {scenario_id!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    if world.config.deployment not in scenario.deployments:
        raise WorldError(
            f"{scenario_id} is not applicable in deployment "
            f"{world.config.deployment.value}"
        )
    return _attest(world, scenario, disabled_checks)
