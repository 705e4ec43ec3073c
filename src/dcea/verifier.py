"""The composite-evidence verifier.

Eight independent checks (C1..C8) run over every bundle with no
short-circuiting, so a rejection always reports the full set of failures.
Each check maps to the attack classes it can catch; the verdict carries
the union of those flags plus a per-goal breakdown derived from them.

Checks, by what they decide:

* C1 -- the TD report is signed by a quoting enclave chaining to a
  trusted TEE vendor root.
* C2 -- the TPM quote verifies under its attestation key, and that key's
  certificate chains through the presented EK chain to a trusted
  platform-provider root. A bundle without an AK certificate fails.
* C3 -- the TD runs on the chassis an EK ``ppid`` claim endorses, if any,
  and its launch configuration binds the quoting key (MRCONFIGID carries
  digest(AK_public), or the report_data tail does, per binding channel).
* C4 -- both halves of the challenge are echoed verbatim, the challenge
  has not been consumed before, and it has not expired (see ``Verifier``).
* C5 -- the TD's runtime registers and the quoted PCRs are two views of
  the same event stream (see ``evidence.check_rtmr_pcr_consistency``).
* C6 -- the TD and the TDX module run in production mode (DEBUG, bit 0
  of td_attributes, is clear, and seam_attributes are zero), and the
  quoted launch anchors (PCR 17 and 18) equal the values the relying
  party pinned for this host configuration.
* C7 -- the challenge round-trip stayed within the physical budget for a
  co-located TPM; a relay to a second machine cannot.
* C8 -- optionally, the quoting key is registered to exactly one
  platform.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from . import crypto, evidence, td, tpm
from .crypto import Certificate, Digest
from .errors import DceaError
from .evidence import (
    BOOLEAN,
    CERT,
    DIGEST,
    NONCE,
    NUMBER,
    STRING,
    EvidenceBundle,
    checked,
    enum_of,
    hex_bytes,
    list_of,
    map_of,
    optional,
    record,
    wrap,
)
from .tpm import TpmKind

GOALS = ("AB", "F", "MC", "CV", "PO")

# Which security goals each attack class undermines when it succeeds.
ATTACK_GOALS: Mapping[str, FrozenSet[str]] = {
    "A1": frozenset({"AB", "MC"}),
    "A2": frozenset({"AB", "F", "CV", "PO"}),
    "A3": frozenset({"MC", "AB"}),
    "A4": frozenset({"CV", "F"}),
    "A5": frozenset({"AB", "PO"}),
    "A6": frozenset({"AB", "MC"}),
}

# Baseline quote latency (milliseconds) by TPM kind: a discrete part is
# slow silicon, a virtual one is a software round trip on the same host.
QUOTE_LATENCY_MS: Mapping[TpmKind, float] = {
    TpmKind.DISCRETE: 550.0,
    TpmKind.VIRTUAL: 300.0,
}


def default_rtt_threshold(kind: TpmKind, one_way_delay_ms: float) -> float:
    """Tightest budget an honest responder can always meet: quote latency
    plus one network round trip."""
    return QUOTE_LATENCY_MS[kind] + 2.0 * one_way_delay_ms


class BindingChannel(enum.Enum):
    MRCONFIGID = "mrconfigid"
    REPORT_DATA = "report_data"


@dataclass(frozen=True)
class Challenge:
    td_nonce: bytes
    tpm_nonce: bytes
    issued_at: float

    def __post_init__(self):
        # fixed widths keep the ledger key td_nonce + tpm_nonce one-to-one
        if len(self.td_nonce) != evidence.NONCE_LEN or len(self.tpm_nonce) != evidence.NONCE_LEN:
            raise ValueError(f"challenge nonces must be {evidence.NONCE_LEN} bytes")
        # the ledger ages keys by issued_at, and a NaN or infinite one never ages
        if not math.isfinite(self.issued_at):
            raise ValueError(f"challenge issued_at must be finite, not {self.issued_at!r}")


def _challenge_key(challenge: Challenge) -> bytes:
    return challenge.td_nonce + challenge.tpm_nonce


# the fewest keys at which a Verifier's challenge ledger prunes expired ones
LEDGER_FLOOR = 16

# the most entries each memo of a Verifier keeps (see verify_bundle)
MAX_KNOWN_LINKS = 1024  # verified certificate links
MAX_C5_MEMO = 128  # replay and consistency results together


@dataclass(frozen=True)
class VerifierPolicy:
    """Everything a relying party pins before looking at evidence."""

    trusted_tee_roots: Tuple[Certificate, ...]
    trusted_provider_roots: Tuple[Certificate, ...]
    expected_pcr17_18: Optional[Mapping[int, Digest]]
    rtt_threshold_ms: float
    require_ak_registry_uniqueness: bool = False
    binding_channel: BindingChannel = BindingChannel.MRCONFIGID
    provider_allowlist: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    checks: Tuple[CheckResult, ...]
    attack_flags: FrozenSet[str]
    goals: Mapping[str, bool]

    def checks_by_id(self) -> Dict[str, CheckResult]:
        return {c.check_id: c for c in self.checks}

    def failed_checks(self) -> Tuple[str, ...]:
        return tuple(c.check_id for c in self.checks if not c.passed)

    def to_obj(self) -> dict:
        return {
            "accepted": self.accepted,
            "checks": [
                {"id": c.check_id, "name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "attack_flags": sorted(self.attack_flags),
            "goals": dict(self.goals),
        }


# ---------------------------------------------------------------------------
# AK registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistryEntry:
    platform_id: str
    issuer: str = ""
    registered_at: float = 0.0


@dataclass
class AkRegistry:
    """First-writer-wins map from AK public key to owning platform.

    A second registration under a different platform id is recorded as a
    conflict and keeps poisoning C8 for that key afterwards."""

    entries: Dict[bytes, RegistryEntry] = field(default_factory=dict)
    conflicts: Dict[bytes, Tuple[RegistryEntry, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class RegisterResult:
    status: str  # "registered" | "duplicate"
    existing: Optional[RegistryEntry] = None


def registry_register(
    registry: AkRegistry, ak_public: bytes, entry: RegistryEntry
) -> RegisterResult:
    existing = registry.entries.get(ak_public)
    if existing is None:
        registry.entries[ak_public] = entry
        return RegisterResult(status="registered", existing=entry)
    if existing.platform_id == entry.platform_id:
        return RegisterResult(status="registered", existing=existing)
    registry.conflicts[ak_public] = registry.conflicts.get(ak_public, ()) + (entry,)
    return RegisterResult(status="duplicate", existing=existing)


# ---------------------------------------------------------------------------
# the eight checks
# ---------------------------------------------------------------------------

# Every check reads (bundle, challenge, verifier) and returns (passed, detail).

def _check_c1(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    verdict = crypto.verify_chain(
        bundle.td_report.qe_chain, verifier.policy.trusted_tee_roots, verifier._known_links
    )
    if not verdict.ok:
        return False, f"TEE certificate chain: {verdict.status.value}"
    if not td.verify_td_report_signature(bundle.td_report):
        return False, "TD report signature does not verify under the QE key"
    return True, "TD report signed by a quoting enclave with a trusted root"


def _check_c2(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    policy, known_links = verifier.policy, verifier._known_links
    ek_chain = bundle.ek_cert_chain
    # the provider anchor first, as verify_chain tests it: a chain under an
    # unpinned root fails however the quote stands, so no verify is spent on it
    if ek_chain[-1] not in policy.trusted_provider_roots:
        return False, f"AK provenance chain: {crypto.ChainStatus.UNTRUSTED_ROOT.value}"
    quote = bundle.tpm_quote
    if not tpm.verify_quote_signature(quote):
        return False, "quote signature does not verify under the presented AK"
    if policy.provider_allowlist:
        provider = ek_chain[0].claims_dict().get("provider")
        if provider not in policy.provider_allowlist:
            return False, f"EK provider {provider!r} is not on the allowlist"
    if bundle.ak_cert is None:
        return False, "no AK certificate: the quoting key is not certified by the EK"
    if bundle.ak_cert.subject_public != quote.ak_public:
        return False, "AK certificate covers a different key than the quote"
    full = (bundle.ak_cert,) + ek_chain
    verdict = crypto.verify_chain(full, policy.trusted_provider_roots, known_links)
    if not verdict.ok:
        return False, f"AK provenance chain: {verdict.status.value}"
    return True, "quote verified; AK chains to a trusted provider root"


def _check_c3(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    """Same chassis, then key binding. An EK leaf's ``ppid`` claim, the provider's
    endorsement of the chassis that holds the TPM, must equal the report's signed
    ``ppid``; a leaf without the claim endorses no chassis, and the rule passes."""
    ppid = bundle.td_report.ppid
    endorsed = bundle.ek_cert_chain[0].claims_dict().get("ppid", ppid)
    if endorsed != ppid:
        return False, f"TD report ppid {ppid!r} is not the EK's endorsed chassis {endorsed!r}"
    want = crypto.digest(bundle.tpm_quote.ak_public)
    if verifier.policy.binding_channel is BindingChannel.MRCONFIGID:
        if bundle.td_report.mrconfigid == want.data:
            return True, "MRCONFIGID carries digest(AK_public)"
        return False, "MRCONFIGID does not bind the quoting key"
    tail = bundle.td_report.report_data[evidence.RD_TAIL]
    if tail == want.data[:32]:
        return True, "report_data tail carries digest(AK_public)"
    return False, "report_data tail does not bind the quoting key"


def _check_c4(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    key = _challenge_key(challenge)
    problems: List[str] = []
    # an expired key may or may not still be held, so the ledger is not read
    expired = verifier._expired(challenge.issued_at)
    if expired:
        problems.append(
            f"challenge expired: issued more than {verifier.policy.rtt_threshold_ms:.1f}ms"
            " before the verifier's newest challenge"
        )
    elif key not in verifier._outstanding:
        problems.append("challenge was not issued by this verifier")
    if bundle.td_report.report_data[evidence.RD_NONCE] != challenge.td_nonce:
        problems.append("TD report echoes a different nonce")
    if bundle.tpm_quote.nonce != challenge.tpm_nonce:
        problems.append("TPM quote echoes a different nonce")
    if (
        bundle.nonces.td_nonce != challenge.td_nonce
        or bundle.nonces.tpm_nonce != challenge.tpm_nonce
    ):
        problems.append("bundle nonce record differs from the challenge")
    if not expired and key in verifier._spent:
        problems.append("challenge already consumed")
    if problems:
        return False, "; ".join(problems)
    return True, "both nonces echoed verbatim and the challenge is fresh"


def _check_c5(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    result = evidence.check_rtmr_pcr_consistency(
        bundle.td_report, bundle.tpm_quote, bundle.event_log, verifier._c5_memo
    )
    if result.all_matched:
        return True, "TD registers and quoted PCRs replay the same event stream"
    return False, "inconsistent registers: " + ", ".join(result.mismatched())


def _check_c6(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    report = bundle.td_report
    bad = []
    if int.from_bytes(report.td_attributes, "little") & 1:  # bit 0 of TDATTRIBUTES
        bad.append("debug TD: td_attributes sets DEBUG")
    if any(report.seam_attributes):  # all zero for a production TDX module
        bad.append("debug TDX module: seam_attributes are not zero")
    pinned = verifier.policy.expected_pcr17_18 or {}
    if not pinned and not bad:
        return True, "no launch anchors pinned by policy"
    quoted = bundle.tpm_quote.values_dict()
    for index, want in sorted(pinned.items()):
        got = quoted.get(index)
        if got is None:
            bad.append(f"PCR{index} missing from the quote")
        elif got != want:
            bad.append(f"PCR{index} differs from the pinned value")
    if bad:
        return False, "; ".join(bad)
    return True, "quoted launch anchors equal the pinned values"


def _check_c7(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    rtt = bundle.timing.quote_received - bundle.timing.challenge_sent
    budget = verifier.policy.rtt_threshold_ms
    if rtt <= budget:
        return True, f"quote round trip {rtt:.1f}ms within {budget:.1f}ms"
    return False, f"quote round trip {rtt:.1f}ms exceeds {budget:.1f}ms"


def _check_c8(bundle: EvidenceBundle, challenge: Challenge, verifier: Verifier) -> Tuple[bool, str]:
    if not verifier.policy.require_ak_registry_uniqueness:
        return True, "registry uniqueness not required by policy"
    registry = verifier.registry
    ak = bundle.tpm_quote.ak_public
    entry = registry.entries.get(ak)
    if entry is None:
        return False, "quoting key is absent from the AK registry"
    if registry.conflicts.get(ak):
        return False, "quoting key was registered by more than one platform"
    return True, f"quoting key registered to platform {entry.platform_id!r}"


class Check(NamedTuple):
    """One row of the check table: the check's id and name, the attack
    classes it can catch (a failed check raises every flag in its row, and
    the flags drive the per-goal verdict), and its function."""

    check_id: str
    name: str
    attacks: Tuple[str, ...]
    evaluate: Callable[[EvidenceBundle, Challenge, "Verifier"], Tuple[bool, str]]


CHECKS: Tuple[Check, ...] = (
    Check("C1", "TD report authenticity", ("A1",), _check_c1),
    Check("C2", "TPM quote authenticity and AK provenance", ("A1", "A5"), _check_c2),
    Check("C3", "AK-to-TD binding", ("A2", "A5"), _check_c3),
    Check("C4", "challenge freshness", ("A1", "A4"), _check_c4),
    Check("C5", "RTMR/PCR register consistency", ("A3",), _check_c5),
    Check("C6", "launch-environment anchors", ("A6",), _check_c6),
    Check("C7", "challenge round-trip time", ("A2",), _check_c7),
    Check("C8", "AK registry uniqueness", ("A5",), _check_c8),
)

# views of the table by id
CHECK_IDS = tuple(check.check_id for check in CHECKS)
CHECK_ATTACKS: Mapping[str, Tuple[str, ...]] = {check.check_id: check.attacks for check in CHECKS}


def verify_bundle(
    bundle: EvidenceBundle,
    challenge: Challenge,
    verifier: Verifier,
    disabled_checks: FrozenSet[str] = frozenset(),
) -> Verdict:
    """Run every check and fold the outcomes into a verdict.

    The checks read the policy, the AK registry, the two memos and the
    challenge ledger of ``verifier``; none writes the ledger
    (``Verifier.verify`` consumes the challenge afterwards). C1 and C2 only
    append to the link memo and C5 to the C5 memo, so this appraisal's
    entries are each memo's newest, and only here is it decided which stay:
    all are popped, newest first, unless the verdict accepts with no check
    disabled (and when a check raises), and otherwise those past the memo's
    bound. ``disabled_checks`` is a diagnostic hook for ablation runs; a
    disabled check is reported as passed without being evaluated.
    """
    memos = ((verifier._known_links, MAX_KNOWN_LINKS), (verifier._c5_memo, MAX_C5_MEMO))
    sizes, keep = [len(memo) for memo, _ in memos], False
    checks = []
    flags: List[str] = []
    try:
        for check_id, name, attacks, evaluate in CHECKS:
            if check_id in disabled_checks:
                passed, detail = True, "disabled (diagnostic hook)"
            else:
                try:
                    passed, detail = evaluate(bundle, challenge, verifier)
                except DceaError as exc:
                    passed, detail = False, f"{type(exc).__name__}: {exc}"
                if not passed:
                    flags += attacks  # every row names at least one attack
            checks.append(CheckResult(check_id, name, passed, detail))
        raised = frozenset(flags)
        keep = not raised and not disabled_checks
    finally:
        for (memo, bound), size in zip(memos, sizes):
            while len(memo) > (bound if keep else size):
                memo.popitem()  # the newest entry first
    at_risk = frozenset().union(*[ATTACK_GOALS[a] for a in raised])
    return Verdict(not raised, tuple(checks), raised, {g: g not in at_risk for g in GOALS})


class Verifier:
    """Stateful relying party: issues single-use challenges and keeps the
    challenge ledger, the AK registry, and across verifications two
    insertion-ordered memos: certificate links verified under its pinned
    roots (see ``crypto.verify_chain``) and C5 results keyed by the values
    they read (see ``evidence.check_rtmr_pcr_consistency``). Both admit only
    from appraisals accepted with no check disabled, up to ``MAX_KNOWN_LINKS``
    and ``MAX_C5_MEMO`` (see ``verify_bundle``). Every appraisal runs
    through one; a one-shot appraisal (``dcea verify``) adopts its challenge
    into a fresh Verifier.

    The ledger maps each outstanding and each spent challenge key to its
    ``issued_at``. Its logical clock is the newest ``issued_at`` among the
    challenges issued or adopted so far, and it only moves forward. A
    challenge expires once that clock is more than one RTT budget
    (``policy.rtt_threshold_ms``) past its ``issued_at``, and C4 refuses it
    from then on, so its key can leave the ledger without reopening a
    replay. Whenever the ledger holds more than ``LEDGER_FLOOR`` keys and
    twice the keys its last prune kept, it drops every expired key. So it
    never holds more than ``max(LEDGER_FLOOR, 2 * W)`` keys, where ``W`` is
    the most unexpired keys it held at any one time. Challenges that all
    carry one ``issued_at`` (the default clock returns 0) never expire, and
    the ledger then keeps each key."""

    def __init__(
        self,
        policy: VerifierPolicy,
        rng: Optional[random.Random] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.policy = policy
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.registry = AkRegistry()
        self._outstanding: Dict[bytes, float] = {}
        self._spent: Dict[bytes, float] = {}
        self._now = -math.inf  # the ledger's logical clock
        self._lead = 0.0  # the most an adopted issued_at has led the clock
        self._prune_above = LEDGER_FLOOR
        self._known_links: Dict[crypto.Link, None] = {}
        self._c5_memo: Dict[tuple, object] = {}

    def challenge(self) -> Challenge:
        """A fresh challenge stamped ``clock()`` plus the most an adopted
        ``issued_at`` led the clock, and never older than the logical clock: so
        C4 never finds it expired at issue, and a lagging clock's stamps age."""
        n = evidence.NONCE_LEN
        while True:
            key = self._rng.randbytes(2 * n)  # the same stream as two n-byte draws
            if key not in self._outstanding and key not in self._spent:
                break
        issued_at = max(float(self._clock()) + self._lead, self._now)
        challenge = Challenge(td_nonce=key[:n], tpm_nonce=key[n:], issued_at=issued_at)
        self.adopt_challenge(challenge)
        return challenge

    def adopt_challenge(self, challenge: Challenge) -> None:
        """Treat an externally built challenge as issued by this verifier."""
        self._lead = max(self._lead, challenge.issued_at - float(self._clock()))
        self._now = max(self._now, challenge.issued_at)
        self._enter(self._outstanding, _challenge_key(challenge), challenge.issued_at)

    def verify(
        self,
        bundle: EvidenceBundle,
        challenge: Challenge,
        disabled_checks: FrozenSet[str] = frozenset(),
    ) -> Verdict:
        verdict = verify_bundle(bundle, challenge, self, disabled_checks)
        # one shot per challenge, success or not
        key = _challenge_key(challenge)
        self._outstanding.pop(key, None)
        self._enter(self._spent, key, challenge.issued_at)
        return verdict

    def _expired(self, issued_at: float) -> bool:
        return self._now - issued_at > self.policy.rtt_threshold_ms

    def _enter(self, ledger: Dict[bytes, float], key: bytes, issued_at: float) -> None:
        ledger[key] = issued_at
        if len(self._outstanding) + len(self._spent) > self._prune_above:
            # rebuilt rather than deleted from, so the dicts shrink as well
            self._outstanding, self._spent = [
                {k: t for k, t in held.items() if not self._expired(t)}
                for held in (self._outstanding, self._spent)
            ]
            self._prune_above = max(LEDGER_FLOOR, 2 * (len(self._outstanding) + len(self._spent)))


# ---------------------------------------------------------------------------
# JSON codecs for policies, challenges, and registries (CLI files)
# ---------------------------------------------------------------------------

# a pinned launch-anchor index as the key of a JSON object, spelled as str writes it
_PCR_KEY = wrap(
    checked(STRING, lambda key: key in [str(i) for i in tpm.ANCHOR_PCRS],
            lambda key: f"bad pcr index {key!r}"),
    int,
    str,
)

POLICY = record(VerifierPolicy, {
    "trusted_tee_roots": list_of(CERT),
    "trusted_provider_roots": list_of(CERT),
    "expected_pcr17_18": optional(map_of(_PCR_KEY, DIGEST)),
    "rtt_threshold_ms": NUMBER,
    "require_ak_registry_uniqueness": BOOLEAN,
    "binding_channel": enum_of(BindingChannel, "channel"),
    "provider_allowlist": list_of(STRING),
})

CHALLENGE = record(Challenge, {
    "td_nonce": NONCE,
    "tpm_nonce": NONCE,
    "issued_at": NUMBER,
})

_REGISTRY_ENTRY = record(RegistryEntry, {
    "platform_id": STRING,
    "issuer": STRING,
    "registered_at": NUMBER,
})

REGISTRY = record(AkRegistry, {
    "entries": map_of(hex_bytes(), _REGISTRY_ENTRY),
    "conflicts": map_of(hex_bytes(), list_of(_REGISTRY_ENTRY)),
})
