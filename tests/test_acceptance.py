"""Acceptance gate: the nine end-to-end properties the simulator must hold.

Each test is one numbered criterion and prints a visible one-line verdict
even under pytest's capture, so a full run reads as a checklist. These are
deliberately integration-level: they drive the public API only (world
builder, scenario generators, verifier, CLI) and re-derive every expected
value independently of the code under test.
"""

import contextlib
import dataclasses
import random
import time
from pathlib import Path

import pytest

from dcea import cli, crypto, evidence, tpm, verifier
from dcea.adversary import (
    Deployment,
    SCENARIOS,
    WorldConfig,
    attest_attack,
    attest_honest,
    build_world,
)
from dcea.errors import PolicyViolation
from dcea.platform import HostStack, instantiate_vtpm, measured_launch
from dcea.tpm import Scope
from dcea.verifier import BindingChannel

from support import random_bundle, verify_once

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def announce(capsys, label):
    """Print one [PASS]/[FAIL] line per criterion, visible despite capture."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] {label}")
        raise
    detail = f" ({info['detail']})" if info["detail"] else ""
    with capsys.disabled():
        print(f"\n[PASS] {label}{detail}")


# -- 1. detection matrix -------------------------------------------------------

def test_criterion_1_detection_matrix(capsys):
    """Every relevant attack cell rejected, every honest cell accepted,
    >=50 seeds per cell, zero false accepts/rejects, under a minute."""
    with announce(capsys, "criterion 1: detection matrix, 50 seeds/cell") as info:
        t0 = time.perf_counter()
        rows = cli.matrix_rows(0, seeds=50)
        elapsed = time.perf_counter() - t0

        assert len(rows) == 2 * (1 + len(SCENARIOS))
        live = 0
        for row in rows:
            sid, dep = row["scenario"], Deployment(row["deployment"])
            if row["result"] == "n/a":
                # only genuinely out-of-scope cells may be skipped
                assert sid != "honest" and dep not in SCENARIOS[sid].deployments
                assert row["runs"] == 0
                continue
            live += 1
            assert row["runs"] == 50, row
            assert row["ok_runs"] == 50, row  # 0 false accepts / 0 false rejects
            assert row["as_expected"] == "yes", row
            if sid == "honest":
                assert row["result"] == "accepted" and row["failed_checks"] == ""
            else:
                assert dep in SCENARIOS[sid].deployments
                assert row["result"] == "rejected"
                assert row["failed_checks"] == SCENARIOS[sid].targeted_check, row
        # honest x2, A1/A3 scenarios x2 deployments, the rest x1
        assert live == 2 + sum(len(sc.deployments) for sc in SCENARIOS.values())
        assert elapsed < 60.0
        info["detail"] = f"{live} live cells x 50 seeds in {elapsed:.1f}s"


# -- 2. seal-policy enforcement ------------------------------------------------

MUTABLE_IMAGES = ("vtpm_binary", "kernel_image", "hypervisor_image")


def _random_stack(rng):
    return HostStack(
        firmware_image=rng.randbytes(24),
        acm_image=rng.randbytes(24),
        seamldr_image=rng.randbytes(24),
        kernel_image=rng.randbytes(24),
        hypervisor_image=rng.randbytes(24),
        vtpm_binary=rng.randbytes(24),
    )


def _boot_vtpm(stack, trial, ca):
    pid = f"plat-acc-{trial}"
    device = tpm.tpm_init(
        crypto.digest(f"accept-ek:{trial}".encode()).data,
        ca,
        {"platform_id": pid},
    )
    plat = measured_launch(stack, device, platform_id=pid)
    return instantiate_vtpm(plat, ca, f"accept-vtpm:{trial}".encode())


def test_criterion_2_seal_policy_strands_mutated_stacks(capsys):
    """A quote under the previously sealed AK must raise PolicyViolation
    after any pre-launch mutation of vtpm_binary/kernel/hypervisor."""
    with announce(capsys, "criterion 2: sealed-AK policy vs mutated stacks") as info:
        ca = crypto.keygen(b"acceptance-provider-ca", crypto.KeyKind.CA)
        trials = 1000
        for trial in range(trials):
            rng = random.Random(10_000 + trial)
            stack = _random_stack(rng)
            vtpm = _boot_vtpm(stack, trial, ca)
            handle = tpm.default_ak_handle(vtpm)
            sealed = vtpm.aks[handle]
            # sanity: the sealed AK quotes fine on the stack it was born on
            tpm.tpm_quote(vtpm, handle, (17, 18), b"\x01" * 32)

            field = MUTABLE_IMAGES[trial % len(MUTABLE_IMAGES)]
            image = getattr(stack, field)
            if trial % 2:
                changed = image + rng.randbytes(1)
            else:
                changed = bytes([image[0] ^ 0xFF]) + image[1:]
            mutated = dataclasses.replace(stack, **{field: changed})

            rebooted = _boot_vtpm(mutated, trial, ca)
            rebooted = tpm.install_sealed_ak(rebooted, "ak-prev", sealed)
            with pytest.raises(PolicyViolation):
                tpm.tpm_quote(rebooted, "ak-prev", (17, 18), b"\x02" * 32)
        info["detail"] = f"{trials}/{trials} mutations raised PolicyViolation"


# -- 3. event-log replay oracle -------------------------------------------------

def _log_entry_detected(bundle, index):
    """True when dropping entry `index` breaks a replay/consistency row."""
    log = bundle.event_log[:index] + bundle.event_log[index + 1:]
    rows = evidence.check_rtmr_pcr_consistency(
        bundle.td_report, bundle.tpm_quote, log
    )
    if not rows.all_matched:
        return True
    # host-side entries are outside the TD register rows; their audit row is
    # the launch-anchor replay against the quoted values
    host_pcrs, _ = evidence.replay_event_log(log, scope=Scope.HOST)
    quoted = bundle.tpm_quote.values_dict()
    return host_pcrs[17] != quoted[17] or host_pcrs[18] != quoted[18]


def test_criterion_3_replay_reproduces_live_registers(capsys):
    """Replaying the bundle log reproduces the live PCR bank and RTMRs
    byte for byte, and no single log entry can be dropped unnoticed."""
    with announce(capsys, "criterion 3: event-log replay oracle") as info:
        worlds = 1000
        deletions = 0
        for seed in range(worlds):
            deployment = Deployment.S2 if seed % 2 else Deployment.S1
            world = build_world(WorldConfig(seed=seed, deployment=deployment))
            out = attest_honest(world)
            assert out.verdict.accepted
            log = out.bundle.event_log

            vtpm = world.vtpms["plat-A"]
            guest = world.tds["plat-A"]
            host_tpm = world.platforms["plat-A"].tpm

            # full replay reproduces the vTPM bank and TD registers exactly
            pcrs, rtmrs = evidence.replay_event_log(log)
            assert pcrs == vtpm.pcrs.registers
            assert rtmrs == guest.rtmrs

            # per-scope replay agrees with every live view of the anchors
            host_pcrs, _ = evidence.replay_event_log(log, scope=Scope.HOST)
            quoted = out.bundle.tpm_quote.values_dict()
            for idx in (17, 18):
                assert host_pcrs[idx] == vtpm.pcrs.value(idx)
                assert host_pcrs[idx] == host_tpm.pcrs.value(idx)
                assert host_pcrs[idx] == quoted[idx]

            # deleting any one entry flips at least one audit row
            for index in range(len(log)):
                assert _log_entry_detected(out.bundle, index), (seed, index)
                deletions += 1
        info["detail"] = f"{worlds} worlds, {deletions} single-entry deletions all caught"


# -- 4. AK binding ---------------------------------------------------------------

def test_criterion_4_binding_digest(capsys):
    """digest(AK_pub) matches the TD binding field on every honest run and
    key substitution breaks exactly the binding check, on both channels."""
    with announce(capsys, "criterion 4: AK-to-TD binding, 500 seeds") as info:
        seeds = 500
        for seed in range(seeds):
            channel = (
                BindingChannel.MRCONFIGID if seed % 2 == 0 else BindingChannel.REPORT_DATA
            )
            config = WorldConfig(seed=seed, binding_channel=channel)

            honest = attest_honest(build_world(config))
            assert honest.verdict.accepted
            report = honest.bundle.td_report
            bound = crypto.digest(honest.bundle.tpm_quote.ak_public).data
            if channel is BindingChannel.MRCONFIGID:
                assert report.mrconfigid == bound
            else:
                assert report.report_data[evidence.RD_TAIL] == bound[:32]

            substituted = attest_attack(build_world(config), "A5_ak_substitute")
            assert not substituted.verdict.accepted
            assert substituted.verdict.failed_checks() == ("C3",)
        info["detail"] = f"{seeds} honest + {seeds} substitution runs"


# -- 5. relay timing --------------------------------------------------------------

def test_criterion_5_relay_timing(capsys):
    """Any >=25ms relay hop pushes the quote round trip past the budget and
    fails the timing check every time; honest traffic sits exactly on it."""
    with announce(capsys, "criterion 5: relay timing, one-way >= 25ms") as info:
        runs = 0
        for relay in (25.0, 30.0, 50.0, 100.0, 250.0):
            for seed in range(10):
                config = WorldConfig(
                    seed=seed,
                    deployment=Deployment.S2,
                    relay_delay_ms=relay,
                    one_way_delay_ms=5.0 + 3.0 * seed,
                )
                attack = attest_attack(build_world(config), "A2_frankenstein")
                assert not attack.verdict.accepted
                assert attack.verdict.failed_checks() == ("C7",)
                rtt = (
                    attack.bundle.timing.quote_received
                    - attack.bundle.timing.challenge_sent
                )
                assert rtt == attack.policy.rtt_threshold_ms + 2 * relay

                honest = attest_honest(build_world(config))
                assert honest.verdict.accepted
                honest_rtt = (
                    honest.bundle.timing.quote_received
                    - honest.bundle.timing.challenge_sent
                )
                assert honest_rtt <= honest.policy.rtt_threshold_ms
                runs += 1
        info["detail"] = f"{runs} relay/honest pairs, all classified correctly"


# -- 6. freshness ------------------------------------------------------------------

def test_criterion_6_replay_freshness(capsys):
    """A bundle built for an earlier challenge never satisfies a new one:
    rejected via the nonce check and only it."""
    with announce(capsys, "criterion 6: challenge freshness, 500 replays") as info:
        # staged replay: evidence assembled under a stale challenge,
        # resubmitted against the verifier's current one
        for seed in range(250):
            out = attest_attack(build_world(WorldConfig(seed=seed)), "A4_replay")
            assert not out.verdict.accepted
            assert out.verdict.failed_checks() == ("C4",)

        # direct replay: a bundle that WAS accepted, re-verified against a
        # fresh challenge from the same policy
        for seed in range(250):
            out = attest_honest(build_world(WorldConfig(seed=seed)))
            assert out.verdict.accepted
            rng = random.Random(seed ^ 0xC4)
            fresh = verifier.Challenge(
                td_nonce=rng.randbytes(32),
                tpm_nonce=rng.randbytes(32),
                issued_at=out.challenge.issued_at + 1000.0,
            )
            replayed = verify_once(out.bundle, out.policy, fresh)
            assert not replayed.accepted
            assert replayed.failed_checks() == ("C4",)
        info["detail"] = "250 staged + 250 direct replays all rejected via C4"


# -- 7. registry uniqueness ---------------------------------------------------------

def test_criterion_7_registry_uniqueness(capsys):
    """Same AK from two platform ids -> duplicate; under the uniqueness
    policy the cloned-key scenario is rejected via the registry check."""
    with announce(capsys, "criterion 7: AK registry uniqueness") as info:
        registry = verifier.AkRegistry()
        ak = b"\x05" * 32
        first = verifier.registry_register(registry, ak, verifier.RegistryEntry("plat-X"))
        again = verifier.registry_register(registry, ak, verifier.RegistryEntry("plat-X"))
        clash = verifier.registry_register(registry, ak, verifier.RegistryEntry("plat-Y"))
        assert first.status == "registered"
        assert again.status == "registered"  # same owner is idempotent
        assert clash.status == "duplicate"
        assert clash.existing is not None and clash.existing.platform_id == "plat-X"
        assert registry.entries[ak].platform_id == "plat-X"
        assert registry.conflicts[ak][0].platform_id == "plat-Y"

        seeds = 50
        for seed in range(seeds):
            out = attest_attack(build_world(WorldConfig(seed=seed)), "A5_ak_clone")
            assert out.policy.require_ak_registry_uniqueness
            assert not out.verdict.accepted
            assert out.verdict.failed_checks() == ("C8",)
            assert "A5" in out.verdict.attack_flags
        info["detail"] = f"duplicate flagged, {seeds} clone runs rejected via C8"


# -- 8. serialization ----------------------------------------------------------------

FIXTURE_CASES = (
    ("honest", "S1", "honest_s1"),
    ("honest", "S2", "honest_s2"),
    ("A5_ak_clone", "S2", "a5_ak_clone"),
)


def test_criterion_8_serialization(capsys, tmp_path):
    """Encode/decode is the identity over random bundles and the committed
    golden files regenerate byte for byte from their seed."""
    with announce(capsys, "criterion 8: canonical serialization") as info:
        for seed in range(1000):
            bundle = random_bundle(seed)
            data = evidence.serialize(bundle)
            back = evidence.deserialize(data)
            assert back == bundle
            assert evidence.serialize(back) == data

        for scenario, deployment, name in FIXTURE_CASES:
            out_bundle = tmp_path / f"{name}.dcea.json"
            out_policy = tmp_path / f"{name}.policy.json"
            code = cli.main([
                "run",
                "--scenario", scenario,
                "--deployment", deployment,
                "--seed", "1000",
                "--out", str(out_bundle),
                "--policy", str(out_policy),
            ])
            assert code == 0
            assert out_bundle.read_bytes() == (FIXTURES / f"{name}.dcea.json").read_bytes()
            assert out_policy.read_bytes() == (FIXTURES / f"{name}.policy.json").read_bytes()
            # committed fixtures stay loadable
            evidence.deserialize((FIXTURES / f"{name}.dcea.json").read_bytes())
        info["detail"] = "1000 roundtrips, 3 golden fixture pairs byte-stable"


# -- 9. check independence -------------------------------------------------------------

def test_criterion_9_each_check_is_load_bearing(capsys):
    """Every scenario fails exactly its targeted check, and disabling just
    that check flips the verdict to accept — across all of C1..C8."""
    with announce(capsys, "criterion 9: check independence / minimality") as info:
        covered = set()
        cells = 0
        for sid, sc in SCENARIOS.items():
            for deployment in sc.deployments:
                config = WorldConfig(seed=7, deployment=deployment)
                out = attest_attack(build_world(config), sid)
                assert not out.verdict.accepted
                assert out.verdict.failed_checks() == (sc.targeted_check,)

                relaxed = attest_attack(
                    build_world(config), sid,
                    disabled_checks=frozenset({sc.targeted_check}),
                )
                assert relaxed.verdict.accepted, (sid, deployment)
                covered.add(sc.targeted_check)
                cells += 1
        assert covered == set(verifier.CHECK_IDS)
        info["detail"] = f"{cells} scenario cells, all eight checks load-bearing"
