"""The three benchmark workloads and their verdict oracle.

Every workload drives only dcea's public entry points:
``adversary.build_world``, ``attest_honest``, ``attest_attack``,
``default_policy_for``, ``evidence.serialize``/``deserialize`` and
``verifier.Verifier`` with ``adopt_challenge`` and ``verify``.

A workload has three parts:

* ``setup()`` builds its fixed state and returns the first batch of inputs;
* ``refill()`` makes the next batch of inputs, outside the timed region;
* ``op(item)`` is the timed operation, and ``check(item, result)`` the
  untimed oracle that decides whether the op's output was right.

Inputs come only from the workload seed, so one seed gives one input stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from dcea import adversary, evidence, verifier
from dcea.adversary import Deployment, WorldConfig
from dcea.verifier import Challenge, RegistryEntry, Verdict, VerifierPolicy

ALL_CHECKS = frozenset(verifier.CHECK_IDS)

# Distinct world seeds per op are drawn from a block of this size per
# workload seed, so two workload seeds never share a world.
SEED_BLOCK = 1_000_000

WHY = {
    "fleet_appraisal": (
        "8 long-lived verifiers appraise honest bundles from a fixed fleet: "
        "cert chains, roots and AK keys repeat in every bundle and the spent "
        "ledger grows"
    ),
    "cold_appraisal": (
        "bytes to verdict with a fresh verifier per bundle over 15 matrix "
        "cells and distinct seeds: nothing repeats and 2/3 take rejection paths"
    ),
    "attestation_rounds": (
        "one full round per op (build_world, prover flow and verdict, "
        "serialize) over the 15 cells: the write side of the same layers"
    ),
}


@dataclass(frozen=True)
class Cell:
    """One live cell of the detection matrix and the verdict it must get."""

    scenario_id: str
    deployment: Deployment
    expected_failed: Tuple[str, ...]


def live_cells() -> Tuple[Cell, ...]:
    """Honest plus every scenario, under each deployment it applies to."""
    cells = []
    for sid in ["honest"] + list(adversary.SCENARIOS):
        for deployment in (Deployment.S1, Deployment.S2):
            if sid == "honest":
                cells.append(Cell(sid, deployment, ()))
                continue
            scenario = adversary.SCENARIOS[sid]
            if deployment in scenario.deployments:
                cells.append(Cell(sid, deployment, (scenario.targeted_check,)))
    return tuple(cells)


def attest_cell(cell: Cell, world_seed: int, disabled_checks=frozenset()):
    """Build a world for the cell and run its prover flow and verdict."""
    world = adversary.build_world(WorldConfig(seed=world_seed, deployment=cell.deployment))
    if cell.scenario_id == "honest":
        outcome = adversary.attest_honest(world, disabled_checks=disabled_checks)
    else:
        outcome = adversary.attest_attack(
            world, cell.scenario_id, disabled_checks=disabled_checks
        )
    return world, outcome


def round_trips(wire: bytes) -> bool:
    """The codec promise: re-encoding a decoded bundle gives the same bytes."""
    return evidence.serialize(evidence.deserialize(wire)) == wire


def verdict_ok(verdict: Optional[Verdict], expected_failed: Tuple[str, ...]) -> bool:
    return verdict is not None and verdict.failed_checks() == expected_failed


@dataclass(frozen=True)
class Appraisal:
    """Wire bytes plus what the relying party knows when they arrive."""

    wire: bytes
    challenge: Challenge
    policy: VerifierPolicy
    registrations: Tuple[Tuple[bytes, RegistryEntry], ...]
    expected_failed: Tuple[str, ...]
    platform: int = 0  # index of the fleet verifier; unused by cold appraisal
    wire_ok: bool = True  # serialize(deserialize(wire)) == wire


def _appraisal(outcome, world, expected_failed, platform=0) -> Appraisal:
    wire = evidence.serialize(outcome.bundle)
    return Appraisal(
        wire=wire,
        challenge=outcome.challenge,
        policy=outcome.policy,
        registrations=tuple(world.registrations),
        expected_failed=expected_failed,
        platform=platform,
        wire_ok=round_trips(wire),
    )


def fresh_verifier(policy: VerifierPolicy, registrations, rng: random.Random):
    v = verifier.Verifier(policy, rng=rng)
    for ak_public, entry in registrations:
        verifier.registry_register(v.registry, ak_public, entry)
    return v


class FleetAppraisal:
    """One long-lived Verifier per platform; honest bundles only."""

    name = "fleet_appraisal"
    PLATFORMS = 8
    PER_PLATFORM = 8  # bundles per platform in each batch

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> List[Appraisal]:
        base = self.seed * SEED_BLOCK
        self.worlds = [
            adversary.build_world(WorldConfig(
                seed=base + i,
                deployment=Deployment.S1 if i < self.PLATFORMS // 2 else Deployment.S2,
            ))
            for i in range(self.PLATFORMS)
        ]
        self.verifiers = []
        for i, world in enumerate(self.worlds):
            policy = adversary.default_policy_for(world)
            self.verifiers.append(
                fresh_verifier(policy, world.registrations, random.Random(base + i))
            )
        return self.refill()

    def refill(self) -> List[Appraisal]:
        items = []
        for _ in range(self.PER_PLATFORM):
            for i, world in enumerate(self.worlds):
                # a fresh challenge and bundle from the platform; verifying is
                # left to the timed op
                outcome = adversary.attest_honest(world, disabled_checks=ALL_CHECKS)
                items.append(_appraisal(outcome, world, (), platform=i))
        return items

    def op(self, item: Appraisal) -> Verdict:
        bundle = evidence.deserialize(item.wire)
        v = self.verifiers[item.platform]
        v.adopt_challenge(item.challenge)
        return v.verify(bundle, item.challenge)

    def check(self, item: Appraisal, verdict) -> bool:
        return item.wire_ok and verdict_ok(verdict, item.expected_failed)

    def appraisal_sample(self, items: List[Appraisal]) -> List[Appraisal]:
        return items


class _CellStream:
    """Cycles through the live cells, one distinct world seed per input."""

    def __init__(self, seed: int):
        self.cells = live_cells()
        self.base = seed * SEED_BLOCK
        self.counter = 0

    def next(self) -> Tuple[Cell, int]:
        cell = self.cells[self.counter % len(self.cells)]
        world_seed = self.base + self.counter
        self.counter += 1
        return cell, world_seed


class ColdAppraisal:
    """A fresh Verifier per bundle; every bundle from its own world."""

    name = "cold_appraisal"
    BATCH = 30  # two passes over the 15 cells

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> List[Appraisal]:
        self.stream = _CellStream(self.seed)
        self.rng = random.Random(self.seed)  # verifiers here only adopt challenges
        return self.refill()

    def refill(self) -> List[Appraisal]:
        return [cold_appraisal(*self.stream.next()) for _ in range(self.BATCH)]

    def op(self, item: Appraisal) -> Verdict:
        v = fresh_verifier(item.policy, item.registrations, self.rng)
        bundle = evidence.deserialize(item.wire)
        v.adopt_challenge(item.challenge)
        return v.verify(bundle, item.challenge)

    def check(self, item: Appraisal, verdict) -> bool:
        return item.wire_ok and verdict_ok(verdict, item.expected_failed)

    def appraisal_sample(self, items: List[Appraisal]) -> List[Appraisal]:
        return items


def cold_appraisal(cell: Cell, world_seed: int) -> Appraisal:
    world, outcome = attest_cell(cell, world_seed, disabled_checks=ALL_CHECKS)
    return _appraisal(outcome, world, cell.expected_failed)


@dataclass(frozen=True)
class Round:
    cell: Cell
    world_seed: int


@dataclass(frozen=True)
class RoundResult:
    verdict: Verdict
    wire: bytes


class AttestationRounds:
    """Each op is one complete round: world, prover flow, verdict, wire bytes."""

    name = "attestation_rounds"
    BATCH = 15  # one pass over the cells

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> List[Round]:
        self.stream = _CellStream(self.seed)
        # warm every cell's code path once; its verdict is checked like an op's
        for cell in self.stream.cells:
            _, outcome = attest_cell(cell, self.stream.base + SEED_BLOCK - 1)
            if not verdict_ok(outcome.verdict, cell.expected_failed):
                raise RuntimeError(f"warm-up round of {cell} got the wrong verdict")
        return self.refill()

    def refill(self) -> List[Round]:
        return [Round(*self.stream.next()) for _ in range(self.BATCH)]

    def op(self, item: Round) -> RoundResult:
        _, outcome = attest_cell(item.cell, item.world_seed)
        return RoundResult(outcome.verdict, evidence.serialize(outcome.bundle))

    def check(self, item: Round, result: Optional[RoundResult]) -> bool:
        return (
            result is not None
            and verdict_ok(result.verdict, item.cell.expected_failed)
            and round_trips(result.wire)
        )

    def appraisal_sample(self, items: List[Round]) -> List[Appraisal]:
        """The per-check rows need bundles with their challenge and policy;
        the rounds' own cells give them."""
        return [cold_appraisal(r.cell, r.world_seed) for r in items]


WORKLOADS = {w.name: w for w in (FleetAppraisal, ColdAppraisal, AttestationRounds)}
