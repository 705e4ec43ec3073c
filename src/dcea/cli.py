"""Command-line front end.

Subcommands:

* ``run``    -- simulate one attestation round (honest or a named attack
  scenario), print the verdict, optionally write the bundle and the
  verification context (policy + challenge + registry) to files.
* ``verify`` -- offline verification: a ``*.dcea.json`` bundle against a
  context file written by ``run``.
* ``matrix`` -- every scenario crossed with both deployments.
* ``list-scenarios`` -- the scenario catalog.

Exit codes: 0 when the outcome matches expectation (honest accepted,
attack rejected; for ``verify``, bundle accepted), 1 on the contrary
outcome, 2 for usage, I/O, or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from types import SimpleNamespace
from typing import Callable, List, Optional

from . import evidence
from .adversary import (
    SCENARIOS,
    Deployment,
    WorldConfig,
    attest_attack,
    attest_honest,
    build_world,
)
from .errors import DceaError, ParseError
from .evidence import optional, record
from .verifier import CHALLENGE, POLICY, REGISTRY, Verifier

EXIT_OK = 0
EXIT_CONTRARY = 1
EXIT_USAGE = 2


def _verdict_obj(verdict) -> dict:
    obj = verdict.to_obj()
    obj["failed_checks"] = list(verdict.failed_checks())
    return obj


def _verdict_md(verdict) -> List[str]:
    lines = []
    status = "accepted" if verdict.accepted else "rejected"
    flags = ", ".join(sorted(verdict.attack_flags)) or "none"
    lines.append(f"verdict: {status} (attack flags: {flags})")
    for c in verdict.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"- {c.check_id} {c.name}: {mark} -- {c.detail}")
    broken = [g for g, ok in verdict.goals.items() if not ok]
    lines.append("goals at risk: " + (", ".join(broken) if broken else "none"))
    return lines


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# a verification context file: what ``verify`` appraises a bundle against
_CONTEXT = record(SimpleNamespace, {
    "policy": POLICY,
    "challenge": CHALLENGE,
    "registry": optional(REGISTRY),
})


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _context_obj(outcome) -> dict:
    """The context the round's own verdict was appraised under."""
    return json.loads(_CONTEXT.encode(SimpleNamespace(
        policy=outcome.policy, challenge=outcome.challenge, registry=outcome.registry
    )))


def cmd_run(args) -> int:
    deployment = Deployment(args.deployment)
    world = build_world(WorldConfig(seed=args.seed, deployment=deployment))
    if args.scenario == "honest":
        outcome = attest_honest(world)
        expected_accept = True
    else:
        outcome = attest_attack(world, args.scenario)
        expected_accept = False

    as_expected = outcome.verdict.accepted == expected_accept
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(evidence.serialize(outcome.bundle))
    if args.policy:
        _write_text(
            args.policy,
            json.dumps(_context_obj(outcome), sort_keys=True, indent=2) + "\n",
        )

    if args.format == "md":
        print(f"# {args.scenario} ({deployment.value}, seed {args.seed})")
        print("\n".join(_verdict_md(outcome.verdict)))
        print(f"as expected: {'yes' if as_expected else 'NO'}")
    else:
        obj = {
            "scenario": args.scenario,
            "deployment": deployment.value,
            "seed": args.seed,
            "expected": "accept" if expected_accept else "reject",
            "as_expected": as_expected,
        }
        obj.update(_verdict_obj(outcome.verdict))
        print(json.dumps(obj, indent=2))
    return EXIT_OK if as_expected else EXIT_CONTRARY


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _load(path: str,
          read: Callable = lambda data: _CONTEXT.decode(evidence.load_json(data), "$")):
    """Read the bytes of file ``path``, a context by default; a ParseError names the file."""
    try:
        with open(path, "rb") as fh:
            return read(fh.read())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}", exc.offset) from exc


def cmd_verify(args) -> int:
    bundle = _load(args.bundle, evidence.deserialize)
    ctx = _load(args.policy)
    verifier = Verifier(ctx.policy)
    if ctx.registry is not None:
        verifier.registry = ctx.registry
    verifier.adopt_challenge(ctx.challenge)
    verdict = verifier.verify(bundle, ctx.challenge)
    if args.format == "md":
        print(f"# {args.bundle}")
        print("\n".join(_verdict_md(verdict)))
    else:
        print(json.dumps(_verdict_obj(verdict), indent=2))
    return EXIT_OK if verdict.accepted else EXIT_CONTRARY


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def matrix_rows(seed: int, seeds: int = 1) -> List[dict]:
    """Run honest plus every scenario under both deployments.

    Scenario/deployment pairs outside a scenario's applicability are
    reported as ``n/a`` rather than executed. ``seeds`` below 1 raises
    ValueError: a matrix in which nothing ran proves nothing.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    rows = []
    for sid in ["honest"] + list(SCENARIOS):
        for deployment in Deployment:
            relevant = sid == "honest" or deployment in SCENARIOS[sid].deployments
            if not relevant:
                rows.append({
                    "scenario": sid, "deployment": deployment.value,
                    "expected": "-", "result": "n/a", "failed_checks": "",
                    "runs": 0, "ok_runs": 0, "as_expected": "n/a",
                })
                continue
            expected_accept = sid == "honest"
            # a run is correct only when it fails exactly its targeted check
            expected_failed = () if expected_accept else (SCENARIOS[sid].targeted_check,)
            # the row shows the first run that broke it, or else the last run
            ok_runs = 0
            failed, accepted, broken = (), None, False
            for s in range(seed, seed + seeds):
                world = build_world(WorldConfig(seed=s, deployment=deployment))
                outcome = (
                    attest_honest(world)
                    if expected_accept
                    else attest_attack(world, sid)
                )
                verdict = outcome.verdict
                ok = verdict.failed_checks() == expected_failed
                ok_runs += ok
                if not broken:
                    failed, accepted, broken = verdict.failed_checks(), verdict.accepted, not ok
            rows.append({
                "scenario": sid, "deployment": deployment.value,
                "expected": "accept" if expected_accept else "reject",
                "result": "accepted" if accepted else "rejected",
                "failed_checks": ",".join(failed),
                "runs": seeds, "ok_runs": ok_runs,
                "as_expected": "yes" if ok_runs == seeds else "no",
            })
    return rows


def _matrix_csv(rows: List[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=[
            "scenario", "deployment", "expected", "result",
            "failed_checks", "runs", "ok_runs", "as_expected",
        ],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _matrix_md(rows: List[dict], seeds: int) -> str:
    by_cell = {(r["scenario"], r["deployment"]): r for r in rows}
    scenarios = ["honest"] + list(SCENARIOS)

    def cell(row):
        if row["result"] == "n/a":
            return "n/a"
        text = row["result"]
        if row["failed_checks"]:
            text += f" ({row['failed_checks']})"
        if seeds > 1:
            text += f" {row['ok_runs']}/{row['runs']}"
        if row["as_expected"] == "no":
            text = "UNEXPECTED: " + text
        return text

    lines = ["| scenario | S1 | S2 |", "|---|---|---|"]
    for sid in scenarios:
        s1 = cell(by_cell[(sid, "S1")])
        s2 = cell(by_cell[(sid, "S2")])
        lines.append(f"| {sid} | {s1} | {s2} |")
    return "\n".join(lines) + "\n"


def cmd_matrix(args) -> int:
    rows = matrix_rows(args.seed, args.seeds)
    if args.format == "csv":
        text = _matrix_csv(rows)
    elif args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = _matrix_md(rows, args.seeds)
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    clean = all(r["as_expected"] in ("yes", "n/a") for r in rows)
    return EXIT_OK if clean else EXIT_CONTRARY


# ---------------------------------------------------------------------------
# list-scenarios
# ---------------------------------------------------------------------------

def cmd_list_scenarios(args) -> int:
    if args.format == "json":
        rows = [
            {
                "id": sc.scenario_id,
                "declared_attack": sc.declared_attack,
                "targeted_check": sc.targeted_check,
                "deployments": [d.value for d in sc.deployments],
                "policy_overrides": dict(sc.policy_overrides),
                "description": sc.description,
            }
            for sc in SCENARIOS.values()
        ]
        print(json.dumps(rows, indent=2))
    else:
        print("| scenario | attack | check | deployments | description |")
        print("|---|---|---|---|---|")
        for sc in SCENARIOS.values():
            deps = ",".join(d.value for d in sc.deployments)
            print(
                f"| {sc.scenario_id} | {sc.declared_attack} | {sc.targeted_check} "
                f"| {deps} | {sc.description} |"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcea",
        description="attestation simulator and verifier for TD-to-TPM composite evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one attestation round")
    run_p.add_argument("--scenario", default="honest",
                       help="'honest' or a scenario id (see list-scenarios)")
    run_p.add_argument("--deployment", choices=[d.value for d in Deployment], default="S2")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", help="write the evidence bundle (*.dcea.json) here")
    run_p.add_argument("--policy", help="write the verification context here")
    run_p.add_argument("--format", choices=["json", "md"], default="json")
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="verify a bundle file offline")
    verify_p.add_argument("bundle", help="path to a *.dcea.json bundle")
    verify_p.add_argument("--policy", required=True,
                          help="verification context written by 'run --policy'")
    verify_p.add_argument("--format", choices=["json", "md"], default="json")
    verify_p.set_defaults(func=cmd_verify)

    matrix_p = sub.add_parser("matrix", help="all scenarios x both deployments")
    matrix_p.add_argument("--seed", type=int, default=0)
    matrix_p.add_argument("--seeds", type=int, default=1,
                          help="number of consecutive seeds per cell")
    matrix_p.add_argument("--format", choices=["md", "csv", "json"], default="md")
    matrix_p.add_argument("--out", help="also write the rendered table here")
    matrix_p.set_defaults(func=cmd_matrix)

    list_p = sub.add_parser("list-scenarios", help="print the scenario catalog")
    list_p.add_argument("--format", choices=["md", "json"], default="md")
    list_p.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "matrix" and args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        return args.func(args)
    except (DceaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
