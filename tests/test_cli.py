"""Command-line interface: run / verify / matrix / list-scenarios."""

import csv
import hashlib
import importlib.util
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from dcea import cli
from dcea.adversary import SCENARIOS


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_run_honest_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "run", "--scenario", "honest", "--seed", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["accepted"] is True
    assert obj["as_expected"] is True
    assert obj["scenario"] == "honest"


def test_run_attack_detected_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "run", "--scenario", "A4_replay", "--seed", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["accepted"] is False
    assert obj["failed_checks"] == ["C4"]
    assert "A4" in obj["attack_flags"]


def test_run_markdown_format(capsys):
    rc, out, _ = run_cli(
        capsys, "run", "--scenario", "A6_stack_downgrade", "--seed", "1", "--format", "md"
    )
    assert rc == 0
    assert "A6_stack_downgrade" in out
    assert "C6" in out


def test_run_unknown_scenario_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "run", "--scenario", "A9_bogus", "--seed", "1")
    assert rc == 2
    assert "A9_bogus" in err


def test_run_irrelevant_deployment_is_usage_error(capsys):
    rc, _, err = run_cli(
        capsys, "run", "--scenario", "A4_replay", "--deployment", "S1", "--seed", "1"
    )
    assert rc == 2


def test_seed_defaults_to_zero_whatever_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("DCEA_SEED", "41")
    rc, out, _ = run_cli(capsys, "run", "--scenario", "honest")
    assert rc == 0
    assert json.loads(out)["seed"] == 0


def test_run_writes_deterministic_bundle(tmp_path, capsys):
    p1, p2 = tmp_path / "a.dcea.json", tmp_path / "b.dcea.json"
    run_cli(capsys, "run", "--scenario", "honest", "--seed", "9", "--out", str(p1))
    run_cli(capsys, "run", "--scenario", "honest", "--seed", "9", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


LIVE_CELLS = [("honest", dep) for dep in ("S1", "S2")] + [
    (sid, dep.value) for sid, sc in SCENARIOS.items() for dep in sc.deployments
]


@pytest.mark.parametrize("scenario, deployment", LIVE_CELLS)
def test_run_then_verify_roundtrip(tmp_path, capsys, scenario, deployment):
    bundle = tmp_path / "cell.dcea.json"
    policy = tmp_path / "cell.policy.json"
    rc, out, _ = run_cli(
        capsys, "run", "--scenario", scenario, "--deployment", deployment, "--seed", "5",
        "--out", str(bundle), "--policy", str(policy),
    )
    assert rc == cli.EXIT_OK
    ran = json.loads(out)
    rc, out, _ = run_cli(capsys, "verify", str(bundle), "--policy", str(policy))
    verified = json.loads(out)
    assert rc == (cli.EXIT_OK if scenario == "honest" else cli.EXIT_CONTRARY)
    for key in ("accepted", "checks", "attack_flags", "goals", "failed_checks"):
        assert verified[key] == ran[key], key


def test_verify_rejects_attack_bundle(tmp_path, capsys):
    bundle = tmp_path / "clone.dcea.json"
    policy = tmp_path / "clone.policy.json"
    rc, _, _ = run_cli(
        capsys, "run", "--scenario", "A5_ak_clone", "--seed", "5",
        "--out", str(bundle), "--policy", str(policy),
    )
    assert rc == 0  # detection is the expected outcome
    rc, out, _ = run_cli(capsys, "verify", str(bundle), "--policy", str(policy))
    assert rc == 1
    assert json.loads(out)["failed_checks"] == ["C8"]


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "verify", str(tmp_path / "nope.dcea.json"),
        "--policy", str(tmp_path / "nope.policy.json"),
    )
    assert rc == 2
    assert err


def test_verify_garbage_bundle_is_usage_error(tmp_path, capsys):
    bundle = tmp_path / "garbage.dcea.json"
    bundle.write_bytes(b"{not json")
    policy = tmp_path / "p.json"
    run_cli(capsys, "run", "--scenario", "honest", "--seed", "5", "--policy", str(policy))
    capsys.readouterr()
    rc, _, err = run_cli(capsys, "verify", str(bundle), "--policy", str(policy))
    assert rc == 2
    assert "offset" in err or "JSON" in err


FIXTURES = Path(__file__).parent / "fixtures"


def test_verify_non_utf8_context_is_parse_error(tmp_path, capsys):
    policy = tmp_path / "utf16.policy.json"
    policy.write_bytes((FIXTURES / "honest_s1.policy.json").read_text().encode("utf-16"))
    assert policy.read_bytes()[:2] == b"\xff\xfe"
    rc, out, err = run_cli(
        capsys, "verify", str(FIXTURES / "honest_s1.dcea.json"), "--policy", str(policy)
    )
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert "not valid UTF-8" in err


def test_verify_parse_error_names_the_file_and_the_byte_offset(tmp_path, capsys):
    bad_bundle, bad_context = tmp_path / "bad.dcea.json", tmp_path / "bad.policy.json"
    for content, message in ((b'{"x"', "not valid JSON at byte 4: Expecting ':' delimiter"),
                             (b"[" * 1000 + b"]" * 1000, "not valid JSON: nested too deeply")):
        for bad in (bad_bundle, bad_context):
            bad.write_bytes(content)
        errors = []
        for bundle, context in ((bad_bundle, FIXTURES / "honest_s1.policy.json"),
                                (FIXTURES / "honest_s1.dcea.json", bad_context)):
            rc, out, err = run_cli(capsys, "verify", str(bundle), "--policy", str(context))
            assert (rc, out) == (cli.EXIT_USAGE, "")
            errors.append(err)
        assert errors == [f"error: {bad}: {message}\n" for bad in (bad_bundle, bad_context)]


def _json_path(path):
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


@pytest.mark.parametrize(
    "pair, document, path",
    [
        ("honest_s1", "dcea", ()),
        ("honest_s1", "dcea", ("td_report",)),
        ("honest_s1", "dcea", ("td_report", "qe_chain", 1)),
        ("honest_s1", "dcea", ("tpm_quote",)),
        ("honest_s1", "dcea", ("ek_cert_chain", 0)),
        ("honest_s1", "dcea", ("ak_cert",)),
        ("honest_s1", "dcea", ("event_log", 0)),
        ("honest_s1", "dcea", ("nonces",)),
        ("honest_s1", "dcea", ("timing",)),
        ("honest_s1", "policy", ()),
        ("honest_s1", "policy", ("policy",)),
        ("honest_s1", "policy", ("policy", "trusted_tee_roots", 0)),
        ("honest_s1", "policy", ("challenge",)),
        ("a5_ak_clone", "policy", ("registry",)),
        ("a5_ak_clone", "policy", ("registry", "entries", "<first>")),
        ("a5_ak_clone", "policy", ("registry", "conflicts", "<first>", 0)),
    ],
)
def test_verify_rejects_unknown_fields(tmp_path, capsys, pair, document, path):
    files = {kind: FIXTURES / f"{pair}.{kind}.json" for kind in ("dcea", "policy")}
    obj = json.loads(files[document].read_text())
    target, at = obj, []
    for key in path:
        key = next(iter(target)) if key == "<first>" else key
        target = target[key]
        at.append(key)
    target["extra"] = 1
    files[document] = tmp_path / files[document].name
    files[document].write_text(json.dumps(obj))
    rc, _, err = run_cli(capsys, "verify", str(files["dcea"]), "--policy", str(files["policy"]))
    assert rc == cli.EXIT_USAGE
    assert f"{_json_path(at)}: unknown field 'extra'" in err


def test_string_maps_take_any_key(tmp_path, capsys):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    obj["scenario_meta"]["extra"] = "1"
    bundle = tmp_path / "meta.dcea.json"
    bundle.write_text(json.dumps(obj))
    policy = str(FIXTURES / "honest_s1.policy.json")
    rc, _, _ = run_cli(capsys, "verify", str(bundle), "--policy", policy)
    assert rc == cli.EXIT_OK
    obj["ek_cert_chain"][0]["claims"]["extra"] = "1"
    bundle.write_text(json.dumps(obj))
    rc, out, _ = run_cli(capsys, "verify", str(bundle), "--policy", policy)
    assert rc == cli.EXIT_CONTRARY  # decoded; the altered claims break the signature
    assert json.loads(out)["failed_checks"] == ["C2"]


def test_verify_empty_ek_chain_is_parse_error(tmp_path, capsys):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    obj["ek_cert_chain"] = []
    bundle = tmp_path / "empty_ek.dcea.json"
    bundle.write_text(json.dumps(obj))
    policy = str(FIXTURES / "honest_s1.policy.json")  # has a provider allowlist
    rc, out, err = run_cli(capsys, "verify", str(bundle), "--policy", policy)
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert "$: ek_cert_chain must hold at least one certificate" in err


@pytest.mark.parametrize(
    "document, path, where",
    [
        ("dcea", ("td_report", "mrconfigid"), "$.td_report.mrconfigid"),
        ("policy", ("challenge", "tpm_nonce"), "$.challenge.tpm_nonce"),
    ],
)
def test_verify_uppercase_hex_is_parse_error(tmp_path, capsys, document, path, where):
    files = {kind: FIXTURES / f"honest_s1.{kind}.json" for kind in ("dcea", "policy")}
    obj = json.loads(files[document].read_text())
    obj[path[0]][path[1]] = obj[path[0]][path[1]].upper()
    files[document] = tmp_path / files[document].name
    files[document].write_text(json.dumps(obj))
    rc, out, err = run_cli(capsys, "verify", str(files["dcea"]), "--policy", str(files["policy"]))
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert f"{where}: hex must be lowercase" in err


def test_pinned_pcr_key_takes_the_one_spelling_str_writes(tmp_path, capsys):
    # "017" would otherwise decode to PCR 17 and silently replace the "17" pin
    obj = json.loads((FIXTURES / "honest_s1.policy.json").read_text())
    obj["policy"]["expected_pcr17_18"]["017"] = "00" * 48
    policy = tmp_path / "respelled.policy.json"
    policy.write_text(json.dumps(obj))
    rc, out, err = run_cli(
        capsys, "verify", str(FIXTURES / "honest_s1.dcea.json"), "--policy", str(policy)
    )
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert "expected_pcr17_18.017: bad pcr index '017'" in err


@pytest.mark.parametrize("key", ["99", "5"])
def test_pinned_pcr_key_names_a_launch_anchor(tmp_path, capsys, key):
    # a pin on any other register is a typo, not a policy C6 could ever meet
    obj = json.loads((FIXTURES / "honest_s1.policy.json").read_text())
    obj["policy"]["expected_pcr17_18"][key] = "00" * 48
    policy = tmp_path / "other_pcr.policy.json"
    policy.write_text(json.dumps(obj))
    rc, out, err = run_cli(
        capsys, "verify", str(FIXTURES / "honest_s1.dcea.json"), "--policy", str(policy)
    )
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert f"expected_pcr17_18.{key}: bad pcr index '{key}'" in err


def test_verify_rejects_a_golden_bundle_without_its_ak_certificate(tmp_path, capsys):
    # the context enrols the bundle's AK; enrolment is no provenance
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    obj["ak_cert"] = None
    bundle = tmp_path / "no_ak_cert.dcea.json"
    bundle.write_text(json.dumps(obj))
    rc, out, _ = run_cli(
        capsys, "verify", str(bundle), "--policy", str(FIXTURES / "honest_s1.policy.json")
    )
    assert rc == cli.EXIT_CONTRARY
    assert json.loads(out)["failed_checks"] == ["C2"]


def test_verify_golden_pairs(capsys):
    for pair, want in (("honest_s1", 0), ("honest_s2", 0), ("a5_ak_clone", 1)):
        rc, out, _ = run_cli(
            capsys, "verify", str(FIXTURES / f"{pair}.dcea.json"),
            "--policy", str(FIXTURES / f"{pair}.policy.json"),
        )
        assert rc == want
        assert json.loads(out)["failed_checks"] == ([] if want == 0 else ["C8"])


def test_verify_markdown_prints_one_line_per_check(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "honest_s1.dcea.json"),
        "--policy", str(FIXTURES / "honest_s1.policy.json"), "--format", "md",
    )
    assert rc == cli.EXIT_OK
    rows = [line for line in out.splitlines() if line.startswith("- C")]
    assert [row.split()[1] for row in rows] == [f"C{i}" for i in range(1, 9)]
    assert all(": pass -- " in row for row in rows)


def test_list_scenarios(capsys):
    rc, out, _ = run_cli(capsys, "list-scenarios")
    assert rc == 0
    for sid in ("A1_quote_forgery", "A5_ak_clone", "A6_stack_downgrade"):
        assert sid in out
    rc, out, _ = run_cli(capsys, "list-scenarios", "--format", "json")
    ids = [row["id"] for row in json.loads(out)]
    assert len(ids) == 10


def test_matrix_csv(capsys):
    rc, out, _ = run_cli(capsys, "matrix", "--seed", "2", "--format", "csv")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_key = {(r["scenario"], r["deployment"]): r for r in rows}
    assert len(rows) == 22  # (honest + 10 scenarios) x 2 deployments
    assert by_key[("honest", "S1")]["result"] == "accepted"
    assert by_key[("honest", "S2")]["result"] == "accepted"
    assert by_key[("A4_replay", "S1")]["result"] == "n/a"
    assert by_key[("A4_replay", "S2")]["result"] == "rejected"
    assert by_key[("A4_replay", "S2")]["failed_checks"] == "C4"
    assert all(r["as_expected"] in ("yes", "n/a") for r in rows)


# SHA-256 of ``dcea matrix --seeds 5 --format json``: every row of the
# five-seed matrix, run counts and failed checks included
MATRIX_5_SEEDS_JSON_SHA256 = "bc7fdc2cd5e37117eecf4d7a4144cc40e1e1a9eb489aaaef3dc569e1fdd5aa02"


def test_five_seed_matrix_json_is_pinned(capsys):
    rc, out, _ = run_cli(capsys, "matrix", "--seeds", "5", "--format", "json")
    assert rc == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_5_SEEDS_JSON_SHA256


def test_matrix_markdown_grid(capsys):
    rc, out, _ = run_cli(capsys, "matrix", "--seed", "2")
    assert rc == 0
    assert "| scenario " in out
    assert "n/a" in out
    assert "rejected (C7)" in out  # frankenstein cell


def test_matrix_multi_seed(capsys):
    rc, out, _ = run_cli(
        capsys, "matrix", "--seed", "0", "--seeds", "3", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    live = [r for r in rows if r["result"] != "n/a"]
    assert all(r["runs"] == "3" for r in live)


def test_matrix_counts_a_wrong_check_rejection_as_unexpected(monkeypatch, capsys):
    # seed 0 of A4_replay is rejected, but by C7 as well as its targeted C4
    real_attack = cli.attest_attack

    def attack_tripping_c7(world, sid):
        outcome = real_attack(world, sid)
        if sid != "A4_replay" or world.config.seed != 0:
            return outcome
        checks = tuple(
            replace(c, passed=False) if c.check_id == "C7" else c
            for c in outcome.verdict.checks
        )
        return replace(outcome, verdict=replace(outcome.verdict, checks=checks))

    monkeypatch.setattr(cli, "attest_attack", attack_tripping_c7)
    by_key = {(r["scenario"], r["deployment"]): r for r in cli.matrix_rows(0, seeds=2)}
    row = by_key[("A4_replay", "S2")]
    assert row["result"] == "rejected"
    assert row["failed_checks"] == "C4,C7"  # the broken run, not the last one
    assert row["ok_runs"] == 1
    assert row["as_expected"] == "no"
    others = [r for k, r in by_key.items() if k != ("A4_replay", "S2")]
    assert all(r["as_expected"] in ("yes", "n/a") for r in others)
    rc, out, _ = run_cli(capsys, "matrix", "--seed", "0", "--seeds", "2")
    assert rc == cli.EXIT_CONTRARY
    assert "UNEXPECTED: rejected (C4,C7) 1/2" in out


def test_matrix_out_file(tmp_path, capsys):
    target = tmp_path / "matrix.csv"
    rc, out, _ = run_cli(
        capsys, "matrix", "--seed", "2", "--format", "csv", "--out", str(target)
    )
    assert rc == 0
    assert target.read_text() == out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_matrix_without_a_seed_to_run_is_usage_error(capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "--seeds", seeds])
    assert exc.value.code == 2
    assert f"--seeds must be at least 1, got {seeds}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [0, -3])
def test_matrix_rows_without_a_seed_to_run_raise(seeds):
    with pytest.raises(ValueError, match=f"^seeds must be at least 1, got {seeds}$"):
        cli.matrix_rows(0, seeds)


# a relay delay that is no number, or that no relay can add: at -200 ms the
# sweep printed an attack row that is never rejected
RELAY_SWEEP_USAGE = [("--seeds=0", "--seeds must be at least 1, got 0")] + [
    (f"--relays={relays}", f"--relays must list finite delays of at least 0 ms, got {relays!r}")
    for relays in ("x", "-200", "0,nan", "inf", "1,,2")
]


@pytest.mark.parametrize("arg, why", RELAY_SWEEP_USAGE, ids=[arg for arg, _ in RELAY_SWEEP_USAGE])
def test_relay_sweep_without_a_seed_to_run_is_usage_error(monkeypatch, capsys, arg, why):
    script = Path(__file__).resolve().parent.parent / "scripts" / "relay_sweep.py"
    spec = importlib.util.spec_from_file_location("relay_sweep", script)
    relay_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(relay_sweep)
    monkeypatch.setattr("sys.argv", ["relay_sweep.py", arg])
    with pytest.raises(SystemExit) as exc:
        relay_sweep.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert why in captured.err
