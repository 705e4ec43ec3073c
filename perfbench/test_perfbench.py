"""Guards for the benchmark itself: the verdict oracle, exact call counts,
and tracing that changes nothing it observes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_dcea()

import tracing  # noqa: E402
from dcea import crypto, evidence  # noqa: E402
from workloads import (  # noqa: E402
    WHY,
    WORKLOADS,
    AttestationRounds,
    FleetAppraisal,
    Round,
    fresh_verifier,
    live_cells,
)

SEED = 7

# crypto.keygen and crypto.sign calls of one complete round, per live cell
ROUND_KEYGEN_SIGN = {
    ("honest", "S1"): (6, 8),
    ("honest", "S2"): (6, 8),
    ("A1_quote_forgery", "S1"): (6, 8),
    ("A1_quote_forgery", "S2"): (6, 8),
    ("A1_report_forgery", "S1"): (8, 11),
    ("A1_report_forgery", "S2"): (8, 11),
    ("A2_mix_match", "S2"): (9, 11),
    ("A2_frankenstein", "S2"): (9, 11),
    ("A3_register_desync", "S1"): (9, 11),
    ("A3_register_desync", "S2"): (9, 11),
    ("A4_replay", "S2"): (6, 8),
    ("A5_ek_spoof", "S2"): (10, 12),
    ("A5_ak_substitute", "S2"): (10, 12),
    ("A5_ak_clone", "S2"): (9, 11),
    ("A6_stack_downgrade", "S2"): (12, 14),
}


def cell_id(cell):
    return f"{cell.scenario_id}-{cell.deployment.value}"


def traced(fn, item):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tracer.run_op(fn, item)
    finally:
        tracer.uninstall()
    return result, tracing.layer_metrics(tracer.spans, tracer.counts, tracer.ops)


def test_live_cells_are_the_fifteen_matrix_cells():
    cells = live_cells()
    assert len(cells) == 15
    assert sum(1 for c in cells if c.scenario_id == "honest") == 2
    assert all(len(c.expected_failed) == 1 for c in cells if c.scenario_id != "honest")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_has_no_errors(name):
    runner = run.Runner(WORKLOADS[name], SEED)
    windows = runner.measure(0.2)
    assert len(run.pooled(windows)) > 0
    assert sum(w.errors for w in windows) == 0


def test_fleet_op_makes_seven_verifies_and_two_chain_walks():
    workload = FleetAppraisal(SEED)
    item = workload.setup()[0]
    verdict, metrics = traced(workload.op, item)
    assert verdict.accepted
    assert metrics["crypto.verify.calls_per_op"] == 7
    assert metrics["crypto.verify_chain.calls_per_op"] == 2


@pytest.mark.parametrize("cell", live_cells(), ids=cell_id)
def test_round_makes_recorded_keygen_and_sign_calls(cell):
    workload = AttestationRounds(SEED)
    result, metrics = traced(workload.op, Round(cell, SEED))
    assert result.verdict.failed_checks() == cell.expected_failed
    counts = (metrics["crypto.keygen.calls_per_op"], metrics["crypto.sign.calls_per_op"])
    assert counts == ROUND_KEYGEN_SIGN[(cell.scenario_id, cell.deployment.value)]


@pytest.mark.parametrize("cell", live_cells(), ids=cell_id)
def test_tracing_changes_no_verdict_or_wire_byte(cell):
    workload = AttestationRounds(SEED)
    plain = workload.op(Round(cell, SEED))
    with_trace, _ = traced(workload.op, Round(cell, SEED))
    assert with_trace.wire == plain.wire
    assert with_trace.verdict.to_obj() == plain.verdict.to_obj()


def appraise(a):
    v = fresh_verifier(a.policy, a.registrations, random.Random(0))
    v.adopt_challenge(a.challenge)
    return v.verify(evidence.deserialize(a.wire), a.challenge)


def test_tracing_changes_no_appraisal_verdict():
    for item in WORKLOADS["cold_appraisal"](SEED).setup():
        plain = appraise(item)
        with_trace, _ = traced(appraise, item)
        assert with_trace.to_obj() == plain.to_obj()
        assert plain.failed_checks() == item.expected_failed


def test_uninstall_restores_every_binding():
    originals = (crypto.verify, crypto.verify_chain, evidence.deserialize)
    tracer = tracing.Tracer()
    tracer.install()
    assert crypto.verify is not originals[0]
    tracer.uninstall()
    assert (crypto.verify, crypto.verify_chain, evidence.deserialize) == originals


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reaches_every_expected_function(name, monkeypatch):
    monkeypatch.setattr(run, "PER_CHECK_S", 0.05)
    monkeypatch.setattr(run, "WINDOW_S", 0.2)
    runner = run.Runner(WORKLOADS[name], SEED)
    windows, metrics, units, _, _, silent = run.per_layer(runner, 0.4, name)
    assert silent == []
    assert sum(w.errors for w in windows) == 0
    assert metrics["error_rate"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_benchmark_json_matches_the_workloads_and_end_to_end_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_run_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_appraisal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
