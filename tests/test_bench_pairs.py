"""scripts/bench_pairs.py: the summary of paired runs and its exit rule."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def record(throughput, attempted=1000, failed=0, correct=True):
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "metrics": {"throughput_ops_s": {"value": throughput}}}


def run(pair, side, rec, workload="fleet_appraisal"):
    return {"workload": workload, "trace": 0, "seconds": 1, "pair": pair, "seed": 10 + pair,
            "side": side, "first": side == "parent", "record": rec}


def test_summary_counts_each_sides_ops_and_the_pairs_the_change_won():
    runs = [
        run(0, "parent", record(100.0, attempted=900)),
        run(0, "change", record(110.0, attempted=950, failed=2, correct=False)),
        run(1, "parent", record(120.0, attempted=1000)),
        run(1, "change", record(115.0, attempted=1100)),
    ]
    summary = bench_pairs.summarize(runs, {"throughput_ops_s": "higher"})["fleet_appraisal"]
    assert summary["ops"] == {
        "parent": {"attempted": 1900, "failed": 0},
        "change": {"attempted": 2050, "failed": 2},
    }
    row = summary["throughput_ops_s"]
    assert (row["pairs"], row["change_better"]) == (2, 1)
    assert (row["parent"]["median"], row["change"]["median"]) == (110.0, 112.5)
    assert "| fleet_appraisal | failed / attempted ops | 0 / 1900 | 2 / 2050 | | |" in (
        bench_pairs.table({"fleet_appraisal": summary}).splitlines()
    )


def test_an_incorrect_run_fails_the_script_after_the_file_is_written(tmp_path, monkeypatch, capsys):
    repo = Path(__file__).resolve().parent.parent
    for correct in (True, False):
        records = iter([record(100.0), record(101.0, correct=correct)])
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(records))
        rc = bench_pairs.main(["--parent", str(repo), "--change", str(repo), "--n", "1",
                               "--workload", "fleet_appraisal", "--pairs", "1", "--seconds", "1"])
        written = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert [r["record"]["correct"] for r in written["runs"]] == [True, correct]
        assert rc == (0 if correct else 1)
        err = capsys.readouterr().err
        assert ("error: incorrect run: fleet_appraisal pair 0 seed 1 change" in err) != correct


def test_a_change_checkout_without_benchmark_json_exits_2_before_any_run(
        tmp_path, monkeypatch, capsys):
    repo = Path(__file__).resolve().parent.parent
    change = tmp_path / "change"
    change.mkdir()

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    for parent, missing in ((repo, "BENCHMARK.json"), (tmp_path / "absent", "absent")):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--parent", str(parent), "--change", str(change), "--n", "1",
                              "--workload", "fleet_appraisal", "--pairs", "1"])
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err
    assert not (tmp_path / "BENCH_1.json").exists()
