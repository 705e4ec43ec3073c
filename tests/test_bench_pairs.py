"""scripts/bench_pairs.py: the summary of paired runs and its exit rule."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
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


def stub_checkout(root, run_py="", results="{}"):
    """A checkout with the files the benchmark builds from, plus the run
    leftovers (results, bytecode) that its id ignores."""
    for rel, text in (("src/dcea/__init__.py", "x = 1\n"), ("perfbench/run.py", run_py),
                      ("BENCHMARK.json", '{"end_to_end": [], "per_layer": []}\n'),
                      ("perfbench/results/run.json", results),
                      ("src/dcea/__pycache__/x.pyc", results)):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_a_checkout_without_git_is_recorded_by_its_tree(tmp_path):
    one = stub_checkout(tmp_path / "one", results="{}")
    two = stub_checkout(tmp_path / "two", results='{"other": "run"}')
    ids = {bench_pairs.git_commit(one), bench_pairs.git_commit(two)}
    assert len(ids) == 1 and ids.pop().startswith("tree-sha256:")
    before = bench_pairs.git_commit(two)
    (two / "src/dcea/__init__.py").write_text("x = 2\n")
    assert bench_pairs.git_commit(two) != before


def test_a_git_checkout_is_recorded_by_its_commit(tmp_path):
    repo = stub_checkout(tmp_path / "repo")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, capture_output=True, text=True, check=True).stdout
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "stub")
    head = git("rev-parse", "HEAD").strip()
    assert bench_pairs.git_commit(repo) == head
    # a run's leftovers are no benchmark input
    (repo / "perfbench/results/run.json").write_text('{"other": "run"}')
    assert bench_pairs.git_commit(repo) == head
    # an uncommitted edit under src/ is no longer HEAD's tree
    (repo / "src/dcea/__init__.py").write_text("x = 2\n")
    assert bench_pairs.git_commit(repo) == bench_pairs.tree_id(repo)


SLEEPING_RUN = """\
import os, time
with open("child.pid", "w") as out:
    out.write(str(os.getpid()))
time.sleep(60)
"""


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_running_benchmark(tmp_path):
    stub = stub_checkout(tmp_path / "stub", run_py=SLEEPING_RUN)
    script = tmp_path / "scripts" / "bench_pairs.py"  # writes nothing next to this repository
    script.parent.mkdir()
    shutil.copy(SCRIPT, script)
    pid_file = stub / "child.pid"
    proc = subprocess.Popen([sys.executable, str(script), "--parent", str(stub), "--change",
                             str(stub), "--n", "1", "--workload", "fleet_appraisal",
                             "--pairs", "1", "--seconds", "1"], stderr=subprocess.PIPE)
    pid = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=15)
        deadline = time.monotonic() + 5
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(pid)
        assert returncode == 128 + signal.SIGTERM
    finally:
        for leftover in (proc.pid, pid):
            if leftover is not None and alive(leftover):
                os.kill(leftover, signal.SIGKILL)
        proc.communicate()
    assert not (tmp_path / "BENCH_1.json").exists()
