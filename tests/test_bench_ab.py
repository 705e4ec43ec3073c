"""scripts/bench_ab.py: two trees in one process, equal verdicts, one ratio."""

import importlib.util
import math
import shutil
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def copy_tree(tmp_path, edit=None):
    """A checkout holding a copy of this tree's ``src/dcea``, with ``edit``
    applied to the text of its ``verifier.py``."""
    shutil.copytree(ROOT / "src" / "dcea", tmp_path / "src" / "dcea",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        path = tmp_path / "src" / "dcea" / "verifier.py"
        path.write_text(edit(path.read_text()))
    return tmp_path


@pytest.mark.parametrize("workload", sorted(bench_ab.DEFAULTS))
def test_a_tree_against_itself_gives_equal_verdicts_and_a_finite_ratio(workload):
    dcea_before = {m: sys.modules[m] for m in sys.modules if m.split(".")[0] == "dcea"}
    start = time.perf_counter()
    result = bench_ab.ab(ROOT, ROOT, workload, blocks=2, ops=3)
    assert time.perf_counter() - start < 10.0
    low, high = result["ci95"]
    assert math.isfinite(result["ratio"]) and 0 < low <= result["ratio"] <= high
    assert (result["blocks"], result["ops"]) == (2, 3)
    # both renamed packages and their workload modules leave the process when
    # the run ends, and the tests' own dcea is bound as it was
    assert not [m for m in sys.modules if m.startswith(("dcea_parent", "dcea_change"))]
    assert {m: sys.modules[m] for m in sys.modules if m.split(".")[0] == "dcea"} == dcea_before


def test_differing_verdicts_fail_the_script(tmp_path, capsys):
    change = copy_tree(tmp_path, lambda text: text.replace("ms within", "ms inside"))
    rc = bench_ab.main(["--parent", str(ROOT), "--change", str(change),
                        "--workload", "fleet_appraisal", "--blocks", "1", "--ops", "1"])
    assert rc == 1
    assert "fleet_appraisal block 0 op 0: the verdicts differ" in capsys.readouterr().err


def test_an_op_that_fails_the_oracle_fails_the_script(tmp_path, capsys):
    # both trees fail C3 on every bundle: their verdicts agree, and are wrong
    tree = copy_tree(tmp_path, lambda text: text.replace("if endorsed != ppid:", "if endorsed == ppid:"))
    rc = bench_ab.main(["--parent", str(tree), "--change", str(tree),
                        "--workload", "fleet_appraisal", "--blocks", "1", "--ops", "1"])
    assert rc == 1
    assert "fleet_appraisal block 0 op 0: the parent tree fails the oracle" in capsys.readouterr().err


def test_a_tree_that_imports_dcea_absolutely_is_refused(tmp_path, capsys):
    change = copy_tree(tmp_path, lambda text: text + "\nfrom dcea import crypto as _crypto\n")
    rc = bench_ab.main(["--parent", str(ROOT), "--change", str(change),
                        "--workload", "cold_appraisal", "--blocks", "1", "--ops", "1"])
    assert rc == 2
    assert "imports dcea absolutely" in capsys.readouterr().err
