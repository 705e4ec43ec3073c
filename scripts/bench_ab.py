"""Interleaved in-process A/B of two trees' op time.

Run from the root of a checkout::

    python3 scripts/bench_ab.py --parent ../parent --change . \\
        --workload fleet_appraisal --workload cold_appraisal --workload attestation_rounds

Each checkout's ``src/dcea`` is copied into a temporary directory as the
packages ``dcea_parent`` and ``dcea_change`` and both are imported into this
one process, which works because ``src/dcea`` uses only relative imports (a
tree with an absolute ``dcea`` import is refused). The traffic is the
benchmark's own: ``perfbench/workloads.py`` beside this script is loaded
once per tree, with ``dcea`` bound to that tree while it loads, and each
tree drives its ``WORKLOADS[w](seed)``: ``setup()`` (with the rounds'
warm-up of every cell), ``refill()`` and the timed ``op()``. Both trees'
inputs come from the same seed, and their wire bytes (a round's cell and
world seed) must be equal. The op runs in blocks of ``--ops`` ops, the two
trees in ABBA order (block ``k`` runs the parent first when ``k`` is even).
After each block, every op must pass the workload's verdict oracle
(``check``) and the two trees' ``verdict.to_obj()`` (and a round's wire
bytes) must be equal. Each block gives the ratio of the change's block time
to the parent's; the script prints the median ratio and a bootstrap 95 %
confidence interval of that median, so a ratio below 1 means the change is
faster.

Inputs are made between blocks, outside the timed region. Both trees share
one heap, allocator and CPU, and each keeps its own module state (held
texts). The script measures op time only, not memory or set-up time.

Exit status: 0 after printing the ratios, 1 when the trees' inputs or
verdicts differ or an op fails the oracle, 2 when a checkout has no
``src/dcea`` or imports ``dcea`` absolutely.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

# the benchmark's workloads, driven unchanged in each tree
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

_ABSOLUTE_IMPORT = re.compile(r"^\s*(from|import)\s+dcea\b", re.M)


class Mismatch(Exception):
    """The two trees wrote different bytes or gave different verdicts, or an
    op failed the workload's oracle."""


def _is_dcea(module: str) -> bool:
    return module == "dcea" or module.startswith("dcea.")


def load_tree(checkout: Path, name: str, into: Path):
    """``checkout``'s ``src/dcea`` imported as the package ``name`` from a
    copy under ``into``; the module ``perfbench/workloads.py`` loaded as
    ``<name>_workloads`` with ``dcea`` bound to that package. ``sys.modules``
    keeps its own ``dcea`` entries as they were."""
    source = checkout / "src" / "dcea"
    if not (source / "__init__.py").is_file():
        raise FileNotFoundError(f"{checkout} has no src/dcea package")
    for path in sorted(source.glob("*.py")):
        if _ABSOLUTE_IMPORT.search(path.read_text()):
            raise ImportError(f"{path} imports dcea absolutely, so it cannot be renamed")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    try:
        for short in ("adversary", "evidence", "verifier"):
            importlib.import_module(f"{name}.{short}")
    finally:
        sys.path.remove(str(into))
    saved = {m: sys.modules.pop(m) for m in [m for m in sys.modules if _is_dcea(m)]}
    try:
        for module in [m for m in sys.modules if m.split(".")[0] == name]:
            sys.modules["dcea" + module[len(name):]] = sys.modules[module]
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", WORKLOADS_PY)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        spec.loader.exec_module(workloads)
        return workloads
    finally:
        for module in [m for m in sys.modules if _is_dcea(m)]:
            del sys.modules[module]
        sys.modules.update(saved)


def key(item):
    """What the trees' inputs must agree on: an appraisal's wire bytes, or a
    round's cell and world seed."""
    if hasattr(item, "wire"):
        return item.wire
    return item.cell.scenario_id, item.cell.deployment.name, item.world_seed


def outcome(result):
    """What the trees' outputs must agree on: the verdict, and a round's wire bytes."""
    if hasattr(result, "wire"):
        return result.verdict.to_obj(), result.wire
    return result.to_obj()


class Feed:
    """One tree's workload and the inputs it has made but not yet run."""

    def __init__(self, workloads, workload: str, seed: int):
        self.run = workloads.WORKLOADS[workload](seed)
        self.items = list(self.run.setup())

    def take(self, n: int):
        while len(self.items) < n:
            self.items += self.run.refill()
        taken, self.items = self.items[:n], self.items[n:]
        return taken


# workload -> (default blocks, default ops per block)
DEFAULTS = {
    "fleet_appraisal": (60, 64),
    "cold_appraisal": (40, 60),
    "attestation_rounds": (40, 30),
}


def _timed(op, items):
    gc.collect()  # no block pays for garbage another one left
    start = time.perf_counter()
    results = [op(item) for item in items]
    return time.perf_counter() - start, results


def bootstrap_ci(ratios, rng: random.Random, resamples: int = 2000):
    """The 2.5th and 97.5th percentiles of the median of resampled ratios."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


def ab(parent: Path, change: Path, workload: str, blocks: int, ops: int, seed: int = 0) -> dict:
    """Time ``blocks`` blocks of ``ops`` ops of ``workload`` in each tree, in
    ABBA order; raises Mismatch when the trees' inputs or verdicts differ or
    an op fails the oracle. The renamed packages and their workload modules
    leave ``sys.modules`` when it returns."""
    names = [f"dcea_{side}" for side in SIDES]
    loaded = set(names) | {f"{name}_workloads" for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            feeds = [Feed(load_tree(Path(checkout), name, Path(tmp)), workload, seed)
                     for checkout, name in zip((parent, change), names)]
            ratios = []
            for k in range(blocks):
                batches = [feed.take(ops) for feed in feeds]
                if [key(x) for x in batches[0]] != [key(x) for x in batches[1]]:
                    raise Mismatch(f"{workload} block {k}: the trees wrote different inputs")
                times, results = [0.0, 0.0], [None, None]
                for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                    times[i], results[i] = _timed(feeds[i].run.op, batches[i])
                for n, (a, b) in enumerate(zip(*results)):
                    if outcome(a) != outcome(b):
                        raise Mismatch(f"{workload} block {k} op {n}: the verdicts differ")
                    for side, feed, batch, result in zip(SIDES, feeds, batches, (a, b)):
                        if not feed.run.check(batch[n], result):
                            raise Mismatch(f"{workload} block {k} op {n}: the {side} tree "
                                           f"fails the oracle")
                ratios.append(times[1] / times[0])
        finally:
            for module in [m for m in sys.modules if m.split(".")[0] in loaded]:
                del sys.modules[module]
    low, high = bootstrap_ci(ratios, random.Random(seed))
    return {"workload": workload, "blocks": blocks, "ops": ops, "seed": seed,
            "ratio": statistics.median(ratios), "ci95": [low, high]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change checkout")
    parser.add_argument("--workload", action="append", choices=sorted(DEFAULTS),
                        help="a workload to run (repeatable; default: all three)")
    parser.add_argument("--blocks", type=int,
                        help="blocks per workload, each timed in both trees (default: per workload)")
    parser.add_argument("--ops", type=int, help="ops per block (default: per workload)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for flag in ("blocks", "ops"):
        if getattr(args, flag) is not None and getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1")
    for workload in args.workload or list(DEFAULTS):
        blocks, ops = DEFAULTS[workload]
        try:
            result = ab(args.parent, args.change, workload, args.blocks or blocks,
                        args.ops or ops, args.seed)
        except (FileNotFoundError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Mismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        low, high = result["ci95"]
        print(f"{workload}: change/parent op time {result['ratio']:.4f} "
              f"(95 % CI {low:.4f}-{high:.4f}), {result['blocks']} blocks of "
              f"{result['ops']} ops, verdicts equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
