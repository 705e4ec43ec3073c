"""Alternating parent/change pairs of the benchmark, written to BENCH_<n>.json.

Run from the root of a checkout::

    python3 scripts/bench_pairs.py --parent ../parent --change . --n 7 \\
        --workload fleet_appraisal --pairs 10 --seconds 30 --seed 9101

Pair ``i`` runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace T`` once in each checkout, and the side that goes first alternates
from pair to pair, so a drift of the machine's speed falls on both sides
alike. Each run's full record (the file run.py leaves in the checkout's
``perfbench/results/``) goes into ``BENCH_<n>.json`` at the root of this
repository, next to the per-metric summary that the printed table shows:
median and quartiles of each side, and the number of pairs in which the
change was better, and each side's attempted and failed operations.
``--append`` keeps the runs already in that file, so the workloads can be
run one at a time. The script exits 1, after writing the file, when any
run reports ``correct: false``: run.py itself exits 0 then, and a change
that breaks verdicts must not pass for a timing result. It exits 2 before
the first run when either checkout is missing or the change checkout's
``BENCHMARK.json`` (which names each metric's better direction) cannot be read.
Each side's ``commits`` entry is its git commit, or a hash of the files the
benchmark builds from when the checkout has no ``.git`` or those files differ
from its commit. When the script stops early (an exception, Ctrl-C or
SIGTERM), it stops the running benchmark first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


# seconds a stopped benchmark run gets to exit after SIGTERM before it is killed
STOP_GRACE_S = 5.0


def tree_id(checkout: Path) -> str:
    """``tree-sha256:<hex>`` over the sorted relative paths and the bytes of
    what the benchmark builds from: ``src/``, ``perfbench/*.py`` and
    ``BENCHMARK.json``, without ``__pycache__`` (``perfbench/results/`` is
    not matched)."""
    files = [p for p in (checkout / "src").rglob("*")
             if p.is_file() and "__pycache__" not in p.relative_to(checkout).parts]
    files += (checkout / "perfbench").glob("*.py")
    files.append(checkout / "BENCHMARK.json")
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(checkout).as_posix() for p in files if p.is_file()):
        data = (checkout / rel).read_bytes()
        digest.update(rel.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return "tree-sha256:" + digest.hexdigest()


# git pathspecs of what ``tree_id`` hashes
BENCH_INPUTS = ("src", ":(glob)perfbench/*.py", "BENCHMARK.json",
                ":(exclude,glob)**/__pycache__/**")


def git_commit(checkout: Path) -> str:
    """The checkout's commit when what the benchmark builds from matches it,
    else its ``tree_id``: a checkout with no ``.git`` (a ``git archive`` or a
    plain copy), or one with uncommitted or untracked changes to those files."""
    if (checkout / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=all", "--", *BENCH_INPUTS)
        if head.returncode == 0 and dirty.returncode == 0 and not dirty.stdout.strip():
            return head.stdout.strip()
    return tree_id(checkout)


def stop(proc: subprocess.Popen) -> None:
    """Terminate a run, kill it if it outlives the grace period, and reap it."""
    proc.terminate()
    try:
        proc.wait(timeout=STOP_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            _, stderr = proc.communicate()
        except BaseException:  # an exception, Ctrl-C or SIGTERM: the run must not outlive us
            stop(proc)
            raise
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{stderr}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((checkout / "perfbench" / "results" / f"{stem}.json").read_text())


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better_by_metric) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    pairs in which the change was better. Under ``"ops"``, per workload,
    each side's attempted and failed operations summed over its runs."""
    by_pair = {}
    for run in runs:
        key = (run["workload"], run["trace"], run["pair"])
        by_pair.setdefault(key, {})[run["side"]] = run["record"]["metrics"]
    summary = {}
    for run in runs:
        ops = summary.setdefault(run["workload"], {}).setdefault(
            "ops", {side: {"attempted": 0, "failed": 0} for side in SIDES}
        )[run["side"]]
        ops["attempted"] += run["record"]["attempted"]
        ops["failed"] += run["record"]["failed"]
    for (workload, trace, _), sides in sorted(by_pair.items()):
        if set(sides) != set(SIDES):
            continue
        for metric, better in better_by_metric.items():
            if metric not in sides["parent"] or metric not in sides["change"]:
                continue
            row = summary.setdefault(workload, {}).setdefault(
                metric, {"better": better, "parent": [], "change": [], "change_better": 0}
            )
            old, new = sides["parent"][metric]["value"], sides["change"][metric]["value"]
            row["parent"].append(old)
            row["change"].append(new)
            row["change_better"] += (new > old) if better == "higher" else (new < old)
    for workload in summary.values():
        for metric, row in workload.items():
            if metric == "ops":
                continue
            row["pairs"] = len(row["parent"])
            for side in SIDES:
                row[side] = quartiles(row[side]) if row["pairs"] > 1 else {"median": row[side][0]}
            old, new = row["parent"]["median"], row["change"]["median"]
            row["delta_median_pct"] = (new - old) / old * 100.0 if old else None
    return summary


def fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def table(summary) -> str:
    lines = [
        "| workload | metric | parent | change | change better in | Δ median |",
        "|---|---|---|---|---|---|",
    ]
    for workload, rows in summary.items():
        for metric, row in rows.items():
            if metric == "ops":
                lines.append(f"| {workload} | failed / attempted ops | "
                             + " | ".join(f"{row[s]['failed']} / {row[s]['attempted']}" for s in SIDES)
                             + " | | |")
                continue
            cells = []
            for side in SIDES:
                s = row[side]
                spread = f" [{fmt(s['q1'])}–{fmt(s['q3'])}]" if "q1" in s else ""
                cells.append(fmt(s["median"]) + spread)
            delta = row["delta_median_pct"]
            lines.append(
                f"| {workload} | {metric} | {cells[0]} | {cells[1]} | "
                f"{row['change_better']}/{row['pairs']} | "
                + ("n/a" if delta is None else f"{delta:+.1f} %") + " |"
            )
    return "\n".join(lines)


def incorrect(runs) -> list:
    """The runs whose record says the program's outputs were wrong."""
    return [f"{r['workload']} pair {r['pair']} seed {r['seed']} {r['side']}"
            for r in runs if not r["record"]["correct"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--n", type=int, required=True, help="writes BENCH_<n>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs seed SEED+i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", action="store_true", help="keep the runs already written")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not path.is_dir():
            parser.error(f"--{side} {path} is not a directory")
    spec_path = checkouts["change"] / "BENCHMARK.json"
    try:  # read before the first run, so a missing file loses no pairs
        spec = json.loads(spec_path.read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot read the metric list from {spec_path}: {exc!r}")
    out = ROOT / f"BENCH_{args.n}.json"
    runs = json.loads(out.read_text())["runs"] if args.append and out.exists() else []
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                record = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                runs.append({
                    "workload": workload, "trace": args.trace, "seconds": args.seconds,
                    "pair": pair, "seed": seed, "side": side, "first": position == 0,
                    "record": record,
                })
                print(f"# {workload} pair {pair} seed {seed} {side}: failed {record['failed']}",
                      file=sys.stderr)

    summary = summarize(runs, better)
    out.write_text(json.dumps({
        "protocol": {
            "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T",
            "order": "pair i: parent first when i is even, change first when odd",
        },
        "commits": {side: git_commit(path) for side, path in checkouts.items()},
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(table(summary))
    bad = incorrect(runs)
    for run in bad:
        print(f"error: incorrect run: {run}", file=sys.stderr)
    return 1 if bad else 0


def exit_on_sigterm(signum, frame):
    """SIGTERM unwinds like Ctrl-C, so the running benchmark is stopped first."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    sys.exit(main())
