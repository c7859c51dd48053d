"""Benchmark two commits against each other in alternating pairs.

    python tests/ab.py PARENT HEAD --out BENCH_<n>.json [--pairs N] [--seconds S]

Each commit is checked out with ``git worktree add`` under a temporary
directory, and each side runs its own ``bench/run_bench.py --workload
all --seed 0 --seconds S``; see ``ORDER`` for which side goes first.
The runs are written in the layout of the committed ``BENCH_*.json``
files, or, if any run is not ``correct``, nothing is written and the exit
status is 1.  Per metric it prints the median of the paired ratios
head/parent, their quartiles, and the pairs the head won by
``BENCHMARK.json``'s direction.  The worktrees are removed on any exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "pair i (from 0) runs the head first when i is even and the parent first when i is odd"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def bench_run(tree: str, seconds: float) -> dict | None:
    """The last stdout line of one run of ``tree``'s own benchmark, as
    JSON, or None unless the run exits 0 and is ``correct``."""
    argv = [sys.executable, "bench/run_bench.py", "--workload", "all", "--seed", "0", "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        run = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return run if done.returncode == 0 and run.get("correct") is True else None


def summary(parent_runs: list[dict], head_runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the paired ratios' median and quartiles, and the pairs
    the head won; ``better`` maps a metric's name after its ``/`` to
    "higher" or "lower", and a metric it does not name wins no pair."""
    out = {}
    for metric in parent_runs[0]["metrics"]:
        ratios = [h["metrics"][metric]["value"] / p["metrics"][metric]["value"] for p, h in zip(parent_runs, head_runs)]
        sign = {"higher": 1, "lower": -1}.get(better.get(metric.rpartition("/")[2]), 0)
        # quantiles() needs two points; one pair's quartiles are its ratio.
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        wins = sum((r - 1) * sign > 0 for r in ratios)
        out[metric] = {"median": statistics.median(ratios), "q1": q1, "q3": q3, "wins": wins, "pairs": len(ratios)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("head")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    shas = {"parent": git("rev-parse", f"{args.parent}^{{commit}}"), "head": git("rev-parse", f"{args.head}^{{commit}}")}
    runs: dict[str, list] = {"parent": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in shas}
        try:
            for side, tree in trees.items():
                git("worktree", "add", "--detach", tree, shas[side])
            for i in range(args.pairs):
                for side in ("head", "parent") if i % 2 == 0 else ("parent", "head"):
                    runs[side].append(bench_run(trees[side], args.seconds))
                    if runs[side][-1] is None:
                        print(f"error: pair {i}: the {side} run is not correct; nothing written", file=sys.stderr)
                        return 1
        finally:
            for tree in trees.values():
                if os.path.isdir(tree):
                    git("worktree", "remove", "--force", tree)
            git("worktree", "prune")
    Path(args.out).write_text(json.dumps({
        "command": f"python3 bench/run_bench.py --workload all --seed 0 --seconds {args.seconds:g}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "pairs": args.pairs,
        "order": ORDER,
        **{side: {"sha": shas[side], "runs": runs[side]} for side in ("parent", "head")},
    }, indent=2) + "\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':40} {'median':>8} {'q1':>8} {'q3':>8}  head won")
    for metric, row in summary(runs["parent"], runs["head"], better).items():
        print(f"{metric:40} {row['median']:8.4f} {row['q1']:8.4f} {row['q3']:8.4f}  {row['wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
