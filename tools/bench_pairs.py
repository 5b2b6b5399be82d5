"""Alternating benchmark pairs of two charfol checkouts, as one table.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] \
        [--seed S]

PARENT and CHANGE are source trees of charfol (each with `src/charfol`
and the benchmark of `BENCHMARK.json`). Pair i runs the benchmark
command of PARENT's `BENCHMARK.json` on workload W at seed S + i, with
its `run_seconds` and `--trace 0`, once in each tree, from the tree's
root; the parent goes first in even pairs and the change in odd ones,
so that a drift of the host weighs on both sides alike.

Each run's `metric NAME = VALUE UNIT` lines are read, and its last line,
the benchmark's JSON result. For each end-to-end metric of
`BENCHMARK.json`, then `raw_wall_s` and `host_speed`, the Markdown table
has the parent's median with its quartiles, the change's median, the
relative change of the medians, and the pairs in which the change read
lower. `raw_wall_s` stands beside `wall_s` because `wall_s` is corrected
by the host speed that the run's own forked workers lower. The exit code
is 1 when a run was not correct, had a failed job or gave no result,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

EXTRA = ("raw_wall_s", "host_speed")


def parse(stdout: str) -> tuple:
    """(metrics by name, result) of one run's standard output: the
    `metric NAME = VALUE UNIT` lines and the JSON object of its last
    line."""
    lines = stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            metrics[name] = float(rest.split()[0])
    return metrics, json.loads(lines[-1])


def problem(result: dict) -> str | None:
    """Why a run's result does not count, or None."""
    if not result.get("correct"):
        return "not correct"
    if result.get("failed"):
        return f"{result['failed']} of {result.get('attempted')} jobs failed"
    return None


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: float) -> str:
    """Standard output of one benchmark run in `tree`; the output of a
    run that exits with an error is returned as it is."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else proc.stdout + proc.stderr


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def table(names: list, pairs: list) -> list:
    """The Markdown lines for the metrics `names` over `pairs`, each the
    (parent metrics, change metrics) of one pair."""
    lines = ["| metric | parent median [quartiles] | change median | "
             "change | change lower |", "| --- | --- | --- | --- | --- |"]
    for name in names:
        a = [p[name] for p, c in pairs if name in p and name in c]
        b = [c[name] for p, c in pairs if name in p and name in c]
        if not a:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = _quartiles(a)
        rel = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "-"
        lower = sum(y < x for x, y in zip(a, b))
        lines.append(f"| {name} | {ma:.4g} [{q1:.4g}-{q3:.4g}] | {mb:.4g} | "
                     f"{rel} | {lower} of {len(a)} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "charfol").is_dir():
            ap.error(f"{tree} has no src/charfol")
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]] + list(EXTRA)

    pairs, problems = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        got = [None, None]
        for side in order:
            out = run_once(trees[side], spec["command"], args.workload,
                           seed, spec["run_seconds"])
            try:
                metrics, result = parse(out)
            except (ValueError, IndexError):
                metrics, result = {}, {}
            why = problem(result)
            if why:
                problems.append(f"seed {seed}, {('parent', 'change')[side]}:"
                                f" {why}\n{out[-2000:]}")
            got[side] = metrics
        pairs.append(tuple(got))
    print(f"{args.workload}: {args.pairs} pairs at seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, parent first in even pairs")
    print("\n".join(table(names, pairs)))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
