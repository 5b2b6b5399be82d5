"""Smoke self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs four small jobs through the same code as run.py, with references
taken from a first run of the same jobs, and checks that

- an untraced run prints every end_to_end metric of BENCHMARK.json,
  with its unit and no other, and every job passes its check;
- a traced run prints every per_layer metric with its unit, and two
  traced runs at one seed give identical counts;
- a deliberately corrupted reference, and a wrong expected exit code,
  each make their job count as failed.

Exits 0 when all of this holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import make_refs
import run

SEED = 3


def main() -> int:
    cli = run.import_charfol()
    from workloads import Job

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    tiny = [Job(("foliation", "s2-height", "--grid", "4")),
            Job(("foliation", "mori-sigma0-n2", "--grid", "5"),
                family=(2, 0.1)),
            Job(("certify", "mori-sigma0-n2"), exit_code=1),
            Job(("convexify", "collar-profile"))]
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def run_lines(jobs, refs, trace):
        metrics, passes, _, extra = run.run(cli, jobs, SEED, 0.0, trace,
                                            refs, "grid", run.TMP)
        line = run.result_line(metrics, passes)
        meta = run.metadata("selftest", SEED, 0.0, trace)
        return run.output_lines(meta, passes, line, extra), metrics

    def printed(lines):
        shown = {}
        for text in lines:
            if text.startswith("metric "):
                name, rest = text[len("metric "):].split(" = ")
                shown[name] = rest.split()[1]
        return shown, json.loads(lines[-1])

    def check_names(lines, declared, kind, passes):
        shown, result = printed(lines)
        names = [m["name"] for m in declared]
        expect(list(result["metrics"]) == names,
               f"{kind}: the result carries exactly the declared metrics")
        expect(all(shown.get(m["name"]) == m["unit"]
                   and result["metrics"][m["name"]]["unit"] == m["unit"]
                   for m in declared),
               f"{kind}: every metric is printed with its declared unit")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] == passes * len(tiny),
               f"{kind}: every job passes its check")
        return result

    run.TMP.mkdir(exist_ok=True)
    try:
        refs = make_refs.build_refs(cli, tiny, SEED, run.TMP)

        lines, _ = run_lines(tiny, refs, 0)
        result = check_names(lines, spec["end_to_end"], "untraced run", 1)
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               "untraced run: no end-to-end metric is zero")

        lines, first = run_lines(tiny, refs, 1)
        check_names(lines, spec["per_layer"], "traced run", 2)
        _, second = run_lines(tiny, refs, 1)
        expect(run.counters(first) == run.counters(second)
               and run.counters(first)["contact.vector.calls"] > 0,
               "two traced runs give identical counts")

        bad = copy.deepcopy(refs)
        params = bad["convexify collar-profile"]
        params["profile.params.rho"] *= 1.0 + 1e-3
        wrong_exit = [Job(j.argv, 0, j.family) if j.exit_code else j
                      for j in tiny]
        lines, _ = run_lines(wrong_exit, bad, 0)
        failed = [text for text in lines
                  if text.startswith("pass") and not text.endswith(", ok")]
        _, result = printed(lines)
        expect(not result["correct"] and result["failed"] == 2
               and any("profile.params.rho" in t for t in failed)
               and any("exit code 1, expected 0" in t for t in failed),
               "a corrupted reference and a wrong exit code each fail "
               "their job")
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    print("selftest " + ("passed" if not failures else
                         f"failed: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
