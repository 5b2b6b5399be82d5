"""Write refs.json, the stored outputs the benchmark checks jobs against.

    python3 perfbench/make_refs.py

Runs every job of every workload once and stores the seed-independent
quantities that workloads.extract reads from its output. Regenerate
only when a change to charfol is meant to change those outputs, and
say in the change which quantities moved and by how much.
"""

from __future__ import annotations

import json
import shutil

import run

# The stored quantities do not depend on the seed; any one will do.
SEED = 0


def build_refs(cli, jobs, seed: int, tmp) -> dict:
    """{job key: quantities}; raises if a job fails its own checks."""
    import workloads

    refs = {}

    def capture(job, rc, outdir):
        got, problems = workloads.observe(job, rc, outdir)
        if got is not None:
            refs[job.key] = got
        return problems

    runner = run.Runner(cli, jobs, seed, tmp, capture)
    for r in runner.one_pass():
        if r["problems"]:
            raise RuntimeError(f"{r['job']}: {'; '.join(r['problems'])}")
    return refs


def main() -> None:
    cli = run.import_charfol()
    import workloads

    run.TMP.mkdir(exist_ok=True)
    try:
        refs = {}
        for name, jobs in workloads.WORKLOADS.items():
            print(f"{name}: running {len(jobs)} jobs", flush=True)
            refs.update(build_refs(cli, jobs, SEED, run.TMP))
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    with open(run.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFS.name} with {len(refs)} jobs")


if __name__ == "__main__":
    main()
