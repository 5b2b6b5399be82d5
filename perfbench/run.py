"""charfol benchmark: time to verdict on the user path, plus a traced run.

    python3 perfbench/run.py --workload {column,shells,grid} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`, never from an installed copy. One process runs the
workload's jobs (see workloads.py) through `charfol.cli.main`, each
with `--seed N` and its JSON and CSV written to a scratch directory
under `.perfbench_tmp/`, and checks every job's output. Passes over
the jobs repeat until S seconds have gone by (at least one pass).

Job times are corrected for the host's speed drift as measured while
they run (see speed.py), and import times are scaled by a reference
import (see SETUP_SAMPLES below); raw job times are printed and kept in
the record too.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced
passes as above, then one traced pass, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
lines before it list the run metadata, every job and every metric with
its unit, including `error_rate` (failed / attempted), `raw_wall_s`,
`host_speed` and, on `grid`, `points_per_s`. The full record, with
per-job problems and, for a traced run, the spans, goes to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
REFS = HERE / "refs.json"

# setup_s: the time to import charfol.cli in a fresh interpreter. Import
# time drifts with the host even more than compute does (the same import
# took 0.38 s and 0.76 s a minute apart), and the speed kernel does not
# track it, because most of it is loading numpy and scipy. So each sample
# is paired with the import of numpy and scipy.linalg alone, timed in
# another fresh interpreter just before, and scaled by REF_IMPORT_S / that
# time; the ratio held within about 7% across that drift. REF_IMPORT_S is
# the reference import's typical time on the host the benchmark was tuned
# on, so scaled times read as seconds there.
SETUP_SAMPLES = 5
REF_IMPORT_S = 0.33
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t0)")

# Metric name -> unit, as declared in BENCHMARK.json.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _spec = json.load(_fh)
UNITS = {m["name"]: m["unit"]
         for m in _spec["end_to_end"] + _spec["per_layer"]}


def import_charfol():
    """charfol.cli, imported from this checkout."""
    if not (SRC / "charfol" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no charfol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import charfol.cli
    origin = Path(charfol.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: charfol was imported from {origin}, "
                         f"not from {SRC}")
    return charfol.cli


def _import_time(modules: str) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER.format(modules),
                           str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120, cwd=ROOT)
    return float(done.stdout.split()[-1])


def setup_samples() -> list:
    out = []
    for _ in range(SETUP_SAMPLES):
        reference = _import_time("numpy, scipy.linalg")
        out.append(REF_IMPORT_S * _import_time("charfol.cli") / reference)
    return out


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy
    from charfol.parallel import thread_count

    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "charfol").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scene"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_rev": rev, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "charfol_threads": thread_count()}


class Runner:
    """Runs and checks jobs of one workload at one seed."""

    def __init__(self, cli, jobs, seed: int, tmp: Path, check):
        """check(job, exit code, output dir) lists what is wrong."""
        self.cli, self.jobs, self.seed = cli, jobs, seed
        self.tmp, self.check = tmp, check

    def job(self, job, tracer=None) -> dict:
        with tempfile.TemporaryDirectory(dir=self.tmp) as d:
            outdir = Path(d)
            argv = [*job.argv, "--seed", str(self.seed),
                    "--json", str(outdir / "report.json"),
                    "--csv-dir", str(outdir)]
            main = (self.cli.main if tracer is None
                    else tracer.wrap("job", self.cli.main))
            log = io.StringIO()
            rc, crash = None, None
            with redirect_stdout(log), redirect_stderr(log), \
                    SpeedSampler() as sampler:
                t0 = perf_counter()
                try:
                    rc = main(argv)
                except (Exception, SystemExit):
                    crash = traceback.format_exc()
                raw = perf_counter() - t0
            if crash is not None:
                problems = [f"raised: {crash.strip().splitlines()[-1]}"]
            else:
                try:
                    problems = self.check(job, rc, outdir)
                except Exception:
                    problems = ["output check raised: "
                                + traceback.format_exc().strip()
                                .splitlines()[-1]]
            points = 0
            if job.argv[0] == "foliation" and not problems:
                with open(outdir / "report.json", encoding="utf-8") as fh:
                    points = json.load(fh)["points"]
        return {"job": job.key, "s": sampler.correct(raw), "raw_s": raw,
                "speed": sampler.speed(), "rc": rc, "problems": problems,
                "points": points, "log": log.getvalue()[-4000:]}

    def one_pass(self, tracer=None) -> list:
        return [self.job(job, tracer) for job in self.jobs]

    def passes(self, seconds: float) -> list:
        out = []
        start = perf_counter()
        while not out or perf_counter() - start < seconds:
            out.append(self.one_pass())
        return out


def _wall(p) -> float:
    return sum(r["s"] for r in p)


def end_to_end(passes, setup) -> dict:
    return {"setup_s": statistics.median(setup),
            "wall_s": statistics.median(_wall(p) for p in passes),
            "slowest_job_s": statistics.median(max(r["s"] for r in p)
                                               for p in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run(cli, jobs, seed: int, seconds: float, trace: int, refs: dict,
        probe: str, tmp: Path):
    """(metrics, every pass, traced spans or None, extra printed metrics)."""
    import tracer as tracing
    import workloads

    runner = Runner(cli, jobs, seed, tmp,
                    lambda job, rc, outdir: workloads.check(job, rc, outdir,
                                                            refs))
    passes = runner.passes(seconds)
    if not trace:
        metrics = end_to_end(passes, setup_samples())
        spans = None
    else:
        tr = tracing.Tracer()
        with tr.installed():
            traced = runner.one_pass(tr)
        spans = tr.spans
        metrics = tracing.layer_metrics(spans)
        metrics.update(tracing.op_counts(*tracing.probe_field(probe)))
        metrics["trace.overhead"] = (
            _wall(traced) / statistics.median(_wall(p) for p in passes))
    raw_wall = statistics.median(sum(r["raw_s"] for r in p) for p in passes)
    if trace:
        passes.append(traced)
    records = [r for p in passes for r in p]
    extra = {"error_rate": (sum(1 for r in records if r["problems"])
                            / len(records), "ratio"),
             "raw_wall_s": (raw_wall, "s"),
             "host_speed": (statistics.median(r["speed"] for r in records),
                            "ratio")}
    fol = [r for r in records if r["job"].startswith("foliation")]
    if fol and not trace:
        extra["points_per_s"] = (sum(r["points"] for r in fol)
                                 / sum(r["s"] for r in fol), "1/s")
    return metrics, passes, spans, extra


def result_line(metrics: dict, passes) -> dict:
    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["problems"])
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


def counters(metrics: dict) -> dict:
    """The traced metrics that must repeat exactly at a fixed seed."""
    return {k: v for k, v in metrics.items()
            if UNITS[k] not in ("s", "us") and k != "trace.overhead"}


def output_lines(meta, passes, line, extra) -> list:
    """Metadata, one line per job and per metric, then the result."""
    out = ["meta " + json.dumps(meta)]
    for i, p in enumerate(passes):
        for r in p:
            status = "ok" if not r["problems"] else "; ".join(r["problems"])
            out.append(f"pass {i} job {r['job']!r}: {r['s']:.3f} s, "
                       f"exit {r['rc']}, {status}")
    shown = {k: (m["value"], m["unit"]) for k, m in line["metrics"].items()}
    for name, (value, unit) in {**shown, **extra}.items():
        out.append(f"metric {name} = {value:.6g} {unit}")
    out.append(json.dumps(line))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("column", "shells", "grid"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_charfol()
    # These import charfol themselves, so only once the path is set.
    import tracer as tracing
    import workloads

    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        metrics, passes, spans, extra = run(
            cli, workloads.WORKLOADS[args.workload], args.seed,
            args.seconds, args.trace, refs, args.workload, TMP)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    line = result_line(metrics, passes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": line, "extra": extra,
              "counters": counters(metrics) if args.trace else None,
              "passes": passes}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        tracing.write_spans(spans, OUT / f"{stem}.spans.txt")
    print("\n".join(output_lines(meta, passes, line, extra)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
