"""`tools/bench_pairs.py` on canned benchmark output; no benchmark runs."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def canned(wall: float, raw: float, correct=True, failed=0) -> str:
    """The standard output of `perfbench/run.py` with these metrics."""
    metrics = {"setup_s": 0.18, "wall_s": wall, "slowest_job_s": wall,
               "peak_rss_mb": 45.0}
    lines = ["meta {}", "pass 0 job 'certify mori-column': 0.100 s, exit 0, "
             "ok"]
    lines += [f"metric {k} = {v:.6g} s" for k, v in metrics.items()]
    lines += ["metric error_rate = 0 ratio", f"metric raw_wall_s = {raw} s",
              "metric host_speed = 0.8 ratio"]
    lines.append(json.dumps({"correct": correct, "attempted": 4,
                             "failed": failed, "metrics": {}}))
    return "\n".join(lines) + "\n"


def trees(tmp_path) -> list:
    out = []
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "charfol").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / name)
        out.append(tmp_path / name)
    return out


def test_parse_reads_the_metric_lines_and_the_result():
    metrics, result = tool.parse(canned(0.12, 0.16))
    assert metrics["wall_s"] == 0.12 and metrics["raw_wall_s"] == 0.16
    assert metrics["peak_rss_mb"] == 45.0 and len(metrics) == 7
    assert result == {"correct": True, "attempted": 4, "failed": 0,
                      "metrics": {}}
    assert tool.problem(result) is None
    assert tool.problem({**result, "correct": False}) == "not correct"
    assert tool.problem({**result, "failed": 1}) == "1 of 4 jobs failed"


def test_pairs_alternate_and_make_one_table(monkeypatch, tmp_path, capsys):
    parent, change = trees(tmp_path)
    calls = []
    walls = {parent: [0.10, 0.12, 0.11, 0.13], change: [0.09, 0.13, 0.10,
                                                         0.11]}

    def run_once(tree, command, workload, seed, seconds):
        calls.append((tree.name, seed))
        assert (command, workload, seconds) == (
            ["python3", "perfbench/run.py"], "column", 10)
        wall = walls[tree][seed - 7]
        return canned(wall, 2 * wall)

    monkeypatch.setattr(tool, "run_once", run_once)
    rc = tool.main([str(parent), str(change), "--workload", "column",
                    "--pairs", "4", "--seed", "7"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8),
                     ("parent", 8), ("parent", 9), ("change", 9),
                     ("change", 10), ("parent", 10)]
    assert out[0] == ("column: 4 pairs at seeds 7-10, parent first in even "
                      "pairs")
    rows = {r.split(" | ")[0][2:]: r for r in out[3:]}
    assert list(rows) == ["setup_s", "wall_s", "slowest_job_s",
                          "peak_rss_mb", "raw_wall_s", "host_speed"]
    # parent 0.10 0.11 0.12 0.13: median 0.115, inclusive quartiles
    # 0.1075 and 0.1225; change median 0.105, lower in 3 of 4
    assert rows["wall_s"] == (
        "| wall_s | 0.115 [0.1075-0.1225] | 0.105 | -8.7% | 3 of 4 |")
    assert rows["raw_wall_s"].endswith("| 0.21 | -8.7% | 3 of 4 |")
    assert rows["host_speed"].endswith("| +0.0% | 0 of 4 |")


def test_a_run_that_is_not_correct_exits_1(monkeypatch, tmp_path, capsys):
    parent, change = trees(tmp_path)

    def run_once(tree, command, workload, seed, seconds):
        if tree == change and seed == 1:
            return canned(0.1, 0.2, correct=False)
        if tree == parent and seed == 2:
            return "Traceback (most recent call last):\n"
        return canned(0.1, 0.2, failed=int(tree == change and seed == 0))

    monkeypatch.setattr(tool, "run_once", run_once)
    rc = tool.main([str(parent), str(change), "--workload", "grid",
                    "--pairs", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "seed 0, change: 1 of 4 jobs failed" in err
    assert "seed 1, change: not correct" in err
    assert "seed 2, parent: not correct" in err
