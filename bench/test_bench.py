"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

MODS = run.load_library()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


def _check_metrics(metrics, expected):
    assert set(metrics) == set(expected)
    for name, (value, unit) in metrics.items():
        assert NAME_RE.fullmatch(name), name
        assert unit == expected[name], name
        assert isinstance(value, (int, float)), name


def test_benchmark_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    work = workloads.build(name, 5, tiny=True)
    loop, metrics, _info = run.run_untraced(work, 0.05, MODS)
    assert loop.failed == 0, loop.errors
    assert loop.attempted > 0
    _check_metrics(metrics, _units("end_to_end"))
    assert all(v > 0 for (v, _u) in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_report_every_layer_metric_with_exact_counts(name,
                                                                 tmp_path):
    work = workloads.build(name, 5, tiny=True)
    counts = []
    for k in range(2):
        loop, metrics, _info = run.run_traced(work, MODS,
                                              tmp_path / ("t%d.json.gz" % k))
        assert loop.failed == 0, loop.errors
        _check_metrics(metrics, _units("per_layer"))
        counts.append({n: v for n, (v, u) in metrics.items() if u == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["parser_build.parser_states"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_inputs(name):
    a = workloads.build(name, 11, tiny=True)
    b = workloads.build(name, 11, tiny=True)
    c = workloads.build(name, 12, tiny=True)
    assert (a.exprs, a.jobs, a.strata) == (b.exprs, b.jobs, b.strata)
    assert (a.jobs, a.strata) != (c.jobs, c.strata)


def test_tail_percentile_keeps_ten_jobs_beyond_it():
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(132) == 90.0
    assert run.tail_percentile(9999) == 99.0
    assert run.tail_percentile(25400) == 99.9


def test_closed_forms_agree_with_oracle():
    assert workloads.check_closed_forms(6) == []


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
