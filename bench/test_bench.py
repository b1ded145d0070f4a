"""Tests of the benchmark itself: ``python3 -m pytest bench``.

They start CLI processes, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import checks
import metrics
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small_config(seed: int, **overrides) -> dict:
    cfg = workloads.mc_config(seed)
    cfg.update({"replicates": 1, **overrides})
    return cfg


def test_traced_pass_writes_the_same_bytes(tmp_path):
    """The wrappers and the RNG proxy change no output byte."""
    passes = {
        "preset": lambda d: workloads.build_pass("preset_sweep", 3, d),
        "mc": lambda d: workloads.sweep_pass("mc", 3, d, _small_config(3, mc_draws=600)),
    }
    for name, make in passes.items():
        written = {}
        for trace in (False, True):
            d = tmp_path / f"{name}-{trace}"
            d.mkdir()
            p = make(str(d)).with_workers(1)
            result, _ = run.run_child_pass(p, str(d), trace=trace)
            assert result["rcs"] == [0] * len(p.steps)
            written[trace] = [open(o.path, "rb").read() for o in p.outputs]
            if trace:
                calls = {s[0] for s in result["spans"]}
                assert "cli.main" in calls and "harness.evaluate_seed" in calls
        assert written[True] == written[False], name
    assert result["counters"]["risk.mc.normals"] > 0


def test_seeded_failure_raises_fail_ratio(tmp_path):
    """A singular fine-tune Gram without --jitter fails every seed, yet exits 0."""
    tallies = {}
    for name, p_tilde in (("healthy", 80), ("singular", 20)):
        d = tmp_path / name
        d.mkdir()
        cfg = _small_config(0, p=200, p_tilde=p_tilde, replicates=2,
                            methods=["analytic"])
        p = workloads.sweep_pass(name, 0, str(d), cfg)
        ms = run.run_cli_pass(p, str(d))
        assert [m.rc for m in ms] == [0]
        tallies[name] = checks.check_pass(p, [m.rc for m in ms], [m.stderr for m in ms],
                                          reference=None)
    ok, bad = tallies["healthy"], tallies["singular"]
    assert ok.failed_seeds == 0 and bad.failed_seeds == 2
    assert bad.failed / bad.attempted > ok.failed / ok.attempted


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v[0] for k, v in metrics.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in metrics.LAYERS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for table in (metrics.END_TO_END, metrics.LAYERS):
        for name, (unit, *_) in table.items():
            assert NAME.fullmatch(name) and unit


def test_every_emitted_metric_has_a_name_and_unit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", "preset_sweep",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert set(metric) == {"value", "unit"} and metric["unit"]
            assert isinstance(metric["value"], (int, float))
