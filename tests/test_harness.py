import csv
import errno
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import overadapt
from overadapt import harness, risk
from overadapt.cli import main as cli_main
from overadapt.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    save_config,
)
from overadapt.estimators import EstimatorKind
from overadapt.harness import (
    CSV_COLUMNS,
    ResultRow,
    evaluate_seed,
    expand_estimator_points,
    run_preset,
    run_sweep,
    write_results,
)
from overadapt.presets import (
    CASES,
    FT_ONLY_LAMBDA,
    FULL_P,
    RIDGE_FAMILY,
    TRADEOFF_LAMBDA,
    preset_defaults,
    preset_points,
)
from overadapt.risk import AnalyticRisk, FtResolvent
from overadapt.svgplot import MissingSeriesError, render_ft_svg, render_tradeoff_svg
from overadapt.synth import derive_rng, sample_design, sample_theta_c
from oracles import pair_of


def small_config(**overrides):
    raw = {
        "case": None, "n": 10, "p": 120, "p_tilde": 20, "k_star": 1,
        "gamma_pre": 0.05, "gamma_ft": 0.1,
        "zeta1": 1e-4, "zeta2": 1e-2, "sigma2": 1e-2, "sigma2_tilde": 1e-2,
        "master_seed": 0, "replicates": 3,
        "lambda_grid": [1e-3], "tau_grid": [0.0, 0.5, 1.0],
        "mc_draws": 200, "methods": ["analytic"],
    }
    raw.update(overrides)
    return config_from_dict(raw)


# ------------------------------------------------------------------- config

def test_minimal_preset_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"case": "a"}\n')
    cfg = load_config(path)
    assert cfg.n == 40 and cfg.p == 2000
    assert cfg.gamma_ft == pytest.approx(0.025)
    assert cfg.replicates == 20


def test_config_defaults_are_case_a():
    default = ExperimentConfig().to_dict()
    case_a = config_from_dict({"case": "a"}).to_dict()
    assert (default.pop("case"), case_a.pop("case")) == (None, "a")
    assert default == case_a


@pytest.mark.parametrize("case", sorted(CASES))
def test_config_takes_its_case_keys_however_built(case):
    # a library run_sweep labels its rows with the case, so the sizes must be the case's
    built, loaded = ExperimentConfig(case=case), config_from_dict({"case": case})
    assert built == loaded
    assert {k: getattr(built, k) for k in preset_defaults(case)} == preset_defaults(case)
    # an explicit size key wins over the case's; the others still come from the case
    given = ExperimentConfig(case=case, n=24)
    assert given.n == 24 and given.p_tilde == preset_defaults(case)["p_tilde"]
    assert config_from_dict({"case": case, "n": 24}) == given
    with pytest.raises(ConfigError, match="n: must be a positive integer, got None"):
        config_from_dict({"case": case, "n": None})
    with pytest.raises(ConfigError, match="p_tilde: must be a positive integer, got None"):
        ExperimentConfig(case=case, p_tilde=None)


def test_config_refuses_an_unknown_case():
    with pytest.raises(ConfigError, match="^case: unknown case 'z'"):
        ExperimentConfig(case="z")
    with pytest.raises(ConfigError, match="^case: unknown case 'z'"):
        config_from_dict({"case": "z"})


def test_config_rejects_negative_zeta2():
    with pytest.raises(ConfigError, match="zeta2"):
        small_config(zeta2=-0.5)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"case": "a", "zeta_two": 0.1}\n')
    with pytest.raises(ConfigError, match="zeta_two"):
        load_config(path)


def test_config_round_trip_is_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_config(small_config(), first)
    save_config(load_config(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_config_grids_sorted_deduplicated():
    cfg = small_config(lambda_grid=[1e-2, 1e-3, 1e-2], tau_grid=[1.0, 0.0, 1.0])
    assert cfg.lambda_grid == (1e-3, 1e-2)
    assert cfg.tau_grid == (0.0, 1.0)


def test_config_lists_cannot_change_in_place_and_the_config_hashes():
    # frozen through its lists too: a tau above 1 or an unknown method cannot
    # enter a validated config in place
    cfg = ExperimentConfig(case="a")
    for name in ("lambda_grid", "tau_grid", "methods", "estimators"):
        with pytest.raises(AttributeError):
            getattr(cfg, name).append(7.5)
    assert hash(cfg) == hash(ExperimentConfig(case="a"))
    assert {cfg: 1}[ExperimentConfig(case="a", tau_grid=list(cfg.tau_grid))] == 1


def test_repeated_estimators_and_methods_write_each_row_once(tmp_path):
    # repeats collapse in first-seen order, as the grids' repeats do
    raw = {"case": "a", "replicates": 1, "estimators": ["pretrained", "ridge_ft", "pretrained"],
           "methods": ["lemma_approx", "analytic", "lemma_approx"], "workers": 1}
    cfg_path, out, saved = tmp_path / "cfg.json", tmp_path / "rows.csv", tmp_path / "saved.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--save-config", str(saved)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == len(set(lines)) == 2 * 2 * 2  # 2 points, 2 methods, 2 tasks
    kept = json.loads(saved.read_text())
    assert (kept["estimators"], kept["methods"]) == (["pretrained", "ridge_ft"],
                                                     ["lemma_approx", "analytic"])


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="replicates"):
        small_config(replicates=0)
    for draws in (0, 1):  # one draw has no standard error
        with pytest.raises(ConfigError, match="mc_draws"):
            small_config(mc_draws=draws)
    with pytest.raises(ConfigError, match="tau_grid"):
        small_config(tau_grid=[0.0, 1.5])
    with pytest.raises(ConfigError, match="methods"):
        small_config(methods=["magic"])
    with pytest.raises(ConfigError, match="format"):
        small_config(format="yaml")
    for seed in (-1, True, 1.5):
        with pytest.raises(ConfigError, match="master_seed"):
            config_from_dict({"master_seed": seed})
    # JSON values of the wrong type: a string flag is truthy, and true is an int
    for key, value in (("fix_theta_c", "false"), ("jitter", "no"), ("n_pre", True),
                       ("workers", True)):
        with pytest.raises(ConfigError, match=key):
            small_config(**{key: value})
    # a bare string would be read letter by letter, and a number not at all
    for key, value in (("methods", "analytic"), ("estimators", "ridge_ft"), ("methods", 5),
                       ("out", 5), ("out", ["x"]), ("out", "")):
        with pytest.raises(ConfigError, match=f"^{key}: must be"):
            small_config(**{key: value})
    for case in (3, ["a"]):
        with pytest.raises(ConfigError, match="^case: unknown case"):
            config_from_dict({"case": case})


@pytest.mark.parametrize("raw, message", [
    ({"out": 5}, "out: must be a path or null, got 5"),
    ({"out": ["x"]}, "out: must be a path or null, got ['x']"),
    ({"methods": "analytic"}, "methods: must be a non-empty list of names, got 'analytic'"),
    ({"case": 3}, "case: unknown case 3; known: ['a', 'b', 'c', 'd']"),
])
def test_cli_sweep_names_the_bad_config_field(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["sweep", "--config", str(path), "--workers", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


# ------------------------------------------------------------------ results

def test_write_results_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], path, "csv")
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_write_results_analytic_row_has_empty_se(tmp_path):
    row = ResultRow(case="a", seed=0, estimator="ridge_ft", lam=1e-4, tau=None,
                    task="ft", method="analytic", value=0.125, bias_thetac=0.025,
                    term_zeta1=0.025, term_zeta2=0.025, term_sigma=0.025,
                    term_sigma_tilde=0.025)
    path = tmp_path / "one.csv"
    write_results([row], path, "csv")
    lines = path.read_text().strip().splitlines()
    fields = lines[1].split(",")
    idx = {c: i for i, c in enumerate(CSV_COLUMNS)}
    assert fields[idx["se"]] == ""
    assert fields[idx["tau"]] == ""
    assert fields[idx["value"]] == "0.125"
    assert fields[idx["lambda"]] == "0.0001"


def _fmt(v) -> str:
    """The per-cell rule of the CSV: empty for None, a float's shortest round-trip decimal."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def test_write_results_csv_is_the_per_cell_rule(tmp_path):
    # the fields are the columns, and the column-wise writer gives each cell
    # the bytes a row-by-row writer gives it under the per-cell rule
    assert ResultRow._fields == tuple("lam" if c == "lambda" else c for c in CSV_COLUMNS)
    values = [None, 0, 7, np.int64(-3), True, "a", "x,y", 'q"uote', "line\nbreak", -0.0,
              1e-7, 5e-324, 1e300, -1e300, 0.1, np.float64(0.1), float("inf"), 2.0**53]
    rows = [ResultRow(*(values[(i + j) % len(values)] for j in range(len(CSV_COLUMNS))))
            for i in range(len(values))]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path = tmp_path / "mixed.csv"
    write_results(rows, path, "csv")
    assert path.read_bytes() == want.getvalue().encode()


def test_json_results_round_trip(tmp_path):
    cfg = small_config(replicates=2)
    rows = run_sweep(cfg, workers=1).rows
    path = tmp_path / "rows.json"
    write_results(rows, path, "json")
    with open(path) as fh:
        assert json.load(fh) == [r.to_dict() for r in rows]


def test_write_results_io_error(tmp_path):
    with pytest.raises(OSError):
        write_results([], tmp_path / "missing" / "out.csv", "csv")


# -------------------------------------------------------------------- sweeps

def test_sweep_single_point_matches_direct_evaluation():
    cfg = small_config(replicates=1, estimators=["ridge_ft"], lambda_grid=[1e-3])
    result = run_sweep(cfg, workers=1)
    X = sample_design(cfg.spectrum_pre, cfg.n, derive_rng(0, "design_pre", 0))
    Xt = sample_design(cfg.spectrum_ft, cfg.n, derive_rng(0, "design_ft", 0))
    direct = AnalyticRisk(pair_of(X, Xt, cfg), cfg)
    got = {r.task: r.value for r in result.rows}
    assert got["pre"] == direct.task_risk(EstimatorKind.ridge(1e-3), "pre")[0]
    assert got["ft"] == direct.task_risk(EstimatorKind.ridge(1e-3), "ft")[0]


def test_sweep_deterministic_bytes(tmp_path):
    cfg = small_config(methods=["analytic", "monte_carlo"], mc_draws=100)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(run_sweep(cfg, workers=1).rows, a, "csv")
    write_results(run_sweep(cfg, workers=1).rows, b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_worker_count_invariance(tmp_path):
    cfg = small_config(replicates=4, methods=["analytic", "monte_carlo"],
                       mc_draws=100)
    serial, parallel = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_results(run_sweep(cfg, workers=1).rows, serial, "csv")
    write_results(run_sweep(cfg, workers=3).rows, parallel, "csv")
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_flags_failing_seeds_and_continues():
    # a rank-1 fine-tune support makes every interpolating solve singular
    cfg = small_config(p_tilde=1, gamma_ft=0.0, estimators=["ridgeless_ft"],
                       replicates=3)
    result = run_sweep(cfg, workers=1)
    assert result.rows == []
    assert len(result.failures) == 3
    assert all("Singular" in msg for _, msg in result.failures)


forks = pytest.mark.skipif(not harness._CAN_FORK, reason="seeds fan out by fork on Linux only")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patch_seed(monkeypatch, seed, action):
    """Have ``evaluate_seed`` call ``action`` (in whichever process runs it) at ``seed``."""
    evaluate = harness.evaluate_seed

    def patched(config, seed_index, *args):
        if seed_index == seed:
            action()
        return evaluate(config, seed_index, *args)

    monkeypatch.setattr(harness, "evaluate_seed", patched)


@forks
@pytest.mark.parametrize("die, reason", [
    (lambda: os._exit(9), "worker exited with code 9"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "worker killed by signal 9"),
])
def test_dead_worker_flags_its_seeds_and_keeps_the_others(tmp_path, monkeypatch, capsys,
                                                          die, reason):
    # the child that runs seeds 1 and 3 dies at seed 1; the other's rows stand
    cfg = small_config(replicates=4)
    kept = [r for r in run_sweep(cfg, workers=1).rows if r.seed in (0, 2)]
    patch_seed(monkeypatch, 1, die)
    result = run_sweep(cfg, workers=2)
    assert result.failures == [(1, reason), (3, reason)]
    assert result.rows == kept
    assert_no_child_left()
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    save_config(cfg, cfg_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "2"]) == 2
    assert {line.split(",")[1] for line in out.read_text().splitlines()[1:]} == {"0", "2"}
    assert f"seed 1 failed: {reason}\n" in capsys.readouterr().err
    assert_no_child_left()


@forks
def test_a_worker_that_cannot_start_flags_its_seeds_and_keeps_the_others(tmp_path, monkeypatch,
                                                                         capsys):
    # every second fork fails: the first child runs seeds 0 and 2 to the end, and
    # seeds 1 and 3 are flagged, a numerical failure (exit 2), not an i/o error
    cfg = small_config(replicates=4)
    kept = [r for r in run_sweep(cfg, workers=1).rows if r.seed in (0, 2)]
    fork, forks_made = os.fork, []

    def flaky_fork():
        forks_made.append(None)
        if len(forks_made) % 2 == 0:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", flaky_fork)
    reason = f"worker could not start: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
    result = run_sweep(cfg, workers=2)
    assert result.failures == [(1, reason), (3, reason)]
    assert result.rows == kept
    assert_no_child_left()
    cfg_path, out, expected = tmp_path / "cfg.json", tmp_path / "rows.csv", tmp_path / "kept.csv"
    save_config(cfg, cfg_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "2"]) == 2
    write_results(kept, expected)
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().err == f"seed 1 failed: {reason}\nseed 3 failed: {reason}\n"
    assert_no_child_left()


@forks
def test_unreadable_worker_output_flags_its_seeds(monkeypatch):
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-1])
    result = run_sweep(small_config(replicates=3), workers=2)
    assert result.rows == []
    assert [seed for seed, _ in result.failures] == [0, 1, 2]
    assert all(reason.startswith("worker left unreadable output: UnpicklingError")
               for _, reason in result.failures)
    assert_no_child_left()


@forks
def test_no_worker_outlives_an_interrupted_sweep(monkeypatch):
    cfg = small_config(replicates=2)
    run_sweep(cfg, workers=2)
    assert_no_child_left()

    def interrupt(data):
        raise KeyboardInterrupt

    # seed 1's child is still running when reading seed 0's output raises
    patch_seed(monkeypatch, 1, lambda: time.sleep(60))
    monkeypatch.setattr(pickle, "loads", interrupt)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cfg, workers=2)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_sweep_paired_methods_agree_within_3se():
    cfg = small_config(p=200, n=12, p_tilde=24, replicates=5,
                       methods=["analytic", "monte_carlo"], mc_draws=1500,
                       estimators=["pretrained", "ridgeless_ft", "ridge_ft",
                                   "ensemble"],
                       lambda_grid=[1e-3], tau_grid=[0.5])
    rows = run_sweep(cfg, workers=1).rows
    keyed = {}
    for r in rows:
        keyed.setdefault((r.seed, r.estimator, r.lam, r.tau, r.task), {})[r.method] = r
    hits = total = 0
    for pair in keyed.values():
        exact, mc = pair["analytic"], pair["monte_carlo"]
        total += 1
        hits += abs(exact.value - mc.value) <= 3 * mc.se
    assert total == 5 * 4 * 2
    assert hits / total >= 0.95


def test_workers_env_variable(monkeypatch, tmp_path):
    from overadapt.harness import resolve_workers

    monkeypatch.setenv("OVERADAPT_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5
    for value in ("junk", "0", "-2", "1.5"):
        monkeypatch.setenv("OVERADAPT_WORKERS", value)
        with pytest.raises(ValueError, match="OVERADAPT_WORKERS"):
            resolve_workers(None)
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(0)
    # the setting also yields the same bytes as any explicit worker count
    cfg = small_config(replicates=3)
    monkeypatch.setenv("OVERADAPT_WORKERS", "2")
    a = run_sweep(cfg).rows
    b = run_sweep(cfg, workers=1).rows
    assert a == b


def test_workers_default_to_the_cpus_the_process_may_run_on(monkeypatch):
    # under taskset -c 0 or in a cpuset container the host counts more cores
    # than the process may use; one worker per host core would share one CPU
    from overadapt.harness import resolve_workers

    monkeypatch.delenv("OVERADAPT_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # where the platform has no affinity
    assert resolve_workers(None) == 8


def test_fixed_theta_c_shared_across_replicates():
    cfg = small_config(replicates=2, fix_theta_c=True,
                       methods=["analytic"], estimators=["pretrained"])
    rows = run_sweep(cfg, workers=1).rows
    tc = sample_theta_c(cfg, derive_rng(cfg.master_seed, "params", 0))
    for seed in (0, 1):
        X = sample_design(cfg.spectrum_pre, cfg.n,
                          derive_rng(cfg.master_seed, "design_pre", seed))
        Xt = sample_design(cfg.spectrum_ft, cfg.n,
                           derive_rng(cfg.master_seed, "design_ft", seed))
        pair = pair_of(X, Xt, cfg, theta_c=tc)
        direct, _ = AnalyticRisk(pair, cfg).task_risk(EstimatorKind.pretrained(), "pre")
        got = {r.task: r.value for r in rows if r.seed == seed}
        assert got["pre"] == direct


def test_preset_lambda_override():
    res = run_preset("a", overrides={"replicates": 1, "p": 300, "tau_grid": [0.0, 1.0],
                                     "lambda_grid": [3e-3]}, workers=1)
    assert res.config.lambda_grid[0] == 3e-3
    assert any(r.estimator == "ensemble" and r.lam == 3e-3 for r in res.rows)


def test_sweep_factorial_row_count():
    cfg = small_config(replicates=2, methods=["analytic", "lemma_approx"],
                       estimators=["pretrained", "ensemble"],
                       lambda_grid=[1e-3, 1e-2], tau_grid=[0.0, 0.5, 1.0])
    result = run_sweep(cfg, workers=1)
    points = 1 + 2 * 3          # pretrained + ensemble (lam x tau)
    assert len(result.rows) == 2 * points * 2 * 2  # seeds x points x methods x tasks
    assert result.failures == []


def mc_crosscheck_config(**overrides):
    """The benchmark's mc_crosscheck config: case a at p = 2000, four estimator kinds."""
    return config_from_dict({
        "case": "a", "p": 2000, "estimators": ["pretrained", "ridgeless_ft", "ridge_ft",
                                               "ensemble"],
        "lambda_grid": [1e-4], "tau_grid": [0.5], "mc_draws": 2000, **overrides})


@pytest.mark.parametrize("methods, eighs", [
    (["analytic", "monte_carlo", "lemma_approx"], 2),
    (["monte_carlo", "lemma_approx"], 2),
    (["analytic", "lemma_approx"], 2),
    (["lemma_approx"], 1),
])
def test_evaluate_seed_eigendecomposes_each_design_once(monkeypatch, methods, eighs):
    cfg = mc_crosscheck_config(methods=methods)
    kinds = expand_estimator_points(cfg)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    rows = evaluate_seed(cfg, 0, kinds)
    assert len(calls) == eighs
    assert [r.task for r in rows] == ["pre", "ft"] * len(kinds) * len(methods)


@pytest.mark.parametrize("fix_theta_c", [False, True])
def test_evaluate_seed_reduces_the_designs_without_a_qr(monkeypatch, fix_theta_c):
    # Monte Carlo's row-space coordinates come from the pair's per-run Grams
    cfg = mc_crosscheck_config(methods=["analytic", "monte_carlo", "lemma_approx"],
                               fix_theta_c=fix_theta_c)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape)
                        or qr(a, *args, **kw))
    rows = evaluate_seed(cfg, 0, expand_estimator_points(cfg))
    assert calls == []
    assert {r.method for r in rows} == {"analytic", "monte_carlo", "lemma_approx"}


def test_evaluate_seed_frees_the_designs_before_monte_carlo(monkeypatch):
    # the pair keeps only its per-run Grams, so Monte Carlo never runs beside
    # the p-dimensional designs
    cfg = mc_crosscheck_config(methods=["analytic", "monte_carlo"], mc_draws=100)
    designs, alive = [], []
    draw, mc = risk.sample_designs, harness.mc_expected_risks

    def sample(*args):
        X, Xt = draw(*args)
        designs.extend((weakref.ref(X), weakref.ref(Xt)))
        return X, Xt

    def monte_carlo(*args):
        alive.append([ref() is not None for ref in designs])
        return mc(*args)

    monkeypatch.setattr(risk, "sample_designs", sample)  # DesignPair.draw's draw
    monkeypatch.setattr(harness, "mc_expected_risks", monte_carlo)
    rows = evaluate_seed(cfg, 0, expand_estimator_points(cfg))
    assert len(designs) == 2 and alive == [[False, False]]
    assert {r.method for r in rows} == {"analytic", "monte_carlo"}

@pytest.mark.parametrize("methods", [["analytic"], ["lemma_approx"]],
                         ids=["analytic", "lemma_approx"])
def test_preset_seed_builds_each_lambda_and_task_once(monkeypatch, methods):
    # each closed-form evaluator reads each (lam, task)'s resolvent weights once
    # and keeps its term quadratics for every tau
    config = config_from_dict({"case": "a", **preset_defaults("a"), "replicates": 1,
                               "methods": methods})
    kinds = preset_points(config)
    calls = []
    weights = FtResolvent.d
    monkeypatch.setattr(FtResolvent, "d",
                        lambda self, lam: calls.append(lam) or weights(self, lam))
    evaluate_seed(config, 0, kinds)
    lams = {kind.effective[0] for kind in kinds if kind.effective[1] != 0.0}
    assert sorted(calls) == sorted(lam for lam in lams for t in ("pre", "ft"))
    assert len(calls) == 22


# -------------------------------------------------------------------- presets

def mean_point(rows, estimator, lam, tau, task, method="analytic"):
    vals = [r.value for r in rows
            if r.estimator == estimator and r.task == task and r.method == method
            and (lam is None or (r.lam is not None and r.lam == lam))
            and (tau is None or (r.tau is not None and r.tau == tau))]
    if not vals:
        raise ValueError(f"no rows for {estimator} lam={lam} tau={tau} {task}")
    return float(np.mean(vals))


def test_preset_endpoints_collapse():
    res = run_preset("a", overrides={"replicates": 2, "p": 300, "tau_grid": [0.0, 0.5, 1.0]},
                     workers=1)
    lam = res.config.lambda_grid[0]
    for task in ("pre", "ft"):
        tau0 = mean_point(res.rows, "ensemble", lam, 0.0, task)
        pretrained = mean_point(res.rows, "pretrained", None, None, task)
        assert tau0 == pytest.approx(pretrained, rel=1e-12)
        tau1 = mean_point(res.rows, "ensemble", lam, 1.0, task)
        ridge = mean_point(res.rows, "ridge_ft", lam, None, task)
        assert tau1 == pytest.approx(ridge, rel=1e-12)


def test_preset_unknown_case():
    with pytest.raises(ValueError):
        run_preset("z")


def test_preset_points_order_on_the_case_defaults():
    # the CSV bytes follow this order
    kinds = preset_points(config_from_dict({"case": "a"}))
    taus = [round(0.05 * i, 10) for i in range(21)]
    assert TRADEOFF_LAMBDA == 1e-4 and FT_ONLY_LAMBDA == 1e-7
    assert kinds == [
        EstimatorKind.pretrained(), EstimatorKind.ridgeless(),
        *(EstimatorKind.ridge(lam) for lam in sorted({1e-4, 1e-7, *RIDGE_FAMILY})),
        *(EstimatorKind.ensemble(1e-4, tau) for tau in taus),
        *(EstimatorKind.ensemble(1e-7, tau) for tau in taus),
    ]
    assert len(kinds) == 2 + 10 + 2 * 21


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_preset_environment_is_the_case_config_environment(case, full):
    # a preset runs on its case's config, the one model object: the case's sizes,
    # with p = 10^4 over them under --full
    assert set(preset_defaults(case)) == {"n", "p", "p_tilde", "gamma_pre", "gamma_ft"}
    overrides = {"replicates": 1, **({"p": FULL_P} if full else {})}
    env = run_preset(case, overrides=overrides, workers=1).config
    p = 10_000 if full else 2000
    assert env == config_from_dict({"case": case, "p": p, "replicates": 1})
    assert {k: getattr(env, k) for k in preset_defaults(case)} == {**preset_defaults(case), "p": p}


# ----------------------------------------------------------------------- svg

def preset_rows():
    return run_preset("a", overrides={"replicates": 2, "p": 300}, workers=1).rows


@pytest.fixture(scope="module")
def rows_a():
    return preset_rows()


def test_svg_tradeoff_well_formed(tmp_path, rows_a):
    path = tmp_path / "tradeoff.svg"
    rows = [r for r in rows_a if r.estimator != "ensemble" or r.lam == 1e-4]
    render_tradeoff_svg(rows, path, 1e-4)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    assert root.get("viewBox")
    body = path.read_text()
    assert "<polyline" in body
    for label in ("ensemble", "ridge family", "pretrained", "interpolating"):
        assert label in body


def test_svg_ft_curve_well_formed(tmp_path, rows_a):
    path = tmp_path / "ft.svg"
    rows = [r for r in rows_a if r.estimator != "ensemble" or r.lam == 1e-7]
    render_ft_svg(rows, path, 1e-7)
    root = ET.parse(path).getroot()
    assert root.get("viewBox")


def test_svg_escapes_text_as_xml_escape_did(tmp_path, rows_a, monkeypatch):
    from xml.sax.saxutils import escape

    import overadapt.svgplot as svgplot

    label, case = 'ridge <&> "family"', "a & b <c> 'd'"
    rows = [r for r in rows_a if r.estimator != "ensemble" or r.lam == 1e-4]

    def render(name, case, label):
        monkeypatch.setitem(svgplot.LABELS, "ridge_ft", label)
        path = tmp_path / name
        render_tradeoff_svg([r._replace(case=case) for r in rows], path, 1e-4)
        return path.read_bytes()

    svg = render("escaped.svg", case, label)
    # the same render with plain stand-ins, each replaced by saxutils' escape
    plain = render("plain.svg", "CASE-TEXT", "LABEL-TEXT")
    assert svg == plain.replace(b"CASE-TEXT", escape(case).encode()).replace(
        b"LABEL-TEXT", escape(label).encode())
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert f"case {case}: two-task trade-off" in texts and label in texts


def test_svg_single_point_curve(tmp_path):
    res = run_preset("a", overrides={"replicates": 1, "p": 300, "tau_grid": [0.5]}, workers=1)
    path = tmp_path / "degenerate.svg"
    render_tradeoff_svg(res.rows, path, 1e-4)
    assert ET.parse(path).getroot().get("viewBox")


def test_svg_missing_series_named(tmp_path, rows_a):
    rows = [r for r in rows_a if r.estimator != "pretrained"]
    rows = [r for r in rows if r.estimator != "ensemble" or r.lam == 1e-4]
    with pytest.raises(MissingSeriesError, match="pretrained"):
        render_tradeoff_svg(rows, tmp_path / "x.svg", 1e-4)
    with pytest.raises(MissingSeriesError, match="ensemble"):
        render_tradeoff_svg([r for r in rows_a if r.estimator != "ensemble"],
                            tmp_path / "y.svg", 1e-4)


def test_svg_figures_draw_each_point_once(tmp_path, rows_a):
    import overadapt.svgplot as svgplot

    svg = lambda tag: "{http://www.w3.org/2000/svg}" + tag  # noqa: E731
    taus = {r.tau for r in rows_a if r.estimator == "ensemble"}
    levels = {r.lam for r in rows_a if r.estimator == "ridge_ft"}
    legend_x = svgplot.WIDTH - svgplot.PAD_R  # the plot area ends here, the legend follows
    render_tradeoff_svg(rows_a, tmp_path / "tradeoff.svg", TRADEOFF_LAMBDA)
    render_ft_svg(rows_a, tmp_path / "ft.svg", FT_ONLY_LAMBDA)
    for name in ("tradeoff.svg", "ft.svg"):
        root = ET.parse(tmp_path / name).getroot()
        [curve] = root.iter(svg("polyline"))  # one tau sweep, at the one lambda given
        assert len(curve.get("points").split()) == len(taus)
        legend = [t.text for t in root.iter(svg("text")) if float(t.get("x")) > legend_x]
        assert legend == list(svgplot.LABELS.values())
        if name == "tradeoff.svg":
            dots = [c.get("fill") for c in root.iter(svg("circle"))
                    if c.get("r") == "4" and float(c.get("cx")) < legend_x]
            assert dots == [svgplot.COLORS["ridge_ft"]] * len(levels)
            squares = [r.get("fill") for r in root.iter(svg("rect")) if r.get("width") == "8"]
            assert squares == [svgplot.COLORS[e] for e in ("ridgeless_ft", "pretrained")]
        else:
            dashed = [ln.get("stroke") for ln in root.iter(svg("line"))
                      if ln.get("stroke-dasharray")]
            assert dashed == [svgplot.COLORS[e] for e in ("ridge_ft", "ridgeless_ft",
                                                          "pretrained")]


# ----------------------------------------------------------------------- cli

def test_cli_preset_writes_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli_main(["preset", "a", "--out", str(out), "--replicates", "1",
                     "--workers", "1"])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_cli_preset_plot(tmp_path):
    out = tmp_path / "rows.csv"
    prefix = tmp_path / "figs"
    code = cli_main(["preset", "a", "--out", str(out), "--replicates", "1",
                     "--workers", "1", "--plot", str(prefix)])
    assert code == 0
    for suffix in ("-tradeoff.svg", "-ft.svg"):
        path = tmp_path / f"figs{suffix}"
        assert path.exists()
        ET.parse(path)


def test_cli_sweep_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=2), cfg_path)
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 0
    assert out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text('{"zeta2": -1}')
    assert cli_main(["sweep", "--config", str(bad)]) == 1
    # rejected before any seed runs, rather than failing every seed
    bad.write_text('{"n_pre": true}')
    rows = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(bad), "--out", str(rows)]) == 1
    assert not rows.exists()
    missing_dir = tmp_path / "nope" / "out.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out",
                     str(missing_dir), "--workers", "1"]) == 3


@pytest.mark.parametrize("argv, config_out", [
    pytest.param(["sweep", "--config", "{cfg}", "--workers", "1"], True, id="sweep-config-out"),
    pytest.param(["sweep", "--config", "{cfg}", "--out", "{tmp}/rows.csv", "--workers", "1",
                  "--save-config", "{missing}/saved.json"], False, id="save-config"),
    pytest.param(["preset", "a", "--replicates", "1", "--out", "{missing}/rows.csv"], False,
                 id="preset-out"),
    pytest.param(["preset", "a", "--replicates", "1", "--out", "{tmp}/rows.csv",
                  "--plot", "{missing}/p"], False, id="preset-plot"),
    pytest.param(["preset", "a", "--replicates", "1", "--out", "{tmp}"], False,
                 id="out-is-a-directory"),
    pytest.param(["verify", "--p", "400", "--n", "16", "--replicates", "2", "--trials", "10",
                  "--out", "{missing}/v.json"], False, id="verify-out"),
    pytest.param(["risk", "--estimator", "pretrained", "--case", "a",
                  "--out", "{missing}/r.csv"], False, id="risk-out"),
])
def test_cli_refuses_an_unwritable_output_before_any_seed_runs(tmp_path, monkeypatch, capsys,
                                                               argv, config_out):
    from overadapt import theory

    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    monkeypatch.setattr(theory, "verify_theorem_orderings",
                        lambda *args, **kwargs: pytest.fail("a seed ran"))
    cfg_path, missing = tmp_path / "cfg.json", tmp_path / "nope" / "dir"
    out = str(missing / "x.csv") if config_out else None
    save_config(small_config(replicates=2, out=out), cfg_path)
    argv = [a.format(cfg=cfg_path, tmp=tmp_path, missing=missing) for a in argv]
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: cannot write ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("argv, config_out, names", [
    pytest.param(["preset", "a", "--replicates", "1", "--plot", "{tmp}/x",
                  "--out", "{tmp}/x-ft.svg"], False, ("--out", "--plot"), id="out-is-a-figure"),
    pytest.param(["sweep", "--config", "{cfg}", "--out", "{tmp}/s.csv",
                  "--save-config", "{tmp}/./s.csv"], False, ("--out", "--save-config"),
                 id="out-is-save-config"),
    pytest.param(["sweep", "--config", "{cfg}", "--out", "{cfg}"], False, ("--config", "--out"),
                 id="sweep-out-is-the-config"),
    pytest.param(["sweep", "--config", "{cfg}"], True, ("--config", "the config's out"),
                 id="config-out-is-the-config"),
    pytest.param(["risk", "--estimator", "pretrained", "--config", "{cfg}", "--out",
                  "{tmp}/link.json"], False, ("--config", "--out"), id="risk-out-is-the-config"),
])
def test_cli_refuses_outputs_that_name_one_file_before_any_seed_runs(
        tmp_path, monkeypatch, capsys, argv, config_out, names):
    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=2, out=str(cfg_path) if config_out else None), cfg_path)
    (tmp_path / "link.json").symlink_to(cfg_path)
    before = cfg_path.read_bytes()
    assert cli_main([a.format(cfg=cfg_path, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {names[0]} and {names[1]} both name ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "link.json"]
    assert cfg_path.read_bytes() == before


def test_cli_save_config_may_rewrite_the_config_it_read(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=1), cfg_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "rows.csv"),
                     "--save-config", str(cfg_path), "--workers", "1"]) == 0
    assert load_config(cfg_path) == small_config(replicates=1)


def test_cli_risk_json_and_numerical_failure(tmp_path, monkeypatch, capsys):
    assert cli_main(["risk", "--estimator", "ridge_ft", "--lambda", "1e-3",
                     "--case", "a"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(row["method"], row["task"]) for row in payload] == [("analytic", "pre"),
                                                                 ("analytic", "ft")]
    assert payload[1]["value"] > 0
    # without --out or a config out the rows are JSON on stdout: --format is refused
    assert cli_main(["risk", "--estimator", "ridge_ft", "--lambda", "1e-4",
                     "--case", "a", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert "--format" in captured.err and captured.out == ""
    cfg = tmp_path / "singular.json"
    cfg.write_text(json.dumps({
        "n": 10, "p": 120, "p_tilde": 1, "k_star": 1,
        "gamma_pre": 0.05, "gamma_ft": 0.0}))
    assert cli_main(["risk", "--estimator", "ridgeless_ft", "--config",
                     str(cfg)]) == 2
    capsys.readouterr()
    # --case and --config both give the environment: refused before any seed runs
    cfg.write_text(json.dumps({"case": "c"}))
    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    assert cli_main(["risk", "--estimator", "ridge_ft", "--lambda", "1e-4", "--case", "b",
                     "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "--case" in captured.err and "--config" in captured.err and captured.out == ""


@pytest.mark.parametrize("estimator, flags, shown", [
    ("pretrained", [], (None, None)),
    ("ridgeless_ft", [], (None, None)),
    ("ridge_ft", ["--lambda", "1e-3"], (1e-3, None)),
    ("ensemble", ["--lambda", "1e-3", "--tau", "0.5"], (1e-3, 0.5)),
])
def test_cli_risk_json_shows_only_the_parameters_its_kind_takes(tmp_path, capsys, estimator,
                                                                flags, shown):
    # the printed and the written rows show lambda and tau alike: null where the
    # kind takes no such parameter (the pretrained estimator is tau = 0, not 1)
    argv = ["risk", "--estimator", estimator, "--case", "a", "--method", "lemma_approx", *flags]
    assert cli_main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(row["lambda"], row["tau"]) for row in payload] == [shown, shown]
    out = tmp_path / "risk.json"
    assert cli_main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert {(row["lambda"], row["tau"]) for row in json.loads(out.read_text())} == {shown}


@pytest.mark.parametrize("fmt, method, overrides", [
    pytest.param("csv", "analytic", {}, id="csv"),
    pytest.param("json", "analytic", {}, id="json"),
    pytest.param("csv", "monte_carlo", {"mc_draws": 300}, id="monte_carlo"),
    pytest.param("csv", "lemma_approx", {}, id="lemma_approx"),
    pytest.param("csv", "analytic", {"fix_theta_c": True, "jitter": True},
                 id="fix_theta_c-jitter"),
])
def test_cli_risk_out_writes_the_sweep_rows(tmp_path, capsys, fmt, method, overrides):
    cfg = small_config(replicates=1, master_seed=3, estimators=["ensemble"],
                       lambda_grid=[1e-3], tau_grid=[0.5], methods=[method], **overrides)
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out = tmp_path / f"risk.{fmt}"
    assert cli_main(["risk", "--config", str(cfg_path), "--estimator", "ensemble",
                     "--lambda", "1e-3", "--tau", "0.5", "--seed", "3", "--method", method,
                     "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
    swept = tmp_path / f"sweep.{fmt}"
    write_results(run_sweep(cfg, workers=1).rows, swept, fmt)
    assert out.read_bytes() == swept.read_bytes()


@pytest.mark.parametrize("method", ["analytic", "monte_carlo", "lemma_approx"])
def test_cli_risk_prints_the_rows_it_writes_as_json(tmp_path, capsys, method):
    # one JSON row format: stdout is the file that --format json --out writes
    argv = ["risk", "--estimator", "ensemble", "--lambda", "1e-3", "--tau", "0.5",
            "--case", "a", "--seed", "2", "--mc-draws", "200", "--method", method]
    assert cli_main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "risk.json"
    assert cli_main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
    assert printed.encode() == out.read_bytes()


def test_cli_risk_writes_to_the_config_out_key(tmp_path, monkeypatch, capsys):
    # as for preset and sweep: --out wins, else the config's out key
    monkeypatch.chdir(tmp_path)
    cfg = small_config(replicates=1, estimators=["ridgeless_ft"], out="cfg_rows.csv")
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    argv = ["risk", "--config", str(cfg_path), "--estimator", "ridgeless_ft"]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == "wrote 2 rows to cfg_rows.csv\n"
    write_results(run_sweep(cfg, workers=1).rows, tmp_path / "sweep.csv")
    assert (tmp_path / "cfg_rows.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()
    assert cli_main([*argv, "--out", "flag.csv"]) == 0
    assert capsys.readouterr().out == "wrote 2 rows to flag.csv\n"
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


def test_cli_risk_rejects_pool_flags(tmp_path, capsys):
    for flags in (["--replicates", "2"], ["--workers", "1"]):
        out = tmp_path / "risk.csv"
        assert cli_main(["risk", "--estimator", "ridgeless_ft", "--case", "a",
                         "--out", str(out), *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("estimator, flags", [
    ("pretrained", ["--lambda", "0.1"]),
    ("ridgeless_ft", ["--lambda", "0.1"]),
    ("pretrained", ["--tau", "0.3"]),
    ("ridgeless_ft", ["--tau", "0.3"]),
    ("ridge_ft", ["--lambda", "1e-4", "--tau", "0.3"]),
])
def test_cli_risk_rejects_a_parameter_its_estimator_lacks(tmp_path, monkeypatch, capsys,
                                                          estimator, flags):
    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    out = tmp_path / "risk.csv"
    assert cli_main(["risk", "--estimator", estimator, "--case", "a", "--out", str(out),
                     *flags]) == 1
    captured = capsys.readouterr()
    assert flags[-2] in captured.err and estimator in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["risk", "--estimator", "bogus"], "invalid choice: 'bogus'", id="bad-choice"),
    pytest.param(["verify", "--seed", "abc"], "invalid int value: 'abc'", id="non-integer"),
    pytest.param(["sweep"], "the following arguments are required: --config",
                 id="missing-required"),
])
def test_cli_usage_errors_are_validation_errors(capsys, argv, message):
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        cli_main(["verify", "--help"])
    assert done.value.code == 0
    assert "--trials" in capsys.readouterr().out


def test_cli_risk_rejects_one_mc_draw(tmp_path, capsys):
    # one draw has no standard error, so no se is reported as 0.0
    out = tmp_path / "risk.json"
    assert cli_main(["risk", "--estimator", "ridgeless_ft", "--case", "a",
                     "--method", "monte_carlo", "--mc-draws", "1", "--out", str(out)]) == 1
    assert "mc_draws" in capsys.readouterr().err
    assert not out.exists()


def test_cli_risk_rejects_zero_mc_draws(tmp_path, capsys):
    out = tmp_path / "risk.csv"
    assert cli_main(["risk", "--estimator", "ridgeless_ft", "--case", "a",
                     "--method", "monte_carlo", "--mc-draws", "0", "--out", str(out)]) == 1
    assert "mc_draws" in capsys.readouterr().err
    assert not out.exists()


def test_cli_risk_takes_mc_draws_from_config_or_flag(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(mc_draws=300), cfg_path)
    argv = ["risk", "--config", str(cfg_path), "--estimator", "ridge_ft",
            "--lambda", "1e-3", "--method", "monte_carlo"]
    drawn, mc = [], harness.mc_expected_risks

    def monte_carlo(pair, env, *args):
        drawn.append(env.mc_draws)
        return mc(pair, env, *args)

    monkeypatch.setattr(harness, "mc_expected_risks", monte_carlo)
    for extra, draws in (([], 300), (["--mc-draws", "150"], 150)):
        assert cli_main([*argv, *extra]) == 0
        assert drawn.pop() == draws and drawn == []
        assert {row["method"] for row in json.loads(capsys.readouterr().out)} == {"monte_carlo"}


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--p", "400", "--n", "16", "--replicates", "4",
                     "--trials", "20", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["rates"]
    assert "item1" in capsys.readouterr().out


def test_cli_verify_rejects_flags_it_cannot_honour(tmp_path, capsys):
    base = ["verify", "--p", "400", "--n", "16", "--replicates", "2", "--trials", "10"]
    for flags in (["--workers", "7"], ["--jitter"], ["--mc-draws", "5"], ["--format", "csv"]):
        out = tmp_path / "v.csv"
        assert cli_main([*base, "--out", str(out), *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "v.json"
    assert cli_main([*base, "--out", str(out), "--format", "json", "--workers", "1"]) == 0
    assert json.loads(out.read_text())["rates"]


def test_cli_run_loads_no_scipy(tmp_path):
    # no scipy, and no XML or web stack for the plots; modules the interpreter's
    # own start-up loads (site may load urllib.parse) are not the command's
    out = tmp_path / "a.csv"
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "from overadapt import cli\n"
            f"rc = cli.main(['preset', 'a', '--replicates', '1', '--workers', '1', "
            f"'--out', {str(out)!r}, '--plot', {str(tmp_path / 'a')!r}])\n"
            "print(json.dumps([rc, sorted(m for m in set(sys.modules) - before\n"
            "    if m.split('.')[0] in ('scipy', 'xml', 'urllib', 'http'))]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(overadapt.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "a-tradeoff.svg").exists()


@pytest.mark.parametrize("argv, absent", [
    (["verify", "--p", "400", "--n", "16", "--replicates", "2", "--trials", "10"],
     ["overadapt.harness", "overadapt.mc", "concurrent.futures.process", "multiprocessing"]),
    (["preset", "a", "--replicates", "1", "--workers", "1"], ["overadapt.theory"]),
    (["preset", "a", "--replicates", "2", "--workers", "2"],
     ["concurrent.futures.process", "multiprocessing"]),
    (["sweep", "--config", "cfg.json", "--workers", "2"],
     ["concurrent.futures.process", "multiprocessing"]),
    (["preset", "a", "--replicates", "1", "--workers", "1", "--plot", "a"], ["html"]),
    (["sweep", "--config", "mc.json", "--workers", "2"],
     ["concurrent.futures.process", "multiprocessing"]),
])
def test_cli_command_loads_only_what_it_runs(tmp_path, argv, absent):
    # verify runs no harness and no Monte Carlo, a preset no theory, and a plot
    # no html; seeds fan out by a bare fork, after the parent has loaded mc
    save_config(small_config(replicates=2), tmp_path / "cfg.json")
    save_config(small_config(replicates=2, methods=["analytic", "monte_carlo"], mc_draws=50),
                tmp_path / "mc.json")
    argv = [*argv, "--out", str(tmp_path / "out")]
    code = ("import json, os, sys\n"
            "from overadapt import cli\n"
            "fork, forked = os.fork, []\n"
            "def recording_fork():\n"
            "    forked.append('overadapt.mc' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = recording_fork\n"
            f"rc = cli.main({argv!r})\n"
            f"print(json.dumps([rc, [m for m in {absent!r} if m in sys.modules], forked]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(overadapt.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, check=True)
    rc, loaded, forked = json.loads(proc.stdout.splitlines()[-1])
    assert (rc, loaded) == (0, [])
    forks = harness._CAN_FORK and "--workers" in argv and argv[argv.index("--workers") + 1] == "2"
    assert forked == [True] * len(forked) and bool(forked) == forks


def test_cli_process_entry_exit_codes_and_output(tmp_path, capsys):
    # python -m overadapt.cli runs cli.entry: the same exit code, complete output
    # lines and the same bytes as cli.main in process
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"overadapt": "overadapt.cli:entry"}
    singular = tmp_path / "singular.json"
    save_config(small_config(replicates=2, p_tilde=5), singular)
    out = tmp_path / "rows.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(overadapt.__file__)))
    for argv, code in ((["preset", "a", "--replicates", "2", "--out", str(out)], 0),
                       (["preset", "z", "--out", str(out)], 1),
                       (["sweep", "--config", str(singular), "--out", str(out)], 2),
                       (["preset", "a", "--replicates", "2", "--out",
                         str(tmp_path / "nope" / "rows.csv")], 3)):
        out.unlink(missing_ok=True)
        assert cli_main(argv) == code
        expected = capsys.readouterr()
        in_process = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "overadapt.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (expected.out, expected.err)
        assert all(text.endswith("\n") for text in (proc.stdout, proc.stderr) if text)
        assert (out.read_bytes() if out.exists() else None) == in_process


@forks
def test_cli_process_entry_keeps_openssl_out(tmp_path, monkeypatch, capsys):
    # numpy.random imports secrets, hashlib and hmac; entry blocks _hashlib, so
    # the process maps no libcrypto (nor do the workers it forks, which share
    # its mappings) and writes the rows of cli.main in process
    argv = ["preset", "a", "--replicates", "2", "--workers", "2"]
    code = ("import json, sys\n"
            "from overadapt import cli\n"
            f"sys.argv = ['overadapt', *{argv!r}, '--out', 'entry.csv']\n"
            "rc = cli.entry()\n"
            "with open('/proc/self/maps') as fh:\n"
            "    libcrypto = sorted({line.split()[-1] for line in fh if 'libcrypto' in line})\n"
            "print(json.dumps([rc, libcrypto]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(overadapt.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    # main changes no process-wide state: it leaves _hashlib unblocked
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    assert cli_main([*argv, "--out", str(tmp_path / "main.csv")]) == 0
    assert "_hashlib" not in sys.modules
    capsys.readouterr()
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@forks
def test_forked_children_load_no_module(tmp_path):
    # numpy.random is loaded with the harness, so a child inherits it at the fork
    save_config(small_config(replicates=2), tmp_path / "cfg.json")
    code = ("import json, os, sys\n"
            "from overadapt import harness\n"
            "from overadapt.config import load_config\n"
            "evaluate = harness.evaluate_seed\n"
            "def recorded(*args):\n"
            "    rows = evaluate(*args)\n"
            "    with open(f'{os.getpid()}.modules', 'w') as fh:\n"
            "        json.dump(sorted(sys.modules), fh)\n"
            "    return rows\n"
            "harness.evaluate_seed = recorded\n"
            "config = load_config('cfg.json')\n"
            "before = set(sys.modules)\n"
            "result = harness.run_sweep(config, workers=2)\n"
            "print(json.dumps([result.workers, len(result.failures), sorted(before)]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(overadapt.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, check=True)
    workers, failed, before = json.loads(proc.stdout.splitlines()[-1])
    assert (workers, failed) == (2, 0)
    children = sorted(tmp_path.glob("*.modules"))
    assert len(children) == 2
    for path in children:
        loaded = set(json.loads(path.read_text())) - set(before)
        assert sorted(m for m in loaded if m.split(".")[0] == "numpy") == []


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=1), cfg_path)
    for argv in (["preset", "b", "--replicates", "1"], ["sweep", "--config", str(cfg_path)]):
        out = tmp_path / "rows.csv"
        assert cli_main([*argv, "--out", str(out), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


def test_cli_failed_seeds_reach_exit_code(tmp_path, capsys):
    # a rank-5 fine-tune Gram at n = 10 fails every seed without --jitter
    cfg_path = tmp_path / "singular.json"
    save_config(small_config(replicates=2, p_tilde=5), cfg_path)
    out = tmp_path / "rows.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 2
    assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]
    assert "seed 1 failed" in capsys.readouterr().err
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1", "--jitter"]) == 0


def test_cli_reports_the_processes_that_ran(tmp_path, capsys):
    # --workers 8 on 2 replicates forks 2 children (1 process where seeds run in-process)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    save_config(small_config(replicates=2), cfg_path)
    used = 2 if harness._CAN_FORK else 1
    assert run_sweep(load_config(cfg_path), workers=8).workers == used
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "8"]) == 0
    assert capsys.readouterr().out == f"wrote 24 rows to {out} ({used} workers, 0 flagged)\n"


def test_cli_preset_partial_failure_keeps_rows(tmp_path, monkeypatch, capsys):
    import overadapt.harness as harness

    evaluate = harness.evaluate_seed

    def fail_seed_one(config, seed_index, *args):
        if seed_index == 1:
            raise ArithmeticError("seed one is broken")
        return evaluate(config, seed_index, *args)

    monkeypatch.setattr(harness, "evaluate_seed", fail_seed_one)
    out = tmp_path / "rows.csv"
    assert cli_main(["preset", "a", "--out", str(out), "--replicates", "2",
                     "--workers", "1", "--plot", str(tmp_path / "figs")]) == 2
    seeds = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert seeds == {"0"}
    assert (tmp_path / "figs-ft.svg").exists()
    captured = capsys.readouterr()
    assert captured.err == "seed 1 failed: ArithmeticError: seed one is broken\n"
    assert captured.out.splitlines()[0] == f"wrote {2 * 54} rows to {out} (1 workers, 1 flagged)"


def test_cli_sweep_seed_zero_overrides_config(tmp_path):
    outputs = {}
    for name, config_seed, flags in (("flag", 5, ["--seed", "0"]),
                                     ("config", 0, []), ("kept", 5, [])):
        cfg_path = tmp_path / f"{name}.json"
        save_config(small_config(master_seed=config_seed, replicates=1), cfg_path)
        out = tmp_path / f"{name}.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--workers", "1", *flags]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["flag"] == outputs["config"] != outputs["kept"]


def test_cli_format_flag_wins_over_config_and_names_the_default_file(tmp_path, monkeypatch,
                                                                      capsys):
    monkeypatch.chdir(tmp_path)
    csv_cfg, json_cfg = tmp_path / "c.json", tmp_path / "cj.json"
    save_config(small_config(replicates=1), csv_cfg)
    save_config(small_config(replicates=1, format="json"), json_cfg)
    rows = run_sweep(small_config(replicates=1), workers=1).rows
    for argv, path in (
            (["--config", str(csv_cfg), "--format", "json"], tmp_path / "sweep.json"),
            (["--config", str(json_cfg)], tmp_path / "sweep.json"),
            (["--config", str(json_cfg), "--out", "x.json"], tmp_path / "x.json")):
        path.unlink(missing_ok=True)
        assert cli_main(["sweep", *argv, "--workers", "1"]) == 0
        with open(path) as fh:
            assert json.load(fh) == [r.to_dict() for r in rows]
        assert capsys.readouterr().out == (f"wrote {len(rows)} rows to {path.name} "
                                           "(1 workers, 0 flagged)\n")
    assert cli_main(["sweep", "--config", str(json_cfg), "--format", "csv",
                     "--workers", "1"]) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert cli_main(["risk", "--config", str(json_cfg), "--estimator", "ridge_ft",
                     "--lambda", "1e-3", "--out", "r.json"]) == 0
    with open(tmp_path / "r.json") as fh:
        assert json.load(fh) == [r.to_dict() for r in rows if r.estimator == "ridge_ft"]


@pytest.mark.parametrize("flags", [["--replicates", "0"], ["--trials", "0"],
                                   ["--trials", "-3"], ["--n", "0"], ["--n", "-3"]])
def test_cli_verify_rejects_non_positive_counts(tmp_path, capsys, flags):
    out = tmp_path / "v.json"
    assert cli_main(["verify", "--p", "400", "--n", "16", "--replicates", "2", "--trials", "10",
                     *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{flags[0]} must be a positive integer" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_preset_plot_needs_analytic_rows(tmp_path, monkeypatch, capsys):
    import overadapt.harness as harness

    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    out = tmp_path / "rows.csv"
    assert cli_main(["preset", "a", "--methods", "monte_carlo", "--plot", str(tmp_path / "f"),
                     "--replicates", "1", "--workers", "1", "--out", str(out)]) == 1
    assert "--plot" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "junk"])
def test_cli_rejects_bad_workers_variable(tmp_path, monkeypatch, capsys, value):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=1), cfg_path)
    monkeypatch.setenv("OVERADAPT_WORKERS", value)
    saved = tmp_path / "saved.json"
    for argv in (["preset", "b", "--replicates", "1"],
                 ["sweep", "--config", str(cfg_path), "--save-config", str(saved)]):
        out = tmp_path / "rows.csv"
        assert cli_main([*argv, "--out", str(out)]) == 1
        assert "OVERADAPT_WORKERS" in capsys.readouterr().err
        assert not out.exists()
    assert not saved.exists()


def test_cli_config_has_no_xi_key(tmp_path, monkeypatch, capsys):
    cfg_path, saved = tmp_path / "cfg.json", tmp_path / "saved.json"
    save_config(small_config(replicates=1), cfg_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--save-config", str(saved),
                     "--workers", "1", "--out", str(tmp_path / "rows.csv")]) == 0
    assert "xi" not in json.loads(saved.read_text())
    capsys.readouterr()
    # a config that still carries the key is refused before any seed runs
    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    cfg_path.write_text(json.dumps({**small_config(replicates=1).to_dict(), "xi": 0.5}))
    out = tmp_path / "refused.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "unknown config key(s): xi" in captured.err and captured.out == ""
    assert not out.exists()


def test_cli_rejects_a_negative_seed_before_any_seed_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(small_config(replicates=1), cfg_path)
    out, saved = tmp_path / "out.csv", tmp_path / "saved.json"
    for argv in (["preset", "a", "--replicates", "1", "--workers", "1"],
                 ["sweep", "--config", str(cfg_path), "--save-config", str(saved)],
                 ["verify", "--p", "400", "--n", "16", "--replicates", "2", "--trials", "10"],
                 ["risk", "--estimator", "ridgeless_ft", "--case", "a"]):
        assert cli_main([*argv, "--seed", "-1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--seed must be a non-negative integer, got -1" in captured.err
        assert "failed" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    # the same seed from a config file is a validation error too
    cfg_path.write_text(json.dumps({**small_config(replicates=1).to_dict(), "master_seed": -1}))
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_risk_takes_seed_and_jitter_from_config(tmp_path):
    cfg = small_config(replicates=1, master_seed=5, estimators=["ensemble"],
                       lambda_grid=[1e-3], tau_grid=[0.5])
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out, swept = tmp_path / "risk.csv", tmp_path / "sweep.csv"
    assert cli_main(["risk", "--config", str(cfg_path), "--estimator", "ensemble",
                     "--lambda", "1e-3", "--tau", "0.5", "--out", str(out)]) == 0
    write_results(run_sweep(cfg, workers=1).rows, swept, "csv")
    assert out.read_bytes() == swept.read_bytes()
    # a rank-5 fine-tune Gram at n = 10: singular unless the config asks for jitter
    for jitter, code in ((False, 2), (True, 0)):
        save_config(small_config(p_tilde=5, jitter=jitter), cfg_path)
        assert cli_main(["risk", "--config", str(cfg_path), "--estimator",
                         "ridgeless_ft"]) == code


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_numbers_before_any_seed_runs(tmp_path, monkeypatch, capsys,
                                                             value):
    monkeypatch.setattr(harness, "evaluate_seed", lambda *args: pytest.fail("a seed ran"))
    out = tmp_path / "out.csv"
    cfg_path = tmp_path / "cfg.json"
    # json writes NaN and Infinity tokens, and json.load reads them back
    cfg_path.write_text(json.dumps({"case": "a", "zeta2": float(value)}))
    for argv, named in ((["preset", "a", "--lambda", value, "--workers", "1"], "lambda_grid"),
                        (["preset", "a", "--tau-grid", "0.5", value, "--workers", "1"],
                         "tau_grid"),
                        (["sweep", "--config", str(cfg_path), "--workers", "1"], "zeta2"),
                        (["risk", "--estimator", "ridge_ft", "--lambda", value], "lam"),
                        (["risk", "--estimator", "ensemble", "--lambda", value], "lam"),
                        (["risk", "--config", str(cfg_path), "--estimator", "pretrained"],
                         "zeta2")):
        assert cli_main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert named in captured.err and "finite" in captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_numbers(value):
    for key in ("zeta1", "zeta2", "sigma2", "sigma2_tilde", "theta_c_norm",
                "gamma_pre", "gamma_ft"):
        with pytest.raises(ConfigError, match=key):
            small_config(**{key: value})
    for key in ("lambda_grid", "tau_grid"):
        with pytest.raises(ConfigError, match=key):
            small_config(**{key: [0.5, value]})
