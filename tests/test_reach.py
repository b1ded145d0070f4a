"""Reachability guard: the four commands run every public function, method and
property defined in ``src/overadapt``, or the code is named below with the
reason it stays.

Code that only tests reach has no user, so it is deleted rather than kept;
this guard stops it from growing back.  The commands run in process, at one
worker, under ``sys.setprofile``.  Methods that ``dataclass`` generates have
no code in the source files and are not checked.
"""

import importlib
import inspect
import pkgutil
import sys

import overadapt
from overadapt.cli import main as cli_main
from overadapt.config import config_from_dict, save_config

KEPT = {
    # the lambda-derivative primitive that finding the exact full-risk optima
    # will read; test_term_dlam_matches_central_differences pins it
    "risk.Term.dlam",
    # bench/tracing.py wraps it by name, so it goes with the benchmark's mend
    "risk.FtResolvent.traces",
    # library conveniences the tests and library callers use
    "harness.run_preset",
    "risk.RiskReport.l_pre",
    "risk.RiskReport.l_ft",
    # process-level paths: the entry point and the BLAS thread controls run in
    # a fresh process or a forked worker, which the subprocess tests cover
    "cli.entry",
    "_blas.start_single_threaded",
    "_blas.pin_single_thread",
    "_blas.thread_counts",
}


def _public_code():
    """Qualified name -> code object of every public function, method and property."""
    found = {}
    for info in pkgutil.iter_modules(overadapt.__path__):
        module = importlib.import_module(f"overadapt.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {"": obj}
            if inspect.isclass(obj):
                members = {f".{attr}": m for attr, m in vars(obj).items()
                           if not attr.startswith("_") or attr.endswith("__")}
            for attr, member in members.items():
                # property, cached_property, classmethod and staticmethod hold a function
                for holder in ("fget", "func", "__func__"):
                    member = getattr(member, holder, member)
                if inspect.isfunction(member):
                    code = inspect.unwrap(member).__code__
                    if code.co_filename == module.__file__:
                        found[f"{info.name}.{name}{attr}"] = code
    return found


def test_every_public_function_runs_under_a_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    save_config(config_from_dict({
        "n": 10, "p": 120, "p_tilde": 20, "replicates": 1, "mc_draws": 50,
        "lambda_grid": [1e-3], "tau_grid": [0.0, 0.5, 1.0], "fix_theta_c": True,
        "methods": ["analytic", "monte_carlo", "lemma_approx"]}), cfg)
    commands = [
        ["preset", "a", "--replicates", "1", "--plot", str(tmp_path / "fig"),
         "--workers", "1", "--out", str(tmp_path / "preset.csv")],
        ["sweep", "--config", str(cfg), "--save-config", str(tmp_path / "saved.json"),
         "--workers", "1", "--out", str(tmp_path / "sweep.csv")],
        ["verify", "--replicates", "2", "--trials", "5", "--workers", "1"],
        ["risk", "--estimator", "ensemble", "--lambda", "1e-3", "--tau", "0.5",
         "--method", "monte_carlo"],
    ]
    ran = set()

    def record(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli_main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    unreached = {name for name, code in _public_code().items() if code not in ran}
    assert unreached == KEPT, \
        f"reached by no command: {sorted(unreached - KEPT)}; " \
        f"reached or gone, drop from KEPT: {sorted(KEPT - unreached)}"
