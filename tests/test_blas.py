"""The package runs its BLAS work on one thread per process and restores the
caller's thread counts; results do not depend on threads or workers.  The
command-line entry point starts OpenBLAS single-threaded; library imports
leave the environment alone."""

import json
import os
import subprocess
import sys

import pytest

import overadapt
from overadapt import cli
from overadapt._blas import loaded_openblas, thread_counts
from overadapt.harness import _run_seeds

pytestmark = pytest.mark.skipif(not loaded_openblas(),
                                reason="no bundled OpenBLAS loaded")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(overadapt.__file__))


def test_cli_pins_one_thread_and_restores(monkeypatch):
    libs = loaded_openblas()
    original = thread_counts()
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(thread_counts()) or 0)
    try:
        for lib in libs:  # above 1, so that restoring the count is observable
            lib.set(2)
        assert cli.main(["verify"]) == 0
        assert thread_counts() == [2] * len(libs)
    finally:
        for lib, count in zip(libs, original):
            lib.set(count)
    assert seen == [[1] * len(libs)]


def _fresh(code, **env_vars):
    """Run ``code`` in a new interpreter with no thread variable; its last line, parsed."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=SRC, **env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", [
    "from overadapt import cli",
    # as `python -m overadapt.cli verify`, stopped once the arguments are parsed
    "import argparse, runpy, sys\n"
    "def stop(self, *args, **kwargs):\n"
    "    raise SystemExit('dispatched')\n"
    "argparse.ArgumentParser.parse_args = stop\n"
    "sys.argv = ['overadapt', 'verify']\n"
    "try:\n"
    "    runpy.run_module('overadapt.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
    "    assert done.code == 'dispatched', done.code",
], ids=["import", "run_as_main"])
def test_cli_starts_openblas_single_threaded(entry):
    code = (f"{entry}\n"
            "import json, os\n"
            "from overadapt._blas import thread_counts\n"
            "tasks = '/proc/self/task'\n"
            "print(json.dumps([thread_counts(),\n"
            "                  len(os.listdir(tasks)) if os.path.isdir(tasks) else None]))")
    counts, os_threads = _fresh(code)
    assert counts == [1]
    assert os_threads in (None, 1)


def test_package_import_loads_no_numpy():
    code = "import json, sys\nimport overadapt\nprint(json.dumps('numpy' in sys.modules))"
    assert _fresh(code) is False


def test_library_imports_leave_the_environment_alone():
    code = ("import json, os\n"
            "import overadapt.harness\n"
            "from overadapt import run_sweep\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
    assert _fresh(code) is None


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the cores")
def test_cli_keeps_the_callers_thread_count():
    code = ("import json, os\n"
            "from overadapt import cli\n"
            "from overadapt._blas import thread_counts\n"
            "at_load, seen = thread_counts(), []\n"
            "cli._cmd_verify = lambda args: seen.append(thread_counts()) or 0\n"
            "rc = cli.main(['verify'])\n"
            "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], at_load, rc, seen,\n"
            "                  thread_counts()]))")
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == ["2", [2], 0, [[1]], [2]]


def test_public_names_resolve_on_access():
    code = ("import importlib, json\n"
            "import overadapt\n"
            "def home(name):\n"
            "    return importlib.import_module('overadapt.' + overadapt._SUBMODULE_OF[name])\n"
            "same = all(getattr(overadapt, name) is getattr(home(name), name)\n"
            "           for name in overadapt.__all__)\n"
            "try:\n"
            "    overadapt.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError:\n"
            "    unknown = 'AttributeError'\n"
            "print(json.dumps([same, unknown, set(overadapt.__all__) <= set(dir(overadapt))]))")
    assert _fresh(code) == [True, "AttributeError", True]


class _ThreadProbeConfig:
    """Stands in for an ExperimentConfig: evaluating a seed reports the BLAS threads,
    from whichever setting it reads first."""

    def __getattr__(self, name):
        raise RuntimeError(f"threads {thread_counts()}")


def test_pool_workers_run_single_threaded():
    jobs = [(_ThreadProbeConfig(), s, []) for s in range(2)]
    rows, failures = _run_seeds(jobs, nworkers=2)
    assert rows == []
    ones = [1] * len(thread_counts())
    assert failures == [(s, f"RuntimeError: threads {ones}") for s in range(2)]


def _preset_csv(tmp_path, name, flags=(), threads_env=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OVERADAPT_WORKERS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(overadapt.__file__))
    env.update(threads_env or {})
    out = tmp_path / f"{name}.csv"
    subprocess.run([sys.executable, "-m", "overadapt.cli", "preset", "a",
                    "--replicates", "2", "--out", str(out), *flags],
                   env=env, cwd=tmp_path, check=True, capture_output=True, timeout=300)
    return out.read_bytes()


def test_preset_bytes_independent_of_threads_and_workers(tmp_path):
    default = _preset_csv(tmp_path, "default")
    assert default == _preset_csv(tmp_path, "one_thread",
                                  threads_env={"OPENBLAS_NUM_THREADS": "1"})
    assert default == _preset_csv(tmp_path, "two_threads",
                                  threads_env={"OPENBLAS_NUM_THREADS": "2"})
    assert default == _preset_csv(tmp_path, "workers1", ["--workers", "1"])
    assert default == _preset_csv(tmp_path, "workers2", ["--workers", "2"])
