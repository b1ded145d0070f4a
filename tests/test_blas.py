"""The package runs its BLAS work on one thread per process and restores the
caller's thread counts; results do not depend on threads or workers."""

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


def test_cli_pins_one_thread_and_restores(monkeypatch):
    before = thread_counts()
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(thread_counts()) or 0)
    assert cli.main(["verify"]) == 0
    assert seen == [[1] * len(before)]
    assert thread_counts() == before


class _ThreadProbeEnv:
    """Stands in for a TaskEnvironment: evaluating a seed reports the BLAS threads."""

    @property
    def spectrum_pre(self):
        raise RuntimeError(f"threads {thread_counts()}")


def test_pool_workers_run_single_threaded():
    jobs = [(_ThreadProbeEnv(), s, 0, [], [], 0, "", False, False) for s in range(2)]
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
    assert default == _preset_csv(tmp_path, "workers1", ["--workers", "1"])
    assert default == _preset_csv(tmp_path, "workers2", ["--workers", "2"])
