"""Child-process side of the benchmark; ``run.py`` starts it, one mode per process.

    python3 bench/child.py probe ARGV...     time from start to CLI dispatch
    python3 bench/child.py env               environment record, as JSON
    python3 bench/child.py steps SPEC OUT    run CLI steps in this process

``probe`` prints ``time.monotonic()`` at the moment ``overadapt.cli.main`` has
parsed its arguments, then stops before the command runs.  ``steps`` calls
``overadapt.cli.main`` once per argv in SPEC (a JSON file with ``steps`` and
``trace``), timing each call, and writes walls, exit codes and, when traced,
the spans to OUT.  The environment record reads the BLAS thread count through
the bundled OpenBLAS getters and never sets it.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class _Dispatched(BaseException):
    """Raised once the CLI has parsed its arguments; not caught by ``cli.main``."""


def probe(argv: list[str]) -> int:
    import argparse

    parse = argparse.ArgumentParser.parse_args

    def parse_then_stop(self, *args, **kwargs):
        parsed = parse(self, *args, **kwargs)
        if self.prog == "overadapt":
            raise _Dispatched(time.monotonic())
        return parsed

    argparse.ArgumentParser.parse_args = parse_then_stop
    from overadapt import cli

    try:
        cli.main(argv)
    except _Dispatched as done:
        print(json.dumps({"dispatch": done.args[0]}))
        return 0
    return 1


def _openblas_libraries() -> list[dict]:
    """Each loaded OpenBLAS: file name, build config and current thread count."""
    import ctypes

    with open("/proc/self/maps") as fh:
        fields = [line.split() for line in fh]
    paths = sorted({f[5] for f in fields if len(f) >= 6
                    and "openblas" in os.path.basename(f[5]).lower() and ".so" in f[5]})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(entry)
    return out


def env_record() -> dict:
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    from overadapt.harness import resolve_workers

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas": _openblas_libraries(),
        "workers": resolve_workers(None),
        "env_vars": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "OVERADAPT_WORKERS") if k in os.environ},
    }


def run_steps(spec_path: str, out_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    from overadapt import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    walls, rcs = [], []
    for argv in spec["steps"]:
        start = time.perf_counter()
        rcs.append(cli.main(list(argv)))
        walls.append(time.perf_counter() - start)
    result = {"walls": walls, "rcs": rcs}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(probe(rest))
    if mode == "env":
        print(json.dumps(env_record()))
        sys.exit(0)
    if mode == "steps":
        sys.exit(run_steps(*rest))
    sys.exit(f"unknown mode {mode!r}")
