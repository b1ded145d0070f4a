"""overadapt benchmark: one workload, end to end or traced, with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Scratch files go to ``.bench_run/``.

``--trace 0`` measures the end-to-end metrics.  It cold-starts the CLI
``SETUP_PROBES`` times for ``setup_s``, then runs passes of the workload through
``python3 -m overadapt.cli`` at the program's defaults (no ``--workers``, no
worker or BLAS thread variable) until ``--seconds`` are used, with at least
``MIN_PASSES`` passes, each on its own master seed.  Each CLI command is its own
process.  A metric is a per-pass figure: the median of each step (CLI command)
over the passes, summed over the pass's steps (for peak RSS, the largest step
median).  The per-step median keeps one slow command from moving the figure,
and the sum keeps a slowdown of any one step visible.

``--trace 1`` measures the per-layer metrics.  It runs one pass at the
defaults, one single-thread reference pass (``--workers 1`` and
``OPENBLAS_NUM_THREADS=1`` in the child's environment only), then rounds of one
untraced and one traced in-process pass at ``--workers 1``, at least
``MIN_ROUNDS`` of them, until the time is used.  The two modes swap places in
every other round.  Per-layer values are medians over the rounds.

Every pass's files are checked (see ``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (seeds plus
checks) and ``metrics``.  The full record, with the environment and every
sample, goes to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import monotonic, perf_counter

import checks
import metrics
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE = os.path.join(BENCH, "reference.json")
CHILD = os.path.join(BENCH, "child.py")

SETUP_PROBES = 5
MIN_PASSES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170


@dataclass
class Measured:
    """One CLI process: wall, CPU and peak RSS including its pool children."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stderr: str


def _env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _spawn(cmd: list[str], env: dict, stdout, stderr) -> tuple[int, object]:
    """Run ``cmd`` to completion; return its exit code and its rusage.

    The rusage of a reaped child includes the children it reaped itself, so a
    CLI process's pool workers count in its CPU time and peak RSS.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli_pass(p: workloads.Pass, workdir: str,
                 extra_env: dict | None = None) -> list[Measured]:
    """Each step of ``p`` as its own ``python3 -m overadapt.cli`` process."""
    env = _env(extra_env)
    out = []
    for i, argv in enumerate(p.steps):
        err_path = os.path.join(workdir, f"step{i}.stderr")
        with open(err_path, "w") as err:
            start = perf_counter()
            rc, usage = _spawn([sys.executable, "-m", "overadapt.cli", *argv], env,
                               subprocess.DEVNULL, err)
            wall = perf_counter() - start
        with open(err_path) as fh:
            out.append(Measured(wall, usage.ru_utime + usage.ru_stime,
                                usage.ru_maxrss / 1024.0, rc, fh.read()))
    return out


def _check(p: workloads.Pass, ms: list[Measured], reference: dict) -> checks.Tally:
    return checks.check_pass(p, [m.rc for m in ms], [m.stderr for m in ms],
                             _reference_for(reference, p))


def run_child_pass(p: workloads.Pass, workdir: str, trace: bool) -> tuple[dict, list[str]]:
    """All steps of ``p`` in one child process, optionally traced."""
    spec = os.path.join(workdir, "spec.json")
    out = os.path.join(workdir, "child.json")
    with open(spec, "w") as fh:
        json.dump({"steps": p.steps, "trace": trace}, fh)
    err_path = os.path.join(workdir, "child.stderr")
    with open(err_path, "w") as err:
        rc, _ = _spawn([sys.executable, CHILD, "steps", spec, out], _env(),
                       subprocess.DEVNULL, err)
    with open(err_path) as fh:
        err_text = fh.read()
    if rc != 0:
        raise RuntimeError(f"traced child exited {rc}: {err_text[-2000:]}")
    with open(out) as fh:
        result = json.load(fh)
    # one process ran every step, so its stderr is attributed to each output
    return result, [err_text] * len(p.steps)


def setup_probe(argv: tuple[str, ...]) -> float:
    start = monotonic()
    proc = subprocess.run([sys.executable, CHILD, "probe", *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["dispatch"] - start


def env_record() -> dict:
    proc = subprocess.run([sys.executable, CHILD, "env"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _reference_for(reference: dict, p: workloads.Pass) -> dict | None:
    """Reference sums of ``p``'s workload at its master seed, by group name."""
    entry = reference.get(p.workload)
    if entry is None or str(p.master_seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["keys"], entry["seeds"][str(p.master_seed)]))


def end_to_end(workload: str, seed: int, seconds: float, workdir: str,
               reference: dict, tally: checks.Tally) -> tuple[dict, dict]:
    first = workloads.build_pass(workload, workloads.master_seed(seed, 0), workdir)
    setups = [setup_probe(first.steps[0]) for _ in range(SETUP_PROBES)]
    passes: list[list[Measured]] = []
    samples = []
    start = perf_counter()
    while True:
        pass_dir = _fresh_dir(os.path.join(workdir, "pass"))
        p = workloads.build_pass(workload, workloads.master_seed(seed, len(passes)), pass_dir)
        ms = run_cli_pass(p, pass_dir)
        tally.add(_check(p, ms, reference))
        passes.append(ms)
        samples += [{"master_seed": p.master_seed, "step": i, "wall_s": m.wall_s,
                     "cpu_s": m.cpu_s, "peak_rss_mb": m.rss_mb, "rc": m.rc}
                    for i, m in enumerate(ms)]
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    def per_step(field: str) -> list[float]:
        return [statistics.median(getattr(ms[i], field) for ms in passes)
                for i in range(len(passes[0]))]

    values = {"wall_s": sum(per_step("wall_s")), "cpu_s": sum(per_step("cpu_s")),
              "peak_rss_mb": max(per_step("rss_mb")), "setup_s": statistics.median(setups)}
    return values, {"commands": samples, "setup_s": setups}


def traced(workload: str, seed: int, seconds: float, workdir: str, reference: dict,
           tally: checks.Tally, workers: int) -> tuple[dict, dict]:
    start = perf_counter()
    d = _fresh_dir(os.path.join(workdir, "default"))
    p = workloads.build_pass(workload, workloads.master_seed(seed, 0), d)
    default = run_cli_pass(p, d)
    tally.add(_check(p, default, reference))

    d = _fresh_dir(os.path.join(workdir, "single_thread"))
    p = workloads.build_pass(workload, workloads.master_seed(seed, 1), d).with_workers(1)
    single = run_cli_pass(p, d, {"OPENBLAS_NUM_THREADS": "1"})
    tally.add(_check(p, single, reference))

    # Every round runs the same input, so counts repeat exactly from round to round.
    # The modes swap places in every other round, so neither always runs first.
    rounds = []
    while True:
        outputs = {}
        walls = {}
        layer = None
        modes = ("untraced", "traced") if len(rounds) % 2 == 0 else ("traced", "untraced")
        for mode in modes:
            d = _fresh_dir(os.path.join(workdir, mode))
            p = workloads.build_pass(workload, workloads.master_seed(seed, 2),
                                     d).with_workers(1)
            result, errs = run_child_pass(p, d, trace=mode == "traced")
            tally.add(checks.check_pass(p, result["rcs"], errs, _reference_for(reference, p)))
            walls[mode] = sum(result["walls"])
            outputs[mode] = [_read_bytes(o.path) for o in p.outputs]
            if mode == "traced":
                layer = tracing.layer_metrics(result["spans"], result["counters"])
        tally.check("traced pass wrote different bytes from the untraced pass",
                    outputs["traced"] == outputs["untraced"])
        layer["trace.traced_wall_s"] = walls["traced"]
        layer["trace.untraced_wall_s"] = walls["untraced"]
        layer["trace.overhead_s"] = walls["traced"] - walls["untraced"]
        layer["trace.coverage"] = 1.0 - layer["cli.main.self_s"] / walls["traced"]
        rounds.append(layer)
        elapsed = perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    med = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values = {name: med[name] if metrics.LAYERS[name][0] not in ("count", "bytes")
              else int(med[name]) for name in metrics.LAYERS if name in med}
    overheads = [r["trace.overhead_s"] for r in rounds]
    values["trace.overhead_range_s"] = max(overheads) - min(overheads)
    values["reference.default_wall_s"] = sum(m.wall_s for m in default)
    values["reference.single_thread_wall_s"] = sum(m.wall_s for m in single)
    values["harness.parallel_efficiency"] = (
        med["harness.evaluate_seed.total_s"] / (workers * values["reference.default_wall_s"]))
    return values, {"rounds": rounds, "default": [m.__dict__ for m in default],
                    "single_thread": [m.__dict__ for m in single]}


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "overadapt", "cli.py")):
        print(f"error: no overadapt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = _fresh_dir(os.path.join(RUN_DIR, tag))
    env = env_record()
    print("env " + json.dumps(env, sort_keys=True))

    tally = checks.Tally()
    if args.trace:
        values, detail = traced(args.workload, args.seed, args.seconds, workdir,
                                reference, tally, env["workers"])
        units = {name: spec[0] for name, spec in metrics.LAYERS.items()}
    else:
        values, detail = end_to_end(args.workload, args.seed, args.seconds, workdir,
                                    reference, tally)
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    tally.close_mc()
    shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "values": values, "detail": detail,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_ratio": tally.failed / tally.attempted, "failures": tally.failures}
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    for failure in tally.failures:
        print(f"check failed: {failure}")
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
