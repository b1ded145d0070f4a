"""Record the reference values the benchmark checks outputs against.

    OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py

Runs one pass of every workload at every master seed in ``range(REF_SEEDS)``,
in this process at ``--workers 1``, and writes ``bench/reference.json``: for
each workload, the group names of ``checks.summaries`` and, per master seed,
their sums in that order.  Run it
only at a commit whose outputs are known to be right; the BLAS thread count
moves the values by far less than ``checks.REF_RTOL``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))


def main() -> int:
    from overadapt import cli

    reference: dict[str, dict[str, dict[str, float]]] = {}
    run_dir = os.path.join(os.path.dirname(BENCH), ".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run_dir)
    try:
        for name in workloads.WORKLOADS:
            reference[name] = {}
            for seed in range(workloads.REF_SEEDS):
                p = workloads.build_pass(name, seed, workdir).with_workers(1)
                rcs = [cli.main(list(argv)) for argv in p.steps]
                if any(rc not in (0, 2) for rc in rcs):
                    raise SystemExit(f"{name} seed {seed}: exit codes {rcs}")
                reference[name][str(seed)] = checks.summaries(p)
                print(f"{name} seed {seed}: {len(reference[name][str(seed)])} values",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # group names repeat from seed to seed, so each workload stores them once
    compact = {}
    for name, by_seed in reference.items():
        keys = sorted(by_seed["0"])
        if any(sorted(sums) != keys for sums in by_seed.values()):
            raise SystemExit(f"{name}: group names differ between master seeds")
        compact[name] = {"keys": keys, "seeds": {
            seed: [sums[k] for k in keys] for seed, sums in by_seed.items()}}
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(compact, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
