"""The benchmark's hooks into the program: every workload's traced pass runs.

``bench/tracing.py`` wraps methods by name and ``bench/child.py`` runs the CLI
in process, so a rename in the program breaks the benchmark without breaking
any other test.  This runs each workload's single-worker pass through
``run.run_child_pass(..., trace=True)``, as ``bench/run.py --trace 1`` does.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_of_each_workload_runs(tmp_path, workload):
    p = workloads.build_pass(workload, 5, str(tmp_path)).with_workers(1)
    result, _ = run.run_child_pass(p, str(tmp_path), trace=True)
    assert result["rcs"] == [0] * len(p.steps)
    assert tracing.layer_metrics(result["spans"], result["counters"])
    names = {span[0] for span in result["spans"]}
    assert {"risk.AnalyticRisk.init", "estimators.GramSolver.factor"} <= names
