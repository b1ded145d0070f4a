"""Names and units of every metric the benchmark prints, and what each should move.

End-to-end metrics come from untraced passes at the program's defaults.
Per-layer metrics come from the traced run (``--trace 1``).  Each layer row
names the end-to-end metrics it should move, the workloads where the layer is
heavy, and those where it is light or absent.  ``BENCHMARK.json`` lists the
same names and units; the bounds live there only.
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": ("s", "wall time of one pass: each CLI command's median over the run's "
                    "passes, summed over the pass's commands"),
    "cpu_s": ("s", "user+sys seconds of one pass's CLI processes and their pool children: "
                   "each command's median over the passes, summed"),
    "peak_rss_mb": ("MB", "peak resident set of a CLI process or its largest pool child: "
                          "the largest of the commands' medians over the passes"),
    "setup_s": ("s", "fresh interpreter to CLI dispatch (import and argument parsing), "
                     "median of several cold starts"),
}

POOLED = ("preset_sweep", "mc_crosscheck")
ALL = ("preset_sweep", "mc_crosscheck", "verify_suite")

# name -> (unit, end-to-end metrics it should move, heavy on, light on / absent on)
LAYERS = {
    "harness.parallel_efficiency": (
        "ratio", ("wall_s", "cpu_s"), ("preset_sweep", "mc_crosscheck"), ("verify_suite",)),
    "harness.evaluate_seed.calls": ("count", ("wall_s",), POOLED, ("verify_suite",)),
    "harness.evaluate_seed.p50_s": ("s", ("wall_s",), POOLED, ("verify_suite",)),
    "harness.evaluate_seed.p90_s": ("s", ("wall_s",), POOLED, ("verify_suite",)),
    "harness.write_results.self_s": ("s", ("wall_s", "setup_s"), (), ALL),
    "harness.write_results.bytes": ("bytes", ("wall_s", "setup_s"), (), ALL),
    "svgplot.render_tradeoff_svg.self_s": ("s", ("wall_s", "setup_s"), (), ALL),
    "cli.main.self_s": ("s", ("wall_s", "setup_s"), (), ALL),
    "synth.sample_design.calls": (
        "count", ("wall_s",), ("verify_suite", "preset_sweep"), ("mc_crosscheck",)),
    "synth.sample_design.self_s": (
        "s", ("wall_s",), ("verify_suite", "preset_sweep"), ("mc_crosscheck",)),
    "risk.AnalyticRisk.init.self_s": (
        "s", ("wall_s",), ("verify_suite", "preset_sweep"), ("mc_crosscheck",)),
    "risk.AnalyticRisk.report.new_lambda.calls": (
        "count", ("wall_s",), ("preset_sweep", "verify_suite"), ("mc_crosscheck",)),
    "risk.AnalyticRisk.report.new_lambda.self_s": (
        "s", ("wall_s",), ("preset_sweep", "verify_suite"), ("mc_crosscheck",)),
    "risk.AnalyticRisk.report.cached.calls": (
        "count", ("wall_s",), ("preset_sweep", "verify_suite"), ("mc_crosscheck",)),
    "risk.AnalyticRisk.report.cached.self_s": (
        "s", ("wall_s",), ("preset_sweep", "verify_suite"), ("mc_crosscheck",)),
    "estimators.GramSolver.factor.calls": (
        "count", ("wall_s", "cpu_s"), ("preset_sweep",), ("mc_crosscheck",)),
    "estimators.GramSolver.factor.self_s": (
        "s", ("wall_s", "cpu_s"), ("preset_sweep",), ("mc_crosscheck",)),
    "estimators.GramSolver.solve.calls": (
        "count", ("wall_s", "cpu_s"), ("preset_sweep",), ("mc_crosscheck",)),
    "estimators.GramSolver.solve.self_s": (
        "s", ("wall_s", "cpu_s"), ("preset_sweep",), ("mc_crosscheck",)),
    "risk.mc_expected_risk.calls": (
        "count", ("wall_s",), ("mc_crosscheck",), ("preset_sweep", "verify_suite")),
    "risk.mc_expected_risk.self_s": (
        "s", ("wall_s",), ("mc_crosscheck",), ("preset_sweep", "verify_suite")),
    "risk.mc.normals": (
        "count", ("wall_s",), ("mc_crosscheck",), ("preset_sweep", "verify_suite")),
    "risk.mc.rng_s": (
        "s", ("wall_s",), ("mc_crosscheck",), ("preset_sweep", "verify_suite")),
    "risk.mc.linalg_s": (
        "s", ("wall_s",), ("mc_crosscheck",), ("preset_sweep", "verify_suite")),
    "risk.lemma_approx_risk.self_s": (
        "s", ("wall_s",), ("mc_crosscheck", "verify_suite"), ("preset_sweep",)),
    "risk.FtResolvent.traces.calls": (
        "count", ("wall_s",), ("mc_crosscheck", "verify_suite"), ("preset_sweep",)),
    "risk.FtResolvent.traces.self_s": (
        "s", ("wall_s",), ("mc_crosscheck", "verify_suite"), ("preset_sweep",)),
    "theory.verify_theorem_orderings.self_s": (
        "s", ("wall_s",), ("verify_suite",), ("preset_sweep", "mc_crosscheck")),
    "theory.tau_prime.calls": (
        "count", ("wall_s",), ("verify_suite",), ("preset_sweep", "mc_crosscheck")),
    "theory.eigen_band_check.self_s": (
        "s", ("wall_s",), ("verify_suite",), ("preset_sweep", "mc_crosscheck")),
    # The trace itself: in-process walls at --workers 1, traced and untraced,
    # their difference per round (median, and its range over the rounds), and
    # the share of the traced wall that spans below cli.main cover.
    "trace.traced_wall_s": ("s", (), (), ()),
    "trace.untraced_wall_s": ("s", (), (), ()),
    "trace.overhead_s": ("s", (), (), ()),
    "trace.overhead_range_s": ("s", (), (), ()),
    "trace.coverage": ("ratio", (), (), ()),
    # The wall of one pass at the defaults, and of the same pass at --workers 1
    # with OPENBLAS_NUM_THREADS=1: a single-thread reference that sizes the
    # headroom, kept out of the end-to-end metrics.
    "reference.default_wall_s": ("s", ("wall_s",), (), ()),
    "reference.single_thread_wall_s": ("s", ("wall_s",), (), ()),
}
