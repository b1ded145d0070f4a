"""Property tests: the n x n evaluator against the dense p x p oracles.

Hypothesis draws the shape of an instance (sample counts, fine-tune support,
spectrum runs, coordinate law, variances, a fixed theta_c) and a seed; numpy
draws the numbers.  Examples are derandomised, so every run checks the same
instances.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overadapt.estimators import EstimatorKind
from overadapt.risk import TERM_KEYS, AnalyticRisk, _run_grams

from oracles import dense_risk_terms

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _piecewise(rng, lengths, lo=0.05):
    """A spectrum constant on runs of the given lengths, values in [lo, 1]."""
    return np.repeat(rng.uniform(lo, 1.0, len(lengths)), lengths)


@st.composite
def run_lengths(draw, least=1):
    # runs of one to four coordinates: one-coordinate runs, and runs shorter
    # than the stacked row count
    return draw(st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(
        lambda v: sum(v) >= least))


@given(seed=st.integers(0, 2**32 - 1), counts=st.lists(st.integers(1, 5), min_size=1,
                                                        max_size=3),
       lengths_pre=run_lengths(), lengths_ft=run_lengths(), zero_runs=st.integers(0, 3))
@PROPERTY
def test_run_grams_equal_the_dense_weighted_products(seed, counts, lengths_pre, lengths_ft,
                                                     zero_runs):
    rng = np.random.default_rng(seed)
    p = max(sum(lengths_pre), sum(lengths_ft))
    eigs = {"pre": _piecewise(rng, [*lengths_pre[:-1], p - sum(lengths_pre[:-1])]),
            "ft": _piecewise(rng, [*lengths_ft[:-1], p - sum(lengths_ft[:-1])])}
    cut = max(p - zero_runs, 0)
    eigs["ft"][cut:] = 0.0  # a support that ends before p
    rows = [rng.standard_normal((m, p)) * np.sqrt(eigs["pre"]) for m in counts]
    rows[-1][:, cut:] = 0.0  # a block that is zero past the support
    S, G = _run_grams(rows, eigs)
    C = np.vstack(rows)
    for t, e in [*eigs.items(), ("total", np.ones(p))]:
        got = G if t == "total" else S[t]
        want = (C * e) @ C.T
        # |sum_k a_k b_k e_k| <= sqrt(D_i D_j): the scale of each entry's rounding
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), t


def _kind(lam, tau):
    if tau == 0.0:
        return EstimatorKind.pretrained()
    if tau < 1.0:
        return EstimatorKind.ensemble(lam, tau)
    return EstimatorKind.ridge(lam) if lam > 0 else EstimatorKind.ridgeless()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), n_pre=st.integers(2, 6),
       support=st.sampled_from(["below", "equal", "above"]),
       lengths=run_lengths(least=1), coord_dist=st.sampled_from(["gaussian", "rademacher"]),
       variances=st.tuples(*[st.sampled_from([0.0, 0.3]) for _ in range(4)]),
       fixed_theta_c=st.booleans(),
       lam=st.sampled_from([0.0, 1e-3, 0.05, 0.5]), tau=st.sampled_from([0.0, 0.35, 1.0]))
@PROPERTY
def test_analytic_terms_match_the_dense_oracle(seed, n, n_pre, support, lengths, coord_dist,
                                               variances, fixed_theta_c, lam, tau):
    rng = np.random.default_rng(seed)
    p_tilde = {"below": n - 1, "equal": n, "above": n + 3}[support]
    p = max(sum(lengths), n_pre + 3, p_tilde + 2)
    eigs_pre = _piecewise(rng, [*lengths[:-1], p - sum(lengths[:-1])])
    eigs_ft = _piecewise(rng, [*lengths[:-1], p - sum(lengths[:-1])])
    eigs_ft[p_tilde:] = 0.0

    def design(rows, eigs):
        if coord_dist == "gaussian":
            Z = rng.standard_normal((rows, p))
        else:
            Z = rng.integers(0, 2, (rows, p)) * 2.0 - 1.0
        return Z * np.sqrt(eigs)

    X, Xt = design(n_pre, eigs_pre), design(n, eigs_ft)
    if support != "above":
        lam = lam or 1e-3  # a rank-deficient or square fine-tune Gram needs a penalty
    # the oracle's dense inverses and the evaluator's eigenbases agree to rel 1e-9
    # only on well-conditioned Grams; singular ones are tested elsewhere
    assume(np.linalg.cond(X @ X.T) < 1e4)
    assume(lam > 0 or np.linalg.cond(Xt @ Xt.T) < 1e4)
    theta_c = None
    if fixed_theta_c:
        theta_c = rng.standard_normal(p)
        theta_c *= 1.3 / np.linalg.norm(theta_c)
    ev = AnalyticRisk(X, Xt, eigs_pre, eigs_ft, *variances, theta_c_norm=1.3,
                      theta_c=theta_c)
    kind = _kind(lam, tau)
    for task in ("pre", "ft"):
        got = ev.task_risk(kind, task).terms
        # at tau = 0 the terms do not depend on lam, which keeps the oracle's R invertible
        want = dense_risk_terms(X, Xt, eigs_pre, eigs_ft, *variances, lam, tau, task,
                                theta_c=theta_c, theta_c_norm=1.3)
        for key in TERM_KEYS:
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-12), (task, key)
