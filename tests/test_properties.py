"""Property tests: the design pair's reduction and the n x n evaluator
against the dense p x p oracles.

Hypothesis draws the shape of an instance (sample counts, fine-tune support,
spectrum runs, coordinate law, variances, a fixed theta_c) and a seed; numpy
draws the numbers.  Examples are derandomised, so every run checks the same
instances.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overadapt.estimators import EstimatorKind
from overadapt.mc import row_space
from overadapt.risk import TERM_KEYS, AnalyticRisk, DesignPair, lemma_approx_risk

from oracles import dense_risk_terms, eigenvalues, padded

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _blocks(rng, lengths, p, lo=0.05):
    """Blocks of the given lengths, the last one stretched to p, values in [lo, 1]."""
    counts = [*lengths[:-1], p - sum(lengths[:-1])]
    return list(zip(counts, rng.uniform(lo, 1.0, len(counts))))


def _support(blocks, width):
    """``blocks`` cut at coordinate ``width``, then one zero block to their end.

    Blocks past the cut keep a count of zero, which the pair must skip.
    """
    out, lo = [], 0
    for count, value in blocks:
        out.append((min(max(width - lo, 0), count), value))
        lo += count
    return [*out, (lo - width, 0.0)]


@st.composite
def run_lengths(draw, least=1):
    # runs of one to four coordinates: one-coordinate runs, and runs shorter
    # than the stacked row count
    return draw(st.lists(st.integers(1, 4), min_size=1, max_size=8).filter(
        lambda v: sum(v) >= least))


def _design(rng, rows, blocks, coord_dist="gaussian"):
    """Rows of i.i.d. Gaussian or Rademacher coordinates scaled by the blocks' sqrt values.

    The design stops at its last nonzero block, as a drawn design does, so it
    is narrower than p whenever its spectrum ends in zeros.
    """
    eigs = eigenvalues(blocks)
    if coord_dist == "gaussian":
        Z = rng.standard_normal((rows, eigs.size))
    else:
        Z = rng.integers(0, 2, (rows, eigs.size)) * 2.0 - 1.0
    width = np.flatnonzero(eigs)[-1] + 1 if eigs.any() else 0
    return (Z * np.sqrt(eigs))[:, :width]


def _stack(X, Xt, theta_c, p):
    rows = [padded(X, p), padded(Xt, p)]
    return np.vstack(rows if theta_c is None else [*rows, theta_c[None, :]])


@given(seed=st.integers(0, 2**32 - 1), n_pre=st.integers(1, 5), n=st.integers(1, 5),
       fixed_theta_c=st.booleans(), lengths_pre=run_lengths(), lengths_ft=run_lengths(),
       zero_runs=st.integers(0, 3))
@PROPERTY
def test_pair_grams_equal_the_dense_weighted_products(seed, n_pre, n, fixed_theta_c,
                                                      lengths_pre, lengths_ft, zero_runs):
    rng = np.random.default_rng(seed)
    p = max(sum(lengths_pre), sum(lengths_ft))
    # a fine-tune support that ends before p, its design stopping there
    blocks = {"pre": _blocks(rng, lengths_pre, p),
              "ft": _support(_blocks(rng, lengths_ft, p), max(p - zero_runs, 0))}
    X, Xt = _design(rng, n_pre, blocks["pre"]), _design(rng, n, blocks["ft"])
    theta_c = rng.standard_normal(p) if fixed_theta_c else None
    pair = DesignPair(X, Xt, blocks["pre"], blocks["ft"], theta_c=theta_c)
    assert pair.p == p
    with pytest.raises(ValueError, match="different dimensions"):
        DesignPair(X, Xt, blocks["pre"], [*blocks["ft"], (1, 0.0)])
    C = _stack(X, Xt, theta_c, p)
    for t, e in [*((t, eigenvalues(b)) for t, b in blocks.items()), ("total", np.ones(p))]:
        got = pair.G if t == "total" else pair.S[t]
        want = (C * e) @ C.T
        # |sum_k a_k b_k e_k| <= sqrt(D_i D_j): the scale of each entry's rounding
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        assert np.all(np.abs(got - want) <= 1e-12 * scale), t
        if t != "total":
            assert pair.tr_cov[t] == pytest.approx(e.sum(), rel=1e-12), t


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), n_pre=st.integers(1, 6),
       support=st.sampled_from(["below", "equal", "above"]),
       lengths=run_lengths(least=1), coord_dist=st.sampled_from(["gaussian", "rademacher"]),
       zero_pre=st.sets(st.integers(0, 7)), fixed_theta_c=st.booleans())
@PROPERTY
def test_row_space_coordinates_reproduce_each_run_gram(seed, n, n_pre, support, lengths,
                                                       coord_dist, zero_pre, fixed_theta_c):
    # runs of one to four coordinates are smaller than the n_pre + n stacked rows
    rng = np.random.default_rng(seed)
    p_tilde = {"below": n - 1, "equal": n, "above": n + 3}[support]
    p = max(sum(lengths), p_tilde + 2)
    # zero pretrain variance on some blocks; the fine-tune support ends at p_tilde
    blocks_pre = [(c, 0.0 if k in zero_pre else v)
                  for k, (c, v) in enumerate(_blocks(rng, lengths, p))]
    blocks_ft = _support(_blocks(rng, lengths, p), p_tilde)

    X, Xt = _design(rng, n_pre, blocks_pre, coord_dist), _design(rng, n, blocks_ft, coord_dist)
    theta_c = rng.standard_normal(p) if fixed_theta_c else None
    pair = DesignPair(X, Xt, blocks_pre, blocks_ft, theta_c=theta_c)
    C = _stack(X, Xt, theta_c, p)
    edges = np.cumsum([0, *pair.sizes])
    assert edges[-1] == p
    for i, (F, lo, hi) in enumerate(zip(row_space(pair), edges, edges[1:])):
        for t, b in (("pre", blocks_pre), ("ft", blocks_ft)):
            # both spectra are constant on a run, at the run's value
            assert np.all(eigenvalues(b)[lo:hi] == pair.values[t][i]), t
        want = C[:, lo:hi] @ C[:, lo:hi].T
        assert np.max(np.abs(F @ F.T - want), initial=0.0) <= 1e-12 * np.max(np.abs(want)), \
            (lo, hi)
        # so the run's off-span dimension, hi - lo minus the rank, is right too
        assert F.shape[1] == np.linalg.matrix_rank(C[:, lo:hi]), (lo, hi)


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
    blocks_pre = _blocks(rng, lengths, p)
    blocks_ft = _support(_blocks(rng, lengths, p), p_tilde)

    X, Xt = _design(rng, n_pre, blocks_pre, coord_dist), _design(rng, n, blocks_ft, coord_dist)
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
    pair = DesignPair(X, Xt, blocks_pre, blocks_ft, theta_c=theta_c)
    # the evaluators read only the variances and theta_c_norm; the spectra are the pair's
    env = SimpleNamespace(**dict(zip(("zeta1", "zeta2", "sigma2", "sigma2_tilde"), variances)),
                          theta_c_norm=1.3)
    ev = AnalyticRisk(pair, env)
    kind = _kind(lam, tau)
    # the two-term shortcut reads only the fine-tune shift and noise variances
    lemma = lemma_approx_risk(pair, SimpleNamespace(zeta2=variances[1],
                                                    sigma2_tilde=variances[3]))
    two = ("term_zeta2", "term_sigma_tilde")
    for task in ("pre", "ft"):
        _, got = ev.task_risk(kind, task)
        # at tau = 0 the terms do not depend on lam, which keeps the oracle's R invertible
        want = dense_risk_terms(X, Xt, blocks_pre, blocks_ft, *variances, lam, tau, task,
                                theta_c=theta_c, theta_c_norm=1.3)
        assert {k: lemma.task_risk(kind, task)[1][k] for k in two} == pytest.approx(
            {k: want[k] for k in two}, rel=1e-9, abs=1e-12), task
        for key in TERM_KEYS:
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-12), (task, key)
