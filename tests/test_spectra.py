import numpy as np
import pytest

from overadapt.spectra import (
    SpectrumSpec,
    UndefinedRankError,
    build_eigenvalues,
    effective_rank,
)


def test_build_pretrain_case_b_shape():
    spec = SpectrumSpec(k_star=1, gamma=0.004, p=10_000, p_tilde=10_000)
    eigs = build_eigenvalues(spec)
    assert eigs.shape == (10_000,)
    assert eigs[0] == 1.0
    assert np.all(eigs[1:] == 0.004)
    assert np.isclose(eigs.sum(), 1 + 9999 * 0.004, rtol=1e-12)


def test_build_finetune_case_a_shape():
    spec = SpectrumSpec(k_star=1, gamma=0.025, p=10_000, p_tilde=40)
    eigs = build_eigenvalues(spec)
    assert eigs[0] == 1.0
    assert np.all(eigs[1:40] == 0.025)
    assert np.all(eigs[40:] == 0.0)
    assert np.isclose(eigs.sum(), spec.trace, rtol=1e-12)


def test_build_identity_spectrum():
    spec = SpectrumSpec(k_star=3, gamma=0.0, p=3, p_tilde=3)
    assert np.array_equal(build_eigenvalues(spec), np.ones(3))


def test_build_is_non_increasing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 50))
        pt = int(rng.integers(1, p + 1))
        ks = int(rng.integers(1, pt + 1))
        spec = SpectrumSpec(k_star=ks, gamma=float(rng.uniform(0, 1)), p=p, p_tilde=pt)
        eigs = build_eigenvalues(spec)
        assert np.all(np.diff(eigs) <= 0)
        counts = (np.sum(eigs == 1.0), np.sum(eigs == 0.0))
        assert counts[0] >= ks  # gamma may collide with 1 or 0


@pytest.mark.parametrize("kwargs", [
    dict(k_star=1, gamma=1.5, p=10, p_tilde=10),   # tail above the head
    dict(k_star=5, gamma=0.5, p=10, p_tilde=4),    # k_star > p_tilde
    dict(k_star=1, gamma=0.5, p=10, p_tilde=11),   # p_tilde > p
    dict(k_star=0, gamma=0.5, p=10, p_tilde=10),   # no unit block
    dict(k_star=1, gamma=-0.1, p=10, p_tilde=10),  # negative eigenvalue
])
def test_spec_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        SpectrumSpec(**kwargs)


def test_effective_rank_flat_tail_cancels_gamma():
    eigs = np.concatenate([[1.0], np.full(9999, 0.37)])
    assert effective_rank(eigs, 1) == pytest.approx(9999, rel=1e-12)


def test_effective_rank_all_ones():
    # r_0 sums the whole spectrum including the pivot itself
    p = 17
    assert effective_rank(np.ones(p), 0) == pytest.approx(p, rel=1e-12)


def test_effective_rank_direct_summation_oracle():
    eigs = np.concatenate([[1.0], np.full(9999, 0.0022)])
    want = np.sum(eigs[0:]) / eigs[0]  # 1 + 9999 * 0.0022
    assert effective_rank(eigs, 0) == pytest.approx(want, rel=1e-12)
    assert effective_rank(eigs, 0) == pytest.approx(22.9978, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = np.sort(rng.uniform(0.01, 1, 30))[::-1]
        k = int(rng.integers(0, 29))
        assert effective_rank(e, k) == pytest.approx(np.sum(e[k:]) / e[k], rel=1e-12)


def test_effective_rank_scale_invariance():
    rng = np.random.default_rng(1)
    e = np.sort(rng.uniform(0.01, 1, 40))[::-1]
    for c in (1e-6, 0.5, 3.0, 1e7):
        for k in (0, 3, 17):
            assert effective_rank(c * e, k) == pytest.approx(
                effective_rank(e, k), rel=1e-12)


def test_effective_rank_zero_pivot_errors():
    eigs = np.array([1.0, 0.5, 0.0, 0.0])
    with pytest.raises(UndefinedRankError):
        effective_rank(eigs, 2)
    with pytest.raises(ValueError):
        effective_rank(eigs, 4)


def test_trace_matches_built_vector():
    for spec in (
        SpectrumSpec(1, 0.025, 500, 80),
        SpectrumSpec(3, 0.0, 64, 10),
        SpectrumSpec(2, 1.0, 33, 33),
    ):
        assert spec.trace == pytest.approx(build_eigenvalues(spec).sum(), rel=1e-12)


def test_spec_dict_round_trip():
    spec = SpectrumSpec(2, 0.125, 100, 60)
    assert SpectrumSpec(**spec.to_dict()) == spec
