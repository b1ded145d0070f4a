from dataclasses import asdict

import numpy as np
import pytest

from overadapt.spectra import SpectrumSpec


def test_build_pretrain_case_b_shape():
    spec = SpectrumSpec(k_star=1, gamma=0.004, p=10_000, p_tilde=10_000)
    # no zero block when the support is the whole space
    assert spec.blocks == ((1, 1.0), (9999, 0.004))


def test_build_finetune_case_a_shape():
    spec = SpectrumSpec(k_star=1, gamma=0.025, p=10_000, p_tilde=40)
    assert spec.blocks == ((1, 1.0), (39, 0.025), (9960, 0.0))
    assert sum(c * v for c, v in spec.blocks) == 1 + 39 * 0.025


def test_build_identity_spectrum():
    spec = SpectrumSpec(k_star=3, gamma=0.0, p=3, p_tilde=3)
    assert spec.blocks == ((3, 1.0),)


def test_build_is_non_increasing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 50))
        pt = int(rng.integers(1, p + 1))
        ks = int(rng.integers(1, pt + 1))
        spec = SpectrumSpec(k_star=ks, gamma=float(rng.uniform(0, 1)), p=p, p_tilde=pt)
        counts, values = zip(*spec.blocks)
        assert sum(counts) == p and all(c > 0 for c in counts)
        assert values[0] == 1.0 and counts[0] == ks
        assert all(v >= w for v, w in zip(values, values[1:]))
        assert (p - pt, 0.0) in spec.blocks or pt == p


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


def test_spec_dict_round_trip():
    spec = SpectrumSpec(2, 0.125, 100, 60)
    assert SpectrumSpec(**asdict(spec)) == spec
