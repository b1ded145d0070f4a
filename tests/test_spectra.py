"""The config's spectra: each covariance as its (count, value) blocks.

``ExperimentConfig.spectrum_pre`` and ``spectrum_ft`` are the one statement
of the three-block form (k_star ones, the tail up to the support, then
zeros), and ``validate`` the one check of the keys that fix it.
"""

import numpy as np
import pytest

from overadapt.config import ConfigError, ExperimentConfig
from overadapt.presets import CASES, FULL_P


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_spectra(case):
    env = ExperimentConfig(case=case)
    n = CASES[case]
    assert env.spectrum_pre == ((1, 1.0), (1999, float(n) ** -1.5))
    assert env.spectrum_ft == ((1, 1.0), (2 * n - 1, 1.0 / n), (2000 - 2 * n, 0.0))


def test_build_pretrain_case_b_shape():
    env = ExperimentConfig(case="b", p=FULL_P)
    # no zero block when the support is the whole space
    assert env.spectrum_pre == ((1, 1.0), (9999, env.gamma_pre))


def test_build_finetune_case_a_shape():
    env = ExperimentConfig(case="a", p=FULL_P)
    assert env.spectrum_ft == ((1, 1.0), (79, 0.025), (9920, 0.0))
    assert sum(c * v for c, v in env.spectrum_ft) == 1 + 79 * 0.025


def test_build_identity_spectrum():
    env = ExperimentConfig(k_star=3, p=3, p_tilde=3, gamma_pre=0.0, gamma_ft=0.0)
    assert env.spectrum_pre == env.spectrum_ft == ((3, 1.0),)


def test_build_is_non_increasing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 50))
        pt = int(rng.integers(1, p + 1))
        ks = int(rng.integers(1, pt + 1))
        gammas = rng.uniform(0, 1, 2)
        env = ExperimentConfig(k_star=ks, p=p, p_tilde=pt, gamma_pre=float(gammas[0]),
                               gamma_ft=float(gammas[1]))
        for blocks, support, gamma in ((env.spectrum_pre, p, env.gamma_pre),
                                       (env.spectrum_ft, pt, env.gamma_ft)):
            counts, values = zip(*blocks)
            assert sum(counts) == p and all(c > 0 for c in counts)
            assert values[0] == 1.0 and counts[0] == ks
            assert all(v >= w for v, w in zip(values, values[1:]))
            # the trace: k_star ones and the tail over the rest of the support
            assert sum(c * v for c, v in blocks) == ks + (support - ks) * gamma
            assert (p - support, 0.0) in blocks or support == p


# the error names the last key given
@pytest.mark.parametrize("kwargs", [
    dict(gamma_pre=1.5),            # tail above the head
    dict(k_star=5, p_tilde=4),      # k_star > p_tilde
    dict(p=10, p_tilde=11),         # p_tilde > p
    dict(k_star=0),                 # no unit block
    dict(gamma_pre=-0.1),           # negative eigenvalue
    dict(gamma_ft=1.5),
    dict(gamma_ft=-0.1),
])
def test_spec_invariants_rejected(kwargs):
    with pytest.raises(ConfigError, match=f"^{list(kwargs)[-1]}: "):
        ExperimentConfig(**kwargs)
