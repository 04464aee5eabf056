import re
import tracemalloc
import warnings

import numpy as np
import pytest

from robustpr import (
    FieldTag,
    NoiseSpec,
    SpectralConfig,
    power_iteration,
    spectral_init,
    synthesize_instance,
)
from robustpr import spectral
from robustpr.model import MeasurementEnsemble, correlate, generate_sampling


def test_zero_observations_gives_zero_signal():
    a = generate_sampling(4, 8, FieldTag.REAL, 0)
    e = MeasurementEnsemble(
        sampling_vectors=a, observations=np.zeros(8)
    )
    # one warning for mean b <= 0, all-zero observations included
    with pytest.warns(RuntimeWarning, match="^mean observation is nonpositive; "
                                            "returning the zero signal$"):
        x0 = spectral_init(e)
    assert not x0.any()


def test_power_iteration_stops_on_a_zero_product():
    # Y = 0 when every b_i is 0: the first product is zero and the start is kept
    e = MeasurementEnsemble(generate_sampling(4, 8, FieldTag.REAL, 0), np.zeros(8))
    v, rayleigh = power_iteration(e, seed=0)
    assert rayleigh == [0.0]
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_nonpositive_mean_observation_gives_zero_signal():
    a = generate_sampling(4, 8, FieldTag.REAL, 0)
    b = np.zeros(8)
    b[0] = -1.0
    e = MeasurementEnsemble(sampling_vectors=a, observations=b)
    with pytest.warns(RuntimeWarning, match="mean observation is nonpositive"):
        x0 = spectral_init(e)
    assert not x0.any()


@pytest.mark.parametrize("case", ["real", "complex", "zero observations"])
def test_defaults_are_the_untruncated_start_drawn_with_the_instance_seed(case):
    if case == "zero observations":
        a = generate_sampling(4, 8, FieldTag.REAL, 0)
        e = MeasurementEnsemble(sampling_vectors=a,
                                observations=np.zeros(8), seed=3)
    else:
        field = FieldTag.REAL if case == "real" else FieldTag.COMPLEX
        e = synthesize_instance(24, 3, 144, field, NoiseSpec("type2", 0.1), 27)
    outs = []
    for call in (lambda: spectral_init(e, SpectralConfig(), e.seed),
                 lambda: spectral_init(e),
                 lambda: spectral_init(e, seed=e.seed)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x0 = call()
        outs.append((x0.dtype, x0.tobytes(), [str(w.message) for w in caught]))
    assert outs[1] == outs[0] and outs[2] == outs[0]
    if case != "zero observations":
        # the seed is read: another one draws another power-iteration start
        assert spectral_init(e, seed=e.seed + 1).tobytes() != outs[0][1]


def test_alignment_spiked_instance():
    # x_true = e_1, heavily oversampled: the top eigenvector concentrates
    p, good = 16, 0
    for seed in range(10):
        x_true = np.zeros(p)
        x_true[0] = 1.0
        a = generate_sampling(p, 50 * p, FieldTag.REAL, seed)
        b = (a @ x_true) ** 2
        e = MeasurementEnsemble(
            sampling_vectors=a,
            observations=b,
            ground_truth=x_true,
            noise_record=np.zeros(50 * p),
            seed=seed,
        )
        x0 = spectral_init(e)
        cosine = abs(np.dot(x0, x_true)) / (np.linalg.norm(x0) * np.linalg.norm(x_true))
        good += cosine >= 0.9
    assert good >= 9


def test_truncation_support_bound():
    e = synthesize_instance(32, 4, 320, FieldTag.COMPLEX, NoiseSpec("none"), 3)
    x0 = spectral_init(e, SpectralConfig(truncation=8), 3)
    assert np.count_nonzero(x0) <= 8


def test_norm_matches_mean_observation():
    for field, seed in ((FieldTag.REAL, 1), (FieldTag.COMPLEX, 2)):
        e = synthesize_instance(12, 3, 96, field, NoiseSpec("type1", 0.1), seed)
        x0 = spectral_init(e)
        want = np.sqrt(np.mean(e.observations))
        assert abs(np.linalg.norm(x0) - want) <= 1e-12 * want
        x0t = spectral_init(e, SpectralConfig(truncation=6), seed)
        assert abs(np.linalg.norm(x0t) - want) <= 1e-12 * want


def test_rayleigh_quotient_nondecreasing_psd():
    # noiseless observations are nonnegative, so Y is positive semidefinite
    e = synthesize_instance(10, 2, 80, FieldTag.REAL, NoiseSpec("none"), 5)
    _, rayleigh = power_iteration(e, 5)
    for r1, r2 in zip(rayleigh, rayleigh[1:]):
        assert r2 >= r1 - 1e-10 * abs(r1)


def test_phase_indifference():
    p, n, seed = 8, 64, 7
    x = (np.random.default_rng(seed).standard_normal(p)
         + 1j * np.random.default_rng(seed + 1).standard_normal(p))
    a = generate_sampling(p, n, FieldTag.COMPLEX, seed)
    theta = 1.234
    outs = []
    for signal in (x, np.exp(1j * theta) * x):
        b = np.abs(correlate(a, signal)) ** 2
        e = MeasurementEnsemble(
            sampling_vectors=a, observations=b, seed=seed
        )
        outs.append(spectral_init(e))
    # the observations agree up to rounding, so the initializations do too;
    # bitwise-equal observations give bitwise-equal output
    np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-9)


def test_spectral_config_validation():
    with pytest.raises(ValueError, match="^truncation must be a positive integer, got 0$"):
        SpectralConfig(truncation=0)


@pytest.mark.parametrize("truncation", [2.5, 3.0, float("nan"), True, "3"])
def test_spectral_config_rejects_a_non_integer_truncation(truncation):
    # a count is an integer that is not a bool; a float would fail as a slice index
    message = f"^truncation must be a positive integer, got {re.escape(str(truncation))}$"
    with pytest.raises(ValueError, match=message):
        SpectralConfig(truncation=truncation)


def test_a_numpy_integer_truncation_is_the_same_start():
    e = synthesize_instance(16, 2, 96, FieldTag.REAL, NoiseSpec("none"), 3)
    np.testing.assert_array_equal(spectral_init(e, SpectralConfig(truncation=np.int64(3))),
                                  spectral_init(e, SpectralConfig(truncation=3)))


QUICK = (128, 12, 768, FieldTag.REAL, NoiseSpec("type2", 0.1))
T3 = (64, 6, 512, FieldTag.REAL, NoiseSpec("type3", 0.1))
CPLX = (128, 8, 768, FieldTag.COMPLEX, NoiseSpec("type3", 0.05))


@pytest.mark.parametrize("shape", [QUICK, T3, CPLX], ids=["quick", "t3", "cplx"])
def test_screened_power_iteration_stops_on_its_tolerance(shape, monkeypatch):
    # POWER_ITERATIONS is a safeguard: on the benchmark shapes the screened
    # iteration stops on POWER_TOL well before the cap
    steps = []
    inner = spectral.power_iteration

    def record(e, seed):
        v, rayleigh = inner(e, seed)
        steps.append(len(rayleigh))
        return v, rayleigh

    monkeypatch.setattr(spectral, "power_iteration", record)
    for seed in range(1, 21):
        spectral_init(synthesize_instance(*shape, seed))
    assert len(steps) == 20
    assert max(steps) < spectral.POWER_ITERATIONS


def _screen(e):
    """S = {j : m_j > (1 + sqrt(log(np)/n)) mean b}, m_j = mean_i b_i |a_ij|^2."""
    m = e.observations @ np.abs(e.sampling_vectors) ** 2 / e.n
    level = (1.0 + np.sqrt(np.log(e.n * e.p) / e.n)) * np.mean(e.observations)
    return np.flatnonzero(m > level)


@pytest.mark.parametrize("shape", [QUICK, CPLX], ids=["real", "complex"])
def test_start_is_supported_on_the_screened_coordinates(shape):
    for seed in (5, 6):
        e = synthesize_instance(*shape, seed)
        support = _screen(e)
        assert 0 < support.size < e.p
        x0 = spectral_init(e)
        np.testing.assert_array_equal(np.flatnonzero(x0), support)


def test_empty_screen_falls_back_to_the_largest_marginal():
    # every |a_ij| is constant down a column and at most 1, so no marginal
    # m_j = |a_.j|^2 mean b clears the threshold; column 1 has the largest
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=(8, 3))
    a = signs * np.array([0.9, 1.0, 0.5])
    b = rng.uniform(1.0, 2.0, 8)
    e = MeasurementEnsemble(sampling_vectors=a, observations=b)
    assert _screen(e).size == 0
    x0 = spectral_init(e)
    np.testing.assert_array_equal(np.flatnonzero(x0), [1])
    assert abs(abs(x0[1]) - np.sqrt(np.mean(b))) <= 1e-15


@pytest.mark.parametrize("shape", [QUICK, CPLX], ids=["real", "complex"])
def test_start_makes_no_n_by_p_temporary(shape):
    # the marginals are reductions over rows; |a|^2 alone would be an (n, p)
    # temporary of a's size (half of it for a complex a)
    e = synthesize_instance(*shape, 5)
    tracemalloc.start()
    try:
        spectral_init(e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < e.sampling_vectors.nbytes / 2
