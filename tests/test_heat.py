import numpy as np
import pytest

from spin7.heat import heat_weights, periodized_gaussian_1d
from spin7.lattice import LatticeSpec, integrate


def test_kernel_positive_and_symmetric():
    d = np.linspace(-0.5, 0.5, 11)
    k = periodized_gaussian_1d(d, tau=0.01, period=1.0)
    assert np.all(k > 0)
    np.testing.assert_allclose(k, k[::-1], atol=1e-15)


def test_kernel_periodicity():
    d = np.array([0.3])
    k1 = periodized_gaussian_1d(d, tau=0.02, period=1.0)
    k2 = periodized_gaussian_1d(d + 1.0, tau=0.02, period=1.0)
    k3 = periodized_gaussian_1d(d - 3.0, tau=0.02, period=1.0)
    np.testing.assert_allclose(k1, k2, rtol=1e-13)
    np.testing.assert_allclose(k1, k3, rtol=1e-13)


def test_kernel_large_tau_uniform():
    # heat spreads to the uniform density 1/L
    d = np.linspace(0, 1, 7)
    k = periodized_gaussian_1d(d, tau=50.0, period=1.0)
    np.testing.assert_allclose(k, 1.0, rtol=1e-12)


@pytest.mark.parametrize("tau", [1e4, 1e8])
@pytest.mark.parametrize("period", [1.0, 2.0])
def test_kernel_very_large_tau_is_uniform(tau, period):
    d = np.linspace(-period, period, 9)[1:-1]
    k = periodized_gaussian_1d(d, tau=tau, period=period)
    np.testing.assert_allclose(k, 1.0 / period, rtol=1e-12)


def _image_sum(d, tau, period, images=200):
    n = np.arange(-images, images + 1)
    terms = np.exp(-((d[:, None] + n * period) ** 2) / (4.0 * tau))
    return terms.sum(axis=1) / np.sqrt(4.0 * np.pi * tau)


@pytest.mark.parametrize("tau", [0.2, 0.25, 0.25 * (1 + 1e-12), 0.3, 3.0, 1e2])
def test_kernel_matches_a_long_image_sum_across_the_series_switch(tau):
    # the Fourier series takes over above 4 tau = L^2
    d = np.linspace(-0.99, 0.99, 23)
    k = periodized_gaussian_1d(d, tau=tau, period=1.0)
    np.testing.assert_allclose(k, _image_sum(d, tau, 1.0), rtol=1e-14)


def test_kernel_invalid_tau():
    with pytest.raises(ValueError):
        periodized_gaussian_1d(np.zeros(3), tau=0.0, period=1.0)


def test_kernel_refuses_nan_tau():
    with pytest.raises(ValueError):
        periodized_gaussian_1d(np.zeros(3), tau=float("nan"), period=1.0)


@pytest.mark.parametrize("tau", [1e-3, 1e-2, 1.0])
def test_weights_unit_mass(tau):
    # grid-resolved scales: the trapezoidal mass of a periodized Gaussian
    # converges spectrally once the kernel spans a few cells
    spec = LatticeSpec(active_axes=(0, 1), points=32)
    w = heat_weights(spec, (5, 20), tau)
    assert integrate(spec, w) == pytest.approx(1.0, rel=1e-6)


def test_weights_unit_mass_scaled():
    for period in (0.5, 2.0):
        spec = LatticeSpec(active_axes=(0,), points=64, period=period)
        w = heat_weights(spec, (10,), 0.01)
        assert integrate(spec, w) == pytest.approx(1.0, rel=1e-8)


def test_weights_peak_at_center():
    spec = LatticeSpec(active_axes=(0,), points=64)
    w = heat_weights(spec, (17,), 1e-3)
    assert int(np.argmax(w)) == 17


def test_weights_center_arity():
    spec = LatticeSpec(active_axes=(0, 1), points=16)
    with pytest.raises(ValueError):
        heat_weights(spec, (3,), 0.01)


def test_weights_deterministic():
    spec = LatticeSpec(active_axes=(0,), points=32)
    w1 = heat_weights(spec, (3,), 0.007)
    w2 = heat_weights(spec, (3,), 0.007)
    np.testing.assert_array_equal(w1, w2)
