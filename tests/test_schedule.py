import numpy as np
import pytest

from equiguide.schedule import NoiseSchedule, make_linear_schedule


def test_single_step_schedule():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert s.abar(1) == pytest.approx(0.5)
    assert s.abar(0) == 1.0


def test_two_step_constant_beta():
    s = make_linear_schedule(2, 0.1, 0.1)
    assert s.abar(2) == pytest.approx(0.81)


def test_standard_schedule_matches_direct_product():
    s = make_linear_schedule(1000, 1e-4, 0.02)
    direct = 1.0
    for b in s.beta:
        direct *= 1.0 - b
    assert abs(s.abar(1000) - direct) <= 1e-12
    # full reconstruction from beta
    np.testing.assert_allclose(s.alpha_bar, np.cumprod(1.0 - s.beta), rtol=0, atol=1e-12)


def test_alpha_bar_strictly_decreasing_in_unit_interval():
    s = make_linear_schedule(500, 1e-4, 0.02)
    assert np.all(np.diff(s.alpha_bar) < 0.0)
    assert np.all(s.alpha_bar > 0.0) and np.all(s.alpha_bar <= 1.0)


def test_bounds_rejected():
    with pytest.raises(ValueError):
        make_linear_schedule(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.0, 0.2)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.3, 0.2)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.1, 1.0)


def test_decreasing_beta_rejected():
    with pytest.raises(ValueError):
        NoiseSchedule(T=3, beta=np.array([0.2, 0.1, 0.3]))


def test_roundtrip_config():
    s = make_linear_schedule(50, 1e-3, 0.05)
    s2 = NoiseSchedule.from_config(s.to_config())
    np.testing.assert_array_equal(s.beta, s2.beta)
    np.testing.assert_array_equal(s.alpha_bar, s2.alpha_bar)
