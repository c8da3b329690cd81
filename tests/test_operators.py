import numpy as np
import pytest

from equiguide.groups import make_group
from equiguide.operators import forward, gaussian_kernel, make_operator


def test_box_mask_area_ratio():
    op = make_operator({"kind": "box-inpaint", "box": [4, 4, 8, 8], "shape": [16, 16]})
    assert op.mask.sum() == 16 * 16 - 64
    x = np.ones((16, 16))
    y = op.apply(x)
    assert np.all(y[4:12, 4:12] == 0.0)
    # paper-scale geometry: a half-side box masks exactly 25%
    op2 = make_operator({"kind": "box-inpaint", "box": [64, 64, 128, 128], "shape": [256, 256]})
    assert (op2.mask == 0).mean() == pytest.approx(0.25)


def test_box_must_fit():
    with pytest.raises(ValueError):
        make_operator({"kind": "box-inpaint", "box": [0, 0, 20, 20], "shape": [16, 16]})


def test_random_inpaint_keep_count():
    op = make_operator({"kind": "random-inpaint", "keep_prob": 0.3, "shape": [100, 100], "seed": 5})
    kept = int(op.mask.sum())
    assert abs(kept - 3000) <= 150


def test_gaussian_blur_sigma_zero_is_identity():
    op = make_operator({"kind": "gaussian-blur", "size": 5, "sigma": 0.0})
    x = np.random.default_rng(0).standard_normal((8, 8))
    np.testing.assert_array_equal(op.apply(x), x)


def test_downsample_factor_must_divide():
    with pytest.raises(ValueError):
        make_operator({"kind": "downsample", "factor": 3, "shape": [16, 16]})


def test_forward_without_noise_is_exact_and_idempotent():
    op = make_operator({"kind": "downsample", "factor": 2, "sigma_y": 0.0})
    x = np.random.default_rng(1).standard_normal((8, 8))
    m1 = forward(op, x, 0)
    m2 = forward(op, x, 123)
    np.testing.assert_array_equal(m1.y, op.apply(x))
    np.testing.assert_array_equal(m1.y, m2.y)


def test_forward_noise_std():
    op = make_operator({"kind": "identity", "sigma_y": 0.05})
    x = np.zeros((64, 64))
    m = forward(op, x, 7)
    s = m.y.std()
    assert abs(s - 0.05) < 0.005
    assert m.seed == 7
    # same seed reproduces the draw
    np.testing.assert_array_equal(m.y, forward(op, x, 7).y)


def test_box_inpaint_masks_to_zero():
    op = make_operator({"kind": "box-inpaint", "box": [0, 0, 2, 2], "shape": [4, 4]})
    y = op.apply(np.ones((4, 4)))
    assert np.all(y[:2, :2] == 0.0) and np.all(y[2:, 2:] == 1.0)


def test_vjp_identity():
    op = make_operator({"kind": "identity"})
    cot = np.random.default_rng(2).standard_normal((4, 4))
    np.testing.assert_array_equal(op.vjp(np.zeros((4, 4)), cot), cot)


@pytest.mark.parametrize(
    "spec,shape",
    [
        ({"kind": "identity"}, (5, 5)),
        ({"kind": "box-inpaint", "box": [1, 1, 2, 2], "shape": [5, 5]}, (5, 5)),
        ({"kind": "random-inpaint", "keep_prob": 0.5, "shape": [5, 5], "seed": 1}, (5, 5)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "zero"}, (6, 6)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "reflect"}, (6, 6)),
        ({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "circular"}, (6, 6)),
        ({"kind": "motion-blur", "size": 3, "orientation": "vertical"}, (6, 6)),
        ({"kind": "downsample", "factor": 2}, (8, 8)),
    ],
)
def test_adjoint_identity_linear_ops(spec, shape):
    op = make_operator(spec)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal(shape)
        y = rng.standard_normal(op.apply(x).shape)
        lhs = np.sum(op.apply(x) * y)
        rhs = np.sum(x * op.vjp(x, y))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y) + 1e-13


def test_matrix_matches_apply():
    op = make_operator({"kind": "downsample", "factor": 2})
    x = np.random.default_rng(4).standard_normal((4, 4))
    M = op.matrix((4, 4))
    np.testing.assert_allclose(M @ x.reshape(-1), op.apply(x).reshape(-1), atol=1e-12)
    # adjoint through the matrix agrees with the tape adjoint
    v = np.random.default_rng(5).standard_normal((2, 2))
    np.testing.assert_allclose(
        (M.T @ v.reshape(-1)).reshape(4, 4), op.adjoint(v, (4, 4)), atol=1e-12
    )


def test_saturate_slope_matches_finite_difference():
    op = make_operator({"kind": "saturate", "scale": 2.0})
    rng = np.random.default_rng(6)
    x = 0.05 * rng.standard_normal((3, 3))  # near-linear region
    cot = rng.standard_normal((3, 3))
    g = op.vjp(x, cot)
    eps = 1e-6
    fd = np.empty_like(g)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = eps
        fp = np.sum(op.apply((x.reshape(-1) + e).reshape(3, 3)) * cot)
        fm = np.sum(op.apply((x.reshape(-1) - e).reshape(3, 3)) * cot)
        fd.reshape(-1)[i] = (fp - fm) / (2 * eps)
    np.testing.assert_allclose(g, fd, atol=1e-6)
    # local slope at origin is 1 (tanh(cx)/c ~ x)
    g0 = op.vjp(np.zeros((2, 2)), np.ones((2, 2)))
    np.testing.assert_allclose(g0, np.ones((2, 2)), atol=1e-12)


def test_saturate_matrix_rejected():
    op = make_operator({"kind": "saturate", "scale": 2.0})
    with pytest.raises(ValueError):
        op.matrix((2, 2))


def test_circular_blur_commutes_with_cyclic_shift():
    op = make_operator({"kind": "gaussian-blur", "size": 3, "sigma": 1.0, "padding": "circular"})
    g = make_group({"group": "cyclic-translate", "shift": 1, "length": 8})
    x = np.random.default_rng(7).standard_normal((8, 8))
    lhs = op.apply(g.apply_domain(1, x))
    rhs = g.apply_domain(1, op.apply(x))
    np.testing.assert_array_equal(lhs, rhs)


def test_gaussian_kernel_normalized():
    k = gaussian_kernel(5, 1.5)
    assert k.sum() == pytest.approx(1.0)
    assert k[2, 2] == k.max()
