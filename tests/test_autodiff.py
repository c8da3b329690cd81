import numpy as np
import pytest

from equiguide.autodiff import (
    NonFiniteValue,
    ShapeMismatch,
    Tensor,
    add,
    backward,
    check_gradient,
    conv2d,
    conv2d_mc,
    crop2d,
    div,
    downsample_mean,
    l2_norm,
    matmul,
    mul,
    norm_sq,
    pad2d,
    permute_flat,
    relu,
    sqrt,
    square,
    sub,
    tanh,
    tmean,
    tsum,
    upsample_repeat,
)


def test_add_basic():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_annihilator():
    out = mul(Tensor([2.0, 2.0]), 0.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.0])


def test_sub_self_is_zero():
    x = Tensor(np.random.default_rng(0).standard_normal(5))
    np.testing.assert_array_equal(sub(x, x).data, np.zeros(5))


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_nonfinite_output_raises():
    with pytest.raises(NonFiniteValue):
        div(Tensor([1.0]), Tensor([0.0]))


def test_nonfinite_input_raises():
    with pytest.raises(NonFiniteValue):
        Tensor([np.nan])


def test_tensor_data_is_readonly():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    loss = tsum(square(x))
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_zero_scaled_loss():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    backward(mul(tsum(x), 0.0))
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        backward(mul(x, 2.0))


def test_backward_frees_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = square(x)
    loss = tsum(y)
    backward(loss)
    assert y._parents == () and y._backward is None
    assert y.grad is None  # interior gradient dropped
    assert x.grad is not None


def test_diamond_graph_accumulates_once():
    # loss = sum(x*x + x*x) -> grad 4x
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = mul(x, x)
    backward(tsum(add(y, y)))
    np.testing.assert_allclose(x.grad, [4.0, 8.0])


def test_check_gradient_quadratic():
    rng = np.random.default_rng(7)
    err = check_gradient(lambda t: tsum(square(t)), rng.standard_normal(8))
    assert err < 1e-6


def test_check_gradient_constant_function():
    err = check_gradient(lambda t: Tensor(3.14), np.ones(4))
    assert err == 0.0


def _stable_seed(name: str) -> int:
    import zlib

    return zlib.crc32(name.encode())


@pytest.mark.parametrize(
    "name,fn",
    [
        ("add", lambda a, b: tsum(square(add(a, b)))),
        ("sub", lambda a, b: tsum(square(sub(a, b)))),
        ("mul", lambda a, b: tsum(square(mul(a, b)))),
        ("div", lambda a, b: tsum(square(div(a, add(square(b), 1.0))))),
    ],
)
def test_binary_op_gradients(name, fn):
    rng = np.random.default_rng(_stable_seed(name))
    for trial in range(10):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6) + 0.5
        err_a = check_gradient(lambda t: fn(t, Tensor(b)), a)
        err_b = check_gradient(lambda t: fn(Tensor(a), t), b)
        assert max(err_a, err_b) < 1e-4, f"{name} trial {trial}"


@pytest.mark.parametrize(
    "name,fn",
    [
        ("relu", lambda t: tsum(square(relu(t)))),
        ("tanh", lambda t: tsum(square(tanh(t)))),
        ("square", lambda t: tsum(square(square(t)))),
        ("sqrt", lambda t: tsum(sqrt(add(square(t), 1.0)))),
        ("mean", lambda t: square(tmean(t))),
        ("l2_norm", lambda t: l2_norm(add(square(t), 0.1))),
        ("norm_sq", lambda t: norm_sq(t)),
    ],
)
def test_unary_op_gradients(name, fn):
    rng = np.random.default_rng(_stable_seed(name))
    for trial in range(10):
        x = rng.standard_normal(10) + 0.1  # keep relu kinks off the sample points
        x[np.abs(x) < 0.05] += 0.2  # and derivative zeros away from FD denominators
        err = check_gradient(fn, x)
        assert err < 1e-4, f"{name} trial {trial}"


def test_matmul_gradients():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert check_gradient(lambda t: tsum(square(matmul(t, Tensor(b)))), a) < 1e-4
        assert check_gradient(lambda t: tsum(square(matmul(Tensor(a), t))), b) < 1e-4
    v = rng.standard_normal(4)
    m = rng.standard_normal((4, 3))
    assert check_gradient(lambda t: tsum(square(matmul(t, Tensor(m)))), v) < 1e-4


def test_broadcast_row_bias_gradient():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((5, 3))
    bias = rng.standard_normal(3)
    err = check_gradient(lambda t: tsum(square(add(Tensor(x), t))), bias)
    assert err < 1e-4


def test_permute_gradient_is_transpose():
    rng = np.random.default_rng(17)
    perm = rng.permutation(8)
    w = rng.standard_normal(8)
    err = check_gradient(lambda t: tsum(mul(permute_flat(t, perm), Tensor(w))), rng.standard_normal(8))
    assert err < 1e-6


# -- convolution ----------------------------------------------------------------


def _delta(k):
    d = np.zeros((k, k))
    d[k // 2, k // 2] = 1.0
    return d


def test_conv2d_delta_kernel_identity():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((6, 6))
    for mode in ("zero", "reflect", "circular"):
        out = conv2d(Tensor(x), Tensor(_delta(3)), padding=mode)
        np.testing.assert_array_equal(out.data, x)


def test_conv2d_box_corner_value():
    x = np.ones((4, 4))
    k = np.full((3, 3), 1.0 / 9.0)
    out = conv2d(Tensor(x), Tensor(k), padding="zero")
    assert abs(out.data[0, 0] - 4.0 / 9.0) < 1e-15


def test_conv2d_linearity():
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
    k = rng.standard_normal((3, 3))
    lhs = conv2d(Tensor(a + b), Tensor(k)).data
    rhs = conv2d(Tensor(a), Tensor(k)).data + conv2d(Tensor(b), Tensor(k)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conv2d_even_kernel_rejected():
    with pytest.raises(ShapeMismatch):
        conv2d(Tensor(np.ones((4, 4))), Tensor(np.ones((2, 2))))


def test_conv2d_adjoint_identity_zero_pad():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.standard_normal((7, 7))
        y = rng.standard_normal((7, 7))
        k = rng.standard_normal((3, 3))
        lhs = np.sum(conv2d(Tensor(x), Tensor(k), "zero").data * y)
        rhs = np.sum(x * conv2d(Tensor(y), Tensor(k[::-1, ::-1]), "zero").data)
        bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= max(bound, 1e-12)


@pytest.mark.parametrize("mode", ["zero", "reflect", "circular"])
def test_conv2d_gradients(mode):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 5))
    k = rng.standard_normal((3, 3))
    w = rng.standard_normal((5, 5))
    err_x = check_gradient(lambda t: tsum(mul(conv2d(t, Tensor(k), mode), Tensor(w))), x)
    err_k = check_gradient(lambda t: tsum(mul(conv2d(Tensor(x), t, mode), Tensor(w))), k)
    assert err_x < 1e-4 and err_k < 1e-4


def test_conv2d_channel_input():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 5, 5))
    k = rng.standard_normal((3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    for c in range(2):
        np.testing.assert_allclose(out.data[c], conv2d(Tensor(x[c]), Tensor(k)).data)


def test_conv2d_mc_matches_composed_per_channel():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 6, 6))
    kk = rng.standard_normal((2, 3, 3, 3))
    fused = conv2d_mc(Tensor(x), Tensor(kk)).data
    for o in range(2):
        ref = sum(conv2d(Tensor(x[c]), Tensor(kk[o, c])).data for c in range(3))
        np.testing.assert_allclose(fused[o], ref, atol=1e-12)


def test_conv2d_mc_gradients_batched():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, 2, 4, 4))
    kk = rng.standard_normal((3, 2, 3, 3))
    w = rng.standard_normal((2, 3, 4, 4))
    err_x = check_gradient(lambda t: tsum(mul(conv2d_mc(t, Tensor(kk)), Tensor(w))), x)
    err_k = check_gradient(lambda t: tsum(mul(conv2d_mc(Tensor(x), t), Tensor(w))), kk)
    assert err_x < 1e-4 and err_k < 1e-4


# -- pad / crop / resample -------------------------------------------------------


@pytest.mark.parametrize("mode", ["zero", "reflect", "circular"])
def test_pad_crop_roundtrip(mode):
    rng = np.random.default_rng(47)
    x = rng.standard_normal((4, 5))
    padded = pad2d(Tensor(x), 2, 1, mode)
    assert padded.shape == (8, 7)
    np.testing.assert_array_equal(crop2d(padded, 2, 1).data, x)


@pytest.mark.parametrize("mode", ["zero", "reflect", "circular"])
def test_pad_gradient(mode):
    rng = np.random.default_rng(53)
    x = rng.standard_normal((4, 4))
    w = rng.standard_normal((6, 6))
    err = check_gradient(lambda t: tsum(mul(pad2d(t, 1, 1, mode), Tensor(w))), x)
    assert err < 1e-6


def test_downsample_mean_values_and_gradient():
    x = np.arange(16.0).reshape(4, 4)
    out = downsample_mean(Tensor(x), 2)
    np.testing.assert_allclose(out.data, [[2.5, 4.5], [10.5, 12.5]])
    rng = np.random.default_rng(59)
    w = rng.standard_normal((2, 2))
    err = check_gradient(lambda t: tsum(mul(downsample_mean(t, 2), Tensor(w))), x)
    assert err < 1e-6
    with pytest.raises(ShapeMismatch):
        downsample_mean(Tensor(np.ones((5, 5))), 2)


def test_upsample_repeat_values_and_gradient():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = upsample_repeat(Tensor(x), 2)
    assert out.shape == (4, 4)
    assert out.data[0, 0] == 1.0 and out.data[3, 3] == 4.0
    rng = np.random.default_rng(61)
    w = rng.standard_normal((4, 4))
    err = check_gradient(lambda t: tsum(mul(upsample_repeat(t, 2), Tensor(w))), x)
    assert err < 1e-6


def test_determinism_bit_identical():
    rng = np.random.default_rng(67)
    x = rng.standard_normal((8, 8))
    k = rng.standard_normal((5, 5))

    def run():
        leaf = Tensor(x, requires_grad=True)
        loss = tsum(square(conv2d(leaf, Tensor(k), "reflect")))
        backward(loss)
        return loss.data.copy(), leaf.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


def test_composed_pipeline_gradient():
    # conv -> downsample -> nonlinearity -> norm, the texture of sampler losses
    rng = np.random.default_rng(71)
    x = rng.standard_normal((8, 8))
    k = rng.standard_normal((3, 3))

    def f(t):
        h = conv2d(t, Tensor(k), "circular")
        h = downsample_mean(h, 2)
        h = tanh(h)
        return norm_sq(h)

    assert check_gradient(f, x) < 1e-4
