"""Unit tests for NN functional operators (conv, pooling, norm, losses)."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import Tensor, check_gradients
from repro.nn import functional as F


def naive_conv2d(x, w, b, stride, pad):
    """Reference convolution with explicit loops."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    patch = xp[ni, :, oi * stride:oi * stride + kh,
                               oj * stride:oj * stride + kw]
                    out[ni, fi, oi, oj] = (patch * w[fi]).sum()
            if b is not None:
                out[ni, fi] += b[fi]
    return out


def reference_im2col(x, kernel, stride, pad):
    """Window-view lowering: the exactness reference for ``F.im2col``."""
    kh, kw = kernel
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def reference_col2im(cols, x_shape, kernel, stride, pad):
    """NCHW loop fold: the exactness reference for ``F.col2im``."""
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    image = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        image = image[:, :, pad:hp - pad, pad:wp - pad]
    return image


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # signed zeros too


def layouts(x):
    """``x`` C-contiguous and as a channels-last (NHWC-strided) view."""
    return [x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)]


def signed_zero_images(rng, shape, dtype):
    x = rng.normal(size=shape).astype(dtype)
    x[:, :, 0, ::2] = -0.0
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
class TestLoweringMatchesReference:
    """The gather lowering reproduces the window-view/loop one bit for bit."""

    shape = (3, 7, 9)          # C, H != W

    def test_im2col(self, rng, kernel, stride, pad, dtype):
        for batch in (1, 3):
            images = signed_zero_images(rng, (batch, *self.shape), dtype)
            for x in layouts(images):
                cols = F.im2col(x, (kernel, kernel), stride, pad)
                assert cols.flags.c_contiguous
                assert_bitwise_equal(
                    cols, reference_im2col(x, (kernel, kernel), stride, pad))

    def test_col2im(self, rng, kernel, stride, pad, dtype):
        c, h, w = self.shape
        oh = (h + 2 * pad - kernel) // stride + 1
        ow = (w + 2 * pad - kernel) // stride + 1
        for batch in (1, 3):
            cols = rng.normal(size=(batch * oh * ow, c * kernel * kernel)).astype(dtype)
            cols[::3, ::2] = -0.0
            image = F.col2im(cols, (batch, c, h, w), (kernel, kernel), stride, pad)
            assert image.flags.c_contiguous
            assert_bitwise_equal(image, reference_col2im(
                cols, (batch, c, h, w), (kernel, kernel), stride, pad))

    def test_patch_index_in_range(self, kernel, stride, pad, dtype):
        c, h, w = self.shape
        index = F.patch_index(c, h, w, kernel, kernel, stride, pad)
        oh = (h + 2 * pad - kernel) // stride + 1
        ow = (w + 2 * pad - kernel) // stride + 1
        assert index.shape == (oh * ow, c * kernel * kernel)
        assert index.min() >= 0
        assert index.max() < c * (h + 2 * pad) * (w + 2 * pad)


class TestConvOnReferenceLowering:
    @pytest.mark.parametrize("kernel,stride,pad", [
        (1, 1, 0), (2, 2, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_forward_and_backward_bit_equal(self, monkeypatch, rng, kernel,
                                            stride, pad, dtype, channels_last):
        images = signed_zero_images(rng, (3, 3, 7, 9), dtype)
        x_data = layouts(images)[channels_last]
        w_data = rng.normal(size=(4, 3, kernel, kernel)).astype(dtype)
        b_data = rng.normal(size=4).astype(dtype)
        oh = (7 + 2 * pad - kernel) // stride + 1
        ow = (9 + 2 * pad - kernel) // stride + 1
        g = rng.normal(size=(3, 4, oh, ow)).astype(dtype)

        def run():
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = F.conv2d(x, w, b, stride=stride, padding=pad)
            out.backward(g)
            return out.data, x.grad, w.grad, b.grad

        lowered = run()
        monkeypatch.setattr(F, "im2col", reference_im2col)
        monkeypatch.setattr(F, "col2im", reference_col2im)
        reference = run()
        for actual, expected in zip(lowered, reference):
            assert_bitwise_equal(actual, expected)
            assert actual.strides == expected.strides


class TestPatchIndex:
    def test_read_only(self):
        index = F.patch_index(2, 5, 6, 3, 3, 1, 1)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0

    def test_memoized(self):
        assert F.patch_index(2, 5, 6, 3, 3, 1, 1) is F.patch_index(2, 5, 6, 3, 3, 1, 1)

    def test_cache_is_bounded(self):
        maxsize = F.patch_index.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for c in range(1, maxsize + 9):
            F.patch_index(c, 1, 1, 1, 1, 1, 0)
        assert F.patch_index.cache_info().currsize == maxsize

    def test_rows_are_patches(self):
        # Row (oy, ox) of a 1-channel 2x2 kernel, stride 1, no padding
        # reads the 2x2 window whose top-left pixel is (oy, ox).
        index = F.patch_index(1, 3, 4, 2, 2, 1, 0)
        assert index[0].tolist() == [0, 1, 4, 5]
        assert index[5].tolist() == [6, 7, 10, 11]


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = F.im2col(x, (3, 3), stride=1, pad=1)
        assert cols.shape == (2 * 6 * 6, 3 * 9)

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        cols = F.im2col(x, (2, 2), stride=2, pad=0)
        assert cols.shape == (16, 8)

    def test_col2im_inverts_scatter(self, rng):
        # col2im(im2col(x)) counts each pixel once per window it appears in.
        x = np.ones((1, 1, 4, 4))
        cols = F.im2col(x, (2, 2), stride=2, pad=0)
        back = F.col2im(cols, (1, 1, 4, 4), (2, 2), stride=2, pad=0)
        assert np.allclose(back, 1.0)  # non-overlapping windows


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
        assert np.allclose(out.data, naive_conv2d(x, w, b, stride, pad), atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1)
        assert np.allclose(out.data, naive_conv2d(x, w, None, 1, 1), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 3, 5, 5))),
                     Tensor(rng.normal(size=(2, 4, 3, 3))))

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1),
                        [x, w, b])

    def test_1x1_conv(self, rng):
        x = rng.normal(size=(1, 4, 3, 3))
        w = rng.normal(size=(2, 4, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w))
        expected = np.einsum("nchw,fc->nfhw", x, w[:, :, 0, 0])
        assert np.allclose(out.data, expected, atol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_stride(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out = F.max_pool2d(Tensor(x), 3, stride=3)
        assert out.shape == (1, 2, 2, 2)

    def test_max_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda x: F.max_pool2d(x, 2), [x])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda x: F.avg_pool2d(x, 2), [x])

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(8, 4, 3, 3)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(loc=2.0, size=(16, 2, 4, 4)))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       rm, rv, training=True, momentum=1.0)
        assert np.allclose(rm, x.data.mean(axis=(0, 2, 3)), atol=1e-6)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        rm = np.array([1.0, -1.0], dtype=np.float64)
        rv = np.array([4.0, 9.0], dtype=np.float64)
        out = F.batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                             rm, rv, training=False, eps=0.0)
        expected = (x.data - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv).reshape(1, 2, 1, 1)
        assert np.allclose(out.data, expected, atol=1e-10)

    def test_affine_applied(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        out = F.batch_norm2d(x, Tensor(np.array([2.0, 3.0])),
                             Tensor(np.array([1.0, -1.0])),
                             np.zeros(2), np.ones(2), training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), [1.0, -1.0], atol=1e-6)


class TestDropout:
    def test_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_zero_probability_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.0, training=True, rng=rng) is x

    def test_scaling_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_drops_roughly_p(self, rng):
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        dropped = (out.data == 0).mean()
        assert 0.25 < dropped < 0.35


class TestSoftmaxLosses:
    def test_log_softmax_normalises(self, rng):
        logits = Tensor(rng.normal(size=(4, 7)))
        out = F.log_softmax(logits)
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_log_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-10)

    def test_log_softmax_huge_logits_stable(self):
        out = F.log_softmax(Tensor(np.array([[1e4, 0.0, -1e4]])))
        assert np.all(np.isfinite(out.data))

    def test_softmax_probabilities(self, rng):
        probs = F.softmax(Tensor(rng.normal(size=(2, 4)))).data
        assert np.all(probs > 0) and np.allclose(probs.sum(axis=1), 1.0)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-8

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((3, 10)))
        loss = F.cross_entropy(logits, np.array([0, 5, 9]))
        assert np.isclose(loss.item(), np.log(10))

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        targets = rng.integers(0, 6, 5)
        check_gradients(lambda l: F.cross_entropy(l, targets), [logits])

    def test_cross_entropy_grad_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = np.array([0, 1, 2, 1])
        F.cross_entropy(logits, targets).backward()
        probs = F.softmax(Tensor(logits.data)).data
        onehot = np.eye(3)[targets]
        assert np.allclose(logits.grad, (probs - onehot) / 4, atol=1e-10)

    def test_mse_loss(self, rng):
        pred = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        target = rng.normal(size=(4, 2))
        loss = F.mse_loss(pred, target)
        assert np.isclose(loss.item(), ((pred.data - target) ** 2).mean())
        check_gradients(lambda p: F.mse_loss(p, target), [pred])

    def test_linear_matches_manual(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.allclose(out.data, x @ w.T + b)
