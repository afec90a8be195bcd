"""Unit tests for NN functional operators (conv, pooling, norm, losses)."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.models import available_models, build_model
from repro.nn import MaxPool2d, Tensor, check_gradients, no_grad
from repro.nn.optim import SGD
from repro.nn import functional as F
from repro.nn.tensor import creator_closures


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


def reference_batch_norm2d(x, gamma, beta, running_mean, running_var,
                           training, momentum=0.1, eps=1e-5):
    """BatchNorm composed from ``Tensor`` primitives: the exactness
    reference for ``F.batch_norm2d`` (16 autograd nodes per training
    call, each gradient coming straight from the engine)."""
    if training:
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mean) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.data.reshape(-1)
    else:
        mean = Tensor(running_mean.reshape(1, -1, 1, 1))
        var = Tensor(running_var.reshape(1, -1, 1, 1))
    inv_std = (var + eps) ** -0.5
    normalised = (x - mean) * inv_std
    return normalised * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)


def reference_max_pool2d(x, kernel=2, stride=None, padding=0):
    """Window-copy max pooling: the exactness reference for
    ``F.max_pool2d`` (``argmax`` over every copied window, an
    ``np.add.at`` backward)."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1

    data = x.data
    if padding:
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding),
                             (padding, padding)), constant_values=-np.inf)
    windows = sliding_window_view(data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].reshape(n, c, oh, ow, kernel * kernel)
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]

    def backward(g):
        ni, ci, ohi, owi = np.indices((n, c, oh, ow))
        rows = ohi * stride + argmax // kernel - padding
        cols = owi * stride + argmax % kernel - padding
        dx = np.zeros_like(x.data)
        if padding:
            valid = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
            np.add.at(dx, (ni[valid], ci[valid], rows[valid], cols[valid]),
                      g[valid])
        else:
            np.add.at(dx, (ni, ci, rows, cols), g)
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # signed zeros too


def layouts(x):
    """``x`` C-contiguous and as a channels-last (NHWC-strided) view."""
    return [x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)]


def record_calls(monkeypatch, name):
    """Patch ``F.<name>`` to record each call's arguments; the list."""
    calls = []
    original = getattr(F, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(F, name, recorded)
    return calls


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

    def test_im2col(self, monkeypatch, rng, kernel, stride, pad, dtype):
        gathers = record_calls(monkeypatch, "patch_index")
        for batch, channels in ((1, 3), (3, 3), (1, 1), (3, 1)):
            images = signed_zero_images(rng, (batch, channels,
                                              *self.shape[1:]), dtype)
            for x in layouts(images):
                cols = F.im2col(x, (kernel, kernel), stride, pad)
                assert cols.flags.c_contiguous
                assert_bitwise_equal(
                    cols, reference_im2col(x, (kernel, kernel), stride, pad))
                # A channels-last view is gathered channels-last; with
                # one channel both layouts are one C-contiguous array.
                channels_last = gathers.pop()[7]
                assert channels_last == (not x.flags.c_contiguous)

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
        oh = (h + 2 * pad - kernel) // stride + 1
        ow = (w + 2 * pad - kernel) // stride + 1
        for channels_last in (False, True):
            index = F.patch_index(c, h, w, kernel, kernel, stride, pad,
                                  channels_last)
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


#: The memoized read-only indices: NCHW and channels-last patches, and
#: BatchNorm's row walk (``row_channels``).
CACHED_INDICES = [
    (F.patch_index, (2, 5, 6, 3, 3, 1, 1)),
    (F.patch_index, (2, 5, 6, 3, 3, 1, 1, True)),
    (F.row_channels, (3, 40)),
]


class TestPatchIndex:
    def test_read_only(self):
        for cached, args in CACHED_INDICES:
            index = cached(*args)
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 0

    def test_memoized(self):
        for cached, args in CACHED_INDICES:
            assert cached(*args) is cached(*args)

    def test_cache_is_bounded(self):
        for cached, args in CACHED_INDICES:
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize > 0
            for c in range(2, maxsize + 10):
                cached(c, *args[1:])
            assert cached.cache_info().currsize == maxsize

    def test_rows_are_patches(self):
        # Row (oy, ox) of a 1-channel 2x2 kernel, stride 1, no padding
        # reads the 2x2 window whose top-left pixel is (oy, ox).
        index = F.patch_index(1, 3, 4, 2, 2, 1, 0)
        assert index[0].tolist() == [0, 1, 4, 5]
        assert index[5].tolist() == [6, 7, 10, 11]
        # One channel is the same index in either layout.
        assert np.array_equal(F.patch_index(1, 3, 4, 2, 2, 1, 0, True), index)
        # Channels-last, 2 channels: pixel (y, x) channel ci is at
        # 2 * (4y + x) + ci, and a row lists channel 0's window first.
        index = F.patch_index(2, 3, 4, 2, 2, 1, 0, True)
        assert index[0].tolist() == [0, 2, 8, 10, 1, 3, 9, 11]
        assert index[5].tolist() == [12, 14, 20, 22, 13, 15, 21, 23]
        # BatchNorm's row of whole pixels: for 40 pixels of 3 channels the
        # largest divisor of 40 with k * 3 <= 512 is k = 40, one row; of
        # 2 * 173 pixels (173 > 512 // 3) a row holds 2 pixels.
        assert F.row_channels(3, 40).tolist() == [0, 1, 2] * 40
        assert F.row_channels(3, 346).tolist() == [0, 1, 2] * 2


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

    def test_max_pool_integer_input(self):
        x = np.arange(16).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        assert out.dtype == x.dtype
        assert out.data[0, 0].tolist() == [[5, 7], [13, 15]]

    def test_max_pool_stride(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out = F.max_pool2d(Tensor(x), 3, stride=3)
        assert out.shape == (1, 2, 2, 2)

    def test_max_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda x: F.max_pool2d(x, 2), [x])

    @pytest.mark.parametrize("kernel,padding", [(2, 2), (3, 3), (2, 5), (3, -1)])
    def test_max_pool_rejects_windows_outside_the_image(self, kernel, padding):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError,
                           match=f"kernel={kernel}, padding={padding}"):
            F.max_pool2d(x, kernel, padding=padding)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_max_pool_largest_padding_stays_finite(self, rng, kernel):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        out = F.max_pool2d(x, kernel, stride=1, padding=kernel - 1)
        assert np.isfinite(out.data).all()
        out.sum().backward()
        assert x.grad.sum() == out.data.size

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

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, rng, training):
        x = Tensor(rng.normal(loc=1.0, size=(4, 3, 3, 2)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        stats = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        # A non-uniform upstream gradient: the sum of a training-mode
        # output does not depend on x.
        weights = Tensor(rng.normal(size=x.shape))

        def fn(x, gamma, beta):
            running_mean, running_var = (s.copy() for s in stats)
            return F.batch_norm2d(x, gamma, beta, running_mean, running_var,
                                  training=training) * weights

        check_gradients(fn, [x, gamma, beta])

    def test_one_autograd_node(self, rng):
        x = Tensor(rng.normal(size=(4, 3, 2, 2)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out = F.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3),
                             training=True)
        assert out._parents == (x, gamma, beta)
        assert creator_closures(out, (x,)) == [out]

    def test_training_needs_more_than_one_value_per_channel(self):
        x = Tensor(np.ones((1, 2, 1, 1)))
        running_mean, running_var = np.zeros(2), np.ones(2)
        with pytest.raises(ValueError, match=r"\(1, 2, 1, 1\)"):
            F.batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           running_mean, running_var, training=True)
        assert np.array_equal(running_mean, np.zeros(2))
        assert np.array_equal(running_var, np.ones(2))
        out = F.batch_norm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                             running_mean, running_var, training=False)
        assert out.shape == (1, 2, 1, 1)


#: name -> (x requires grad, gamma/beta require grad, x holds a gradient)
BN_GRAD_CASES = {
    "all": (True, True, False),
    "x frozen": (False, True, False),
    "affine frozen": (True, False, False),
    "x holds a gradient": (True, True, True),
    "constants": (False, False, False),
}


def run_batch_norm(op, x_data, affine, stats, training, grad_on,
                   x_grad=False, affine_grad=False, prior=None,
                   upstream=None):
    """One BatchNorm call (and backward): out, grads and running stats."""
    x = Tensor(x_data, requires_grad=x_grad)
    gamma, beta = (Tensor(p, requires_grad=affine_grad) for p in affine)
    if prior is not None:
        x.grad = prior.copy()
    running_mean, running_var = (s.copy() for s in stats)
    if grad_on:
        out = op(x, gamma, beta, running_mean, running_var, training=training)
        if out.requires_grad:
            out.backward(upstream)
    else:
        with no_grad():
            out = op(x, gamma, beta, running_mean, running_var,
                     training=training)
    return {"out": out.data, "x.grad": x.grad, "gamma.grad": gamma.grad,
            "beta.grad": beta.grad, "running_mean": running_mean,
            "running_var": running_var}


class TestBatchNormMatchesReference:
    """The fused op reproduces the composed chain byte for byte."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    # Channels-last x is walked in rows for 1 < C < 16 when H, W > 1:
    # (32, 2, 12, 12) in rows of 256 pixels, (1, 15, 3, 3) in one row
    # and (1, 3, 2, 173), whose 346 pixels have no divisor between 2 and
    # 512 // 3, in rows of 2 pixels; (4, 16, 3, 3) and size-1 axes
    # broadcast.
    @pytest.mark.parametrize("shape", [(8, 4, 12, 12), (3, 16, 6, 6),
                                       (2, 6, 1, 1), (1, 4, 1, 2),
                                       (32, 2, 12, 12), (1, 15, 3, 3),
                                       (4, 16, 3, 3), (1, 3, 2, 173)])
    def test_bytes_dtypes_and_strides(self, monkeypatch, rng, shape, x_dtype,
                                      param_dtype, training):
        walks = record_calls(monkeypatch, "row_channels")
        n, c, h, w = shape
        images = signed_zero_images(rng, shape, x_dtype) * 2.0 + 0.5
        affine = [rng.normal(size=c).astype(param_dtype) for _ in range(2)]
        stats = (rng.normal(size=c).astype(param_dtype),
                 rng.uniform(0.5, 2.0, size=c).astype(param_dtype))
        prior = rng.normal(size=shape).astype(x_dtype)
        scenarios = [("no_grad", dict(grad_on=False))]
        for case, (x_grad, affine_grad, holds) in BN_GRAD_CASES.items():
            for layout, upstream in zip(("C", "channels-last"),
                                        layouts(rng.normal(size=shape))):
                scenarios.append((f"{case}, upstream {layout}", dict(
                    grad_on=True, x_grad=x_grad, affine_grad=affine_grad,
                    prior=prior if holds else None, upstream=upstream)))
        for layout, x_data in zip(("C", "channels-last"), layouts(images)):
            for name, scenario in scenarios:
                fused = run_batch_norm(F.batch_norm2d, x_data, affine, stats,
                                       training, **scenario)
                chain = run_batch_norm(reference_batch_norm2d, x_data, affine,
                                       stats, training, **scenario)
                for key, expected in chain.items():
                    where = f"{key} (x {layout}, {name})"
                    actual = fused[key]
                    if expected is None:
                        assert actual is None, where
                        continue
                    assert actual.dtype == expected.dtype, where
                    assert actual.strides == expected.strides, where
                    assert actual.tobytes() == expected.tobytes(), where
        # Eval with nothing to differentiate walks channels-last x in
        # rows when 1 < C < 16 and H, W > 1; C-contiguous x broadcasts.
        grad_free = sum(not (sc["grad_on"] and (sc.get("x_grad")
                                                or sc.get("affine_grad")))
                        for _, sc in scenarios)
        walked = not training and 1 < c < 16 and h > 1 and w > 1
        assert walks == [(c, n * h * w)] * (grad_free * walked)


class TestBatchNormModelsMatchReference:
    """Training and eval through whole models, fused vs composed chain."""

    @pytest.mark.parametrize("size", [12, 16])
    @pytest.mark.parametrize("name", available_models())
    def test_sgd_steps_then_eval(self, monkeypatch, name, size):
        def run():
            model = build_model(name, num_classes=4, input_size=size,
                                width_multiplier=0.125,
                                rng=np.random.default_rng(3))
            data = np.random.default_rng(4)
            images = Tensor(data.normal(size=(4, 3, size, size))
                            .astype(np.float32))
            labels = data.integers(0, 4, size=4)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                            weight_decay=5e-4)
            for _ in range(2):
                optimizer.zero_grad()
                F.cross_entropy(model(images), labels).backward()
                optimizer.step()
            model.eval()
            with no_grad():
                logits = model(images).data
            return {**model.state_dict(), "logits": logits}

        fused = run()
        monkeypatch.setattr(F, "batch_norm2d", reference_batch_norm2d)
        chain = run()
        assert fused.keys() == chain.keys()
        for key, expected in chain.items():
            assert fused[key].dtype == expected.dtype, key
            assert fused[key].tobytes() == expected.tobytes(), key



def pool_inputs(rng, shape, dtype):
    """ReLU'd images with planted ±0 ties, then copies with NaN and ±inf."""
    x = rng.normal(size=shape).astype(dtype)
    ties = x * (x > 0)                    # -0.0 wherever x < 0
    ties[:, :, ::2, ::3] = 0.0
    # Channel 0 is all zeros, their signs alternating.
    ties[:, 0] = np.where(np.indices(shape[2:]).sum(axis=0) % 2, -0.0, 0.0)
    nans = ties.copy()
    nans[:, :, 1::3, ::2] = np.nan
    nans[:, :, 2::4, 1::2] = -np.nan
    payload = nans.view(f"u{nans.itemsize}")[:, :, 1::3, ::4]
    payload |= 3                          # distinct NaN payloads
    infs = ties.copy()
    infs[:, :, ::3, 1::2] = np.inf
    infs[:, :, 1::2, ::3] = -np.inf
    infs[:, -1, :2, :2] = -np.inf         # padding wins these windows
    return {"±0 ties": ties, "NaN": nans, "±inf": infs}


def run_max_pool(op, x_data, geometry, grad_on, x_grad=False, prior=None,
                 upstream=None):
    """One max-pool call (and backward): its output and x's gradient."""
    x = Tensor(x_data, requires_grad=x_grad)
    if prior is not None:
        x.grad = prior.copy()
    if grad_on:
        out = op(x, *geometry)
        if out.requires_grad:
            out.backward(upstream)
    else:
        with no_grad():
            out = op(x, *geometry)
    return {"out": out.data, "x.grad": x.grad}


def assert_max_pools_match(rng, shape, geometry, dtype):
    """Walk and window copy agree on output and x.grad: bytes, dtype and
    strides, for every input kind, x and upstream layout and grad mode."""
    kernel, stride, padding = geometry
    out_shape = (*shape[:2], *((d + 2 * padding - kernel) // stride + 1
                               for d in shape[2:]))
    upstream = rng.normal(size=out_shape).astype(dtype)
    upstream[..., ::2] = -0.0
    upstream[:, -1, ::2, 1::2] = np.inf
    prior = rng.normal(size=shape).astype(dtype)
    scenarios = [("no_grad", dict(grad_on=False, x_grad=True)),
                 ("constant x", dict(grad_on=True))]
    for layout, g in zip(("C", "channels-last"), layouts(upstream)):
        scenarios += [
            (f"upstream {layout}", dict(grad_on=True, x_grad=True,
                                        upstream=g)),
            (f"x holds a gradient, upstream {layout}", dict(
                grad_on=True, x_grad=True, prior=prior, upstream=g))]
    for kind, images in pool_inputs(rng, shape, dtype).items():
        for layout, x_data in zip(("C", "channels-last"), layouts(images)):
            for name, scenario in scenarios:
                walked = run_max_pool(F.max_pool2d, x_data, geometry,
                                      **scenario)
                copied = run_max_pool(reference_max_pool2d, x_data,
                                      geometry, **scenario)
                for key, expected in copied.items():
                    where = f"{key} ({kind}, x {layout}, {name})"
                    actual = walked[key]
                    if expected is None:
                        assert actual is None, where
                        continue
                    assert actual.dtype == expected.dtype, where
                    assert actual.strides == expected.strides, where
                    assert actual.tobytes() == expected.tobytes(), where


class TestMaxPoolMatchesReference:
    """The first-max kernel reproduces the window-copy pool byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(3, 3), (7, 5), (12, 12)])
    @pytest.mark.parametrize("geometry", [(2, 2, 0), (3, 1, 1), (3, 2, 1),
                                          (2, 1, 0), (3, 3, 0), (2, 2, 1)])
    def test_bytes_dtypes_and_strides(self, rng, geometry, size, dtype):
        assert_max_pools_match(rng, (2, 3, *size), geometry, dtype)

    @pytest.mark.parametrize("geometry", [(3, 1, 1), (2, 2, 1)])
    @pytest.mark.parametrize("shape", [(1, 2, 1, 6), (2, 1, 1, 1)])
    def test_size_one_axes(self, rng, shape, geometry):
        """Gradient strides on size-1 axes follow ``np.zeros_like(x)``."""
        assert_max_pools_match(rng, shape, geometry, np.float64)


def models_with_max_pool():
    def pools(name):
        model = build_model(name, num_classes=4, input_size=12,
                            width_multiplier=0.125,
                            rng=np.random.default_rng(0))
        return any(isinstance(m, MaxPool2d) for m in model.modules())

    return [name for name in available_models() if pools(name)]


POOLING_MODELS = models_with_max_pool()


class TestMaxPoolModelsMatchReference:
    """Training and eval through every pooling model, walk vs window copy."""

    def test_every_pooling_family_is_covered(self):
        assert {"lenet", "alexnet", "vgg11"} <= set(POOLING_MODELS)

    @pytest.mark.parametrize("size", [12, 16])
    @pytest.mark.parametrize("name", POOLING_MODELS)
    def test_sgd_steps_then_eval(self, monkeypatch, name, size):
        def run():
            model = build_model(name, num_classes=4, input_size=size,
                                width_multiplier=0.125,
                                rng=np.random.default_rng(3))
            data = np.random.default_rng(4)
            images = Tensor(data.normal(size=(4, 3, size, size))
                            .astype(np.float32))
            labels = data.integers(0, 4, size=4)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                            weight_decay=5e-4)
            for _ in range(2):
                optimizer.zero_grad()
                F.cross_entropy(model(images), labels).backward()
                optimizer.step()
            model.eval()
            with no_grad():
                logits = model(images).data
            return {**model.state_dict(), "logits": logits}

        walked = run()
        monkeypatch.setattr(F, "max_pool2d", reference_max_pool2d)
        copied = run()
        assert walked.keys() == copied.keys()
        for key, expected in copied.items():
            assert walked[key].dtype == expected.dtype, key
            assert walked[key].tobytes() == expected.tobytes(), key


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

    def test_cross_entropy_rejects_dense_shapes(self, rng):
        with pytest.raises(ValueError, match="expects"):
            F.cross_entropy(Tensor(rng.normal(size=(2, 3, 4, 4))),
                            np.zeros((2, 4, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="expects"):
            F.cross_entropy(Tensor(rng.normal(size=(2, 3))),
                            np.zeros((2, 1), dtype=np.int64))

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
