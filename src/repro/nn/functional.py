"""Neural-network operators built on the autograd engine.

Convolution and pooling are implemented with hand-written backward rules
for speed; normalisation, softmax and losses are composed from
:class:`~repro.nn.tensor.Tensor` primitives so their gradients come
straight from the engine.

Dense convolution is lowered to one GEMM over an im2col patch matrix:
:func:`im2col` gathers it from the zero-padded input with a memoized
index (:func:`patch_index`), and :func:`col2im` folds patch gradients
back in a fixed accumulation order.  The patch matrix is a pure copy,
so the GEMM operands — and every logit and gradient built on them — do
not depend on how the matrix is gathered (``docs/PERFORMANCE.md``,
"Conv lowering").
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor

__all__ = [
    "patch_index", "im2col", "col2im", "conv2d", "conv2d_masked",
    "conv2d_depthwise", "conv2d_depthwise_masked", "depthwise_windows",
    "linear", "max_pool2d", "avg_pool2d",
    "global_avg_pool2d", "upsample_nearest", "batch_norm2d",
    "batch_norm2d_masked", "dropout",
    "log_softmax",
    "softmax", "cross_entropy", "nll_loss", "mse_loss",
]


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


@functools.lru_cache(maxsize=64)
def patch_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                pad: int) -> np.ndarray:
    """Gather index of one sample's im2col patch matrix (read-only).

    Entry ``[p, q]`` is the flat offset into a zero-padded (C, Hp, Wp)
    sample of patch element ``q = (ci, i, j)`` (row-major over C, kh,
    kw) of output pixel ``p = (oy, ox)``.  Every entry lies in
    ``[0, C*Hp*Wp)``.  An entry holds as many ``intp`` values as one
    sample's patch matrix has elements, which bounds the cache.
    """
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    corner = np.arange(oh)[:, None] * (stride * wp) + np.arange(ow) * stride
    offset = (np.arange(c)[:, None, None] * (hp * wp)
              + np.arange(kh)[:, None] * wp + np.arange(kw))
    index = corner.reshape(-1, 1) + offset.reshape(1, -1)
    index.flags.writeable = False
    return index


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N*oh*ow, C*kh*kw) patches.

    Row ``n*oh*ow + oy*ow + ox`` holds the (C, kh, kw) window under output
    pixel (oy, ox) of sample n, flattened row-major.  The matrix is one
    ``take`` through :func:`patch_index` from the zero-padded input, so
    its elements are exact copies of input elements and zeros.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    index = patch_index(c, h, w, kh, kw, stride, pad)
    return x.reshape(n, -1).take(index, axis=1).reshape(-1, index.shape[1])


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """Fold patch gradients back to an image gradient (adjoint of im2col).

    Each image element sums its patch entries starting from ``+0.0`` in
    ascending kernel offset (i, j) order — the order the result's
    rounding is defined by.  The sum runs in a channels-last padded
    buffer, which follows the patch matrix's (pixel, channel) row order;
    the result is a fresh C-contiguous (N, C, H, W) array.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    patches = cols.reshape(n, oh, ow, c, kh, kw)
    image = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                patches[..., i, j]
    return np.ascontiguousarray(
        image[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2))


# ----------------------------------------------------------------------
# Convolution / linear
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    ``weight`` has shape (out_channels, in_channels, kh, kw).
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {cw}")
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((g_mat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            dcols = g_mat @ w_mat
            x._accumulate(col2im(dcols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def conv2d_masked(x: Tensor, weight: Tensor, bias: Tensor | None,
                  keep: np.ndarray, stride: int = 1,
                  padding: int = 0) -> Tensor:
    """Convolution computing only the ``keep`` output channels.

    The compressed "masked forward" of the reward fast path: instead of
    running all filters and multiplying dropped maps by zero, only the
    kept filter rows enter the GEMM and the dropped channels of the
    output are exact zeros.  Work in the producing convolution scales
    with ``len(keep) / out_channels``.

    Each kept channel's reduction runs over the same patch elements in
    the same order as :func:`conv2d`, so kept outputs agree with the
    dense result to BLAS rounding (~1e-12); downstream layers see an
    output identical in shape, with exact zeros where a zeroed-filter
    dense pass would produce them.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    keep = np.asarray(keep, dtype=np.intp)
    n, c, h, w = x.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {cw}")
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)
    w_kept = weight.data[keep].reshape(keep.size, -1)
    out_kept = cols @ w_kept.T
    if bias is not None:
        out_kept = out_kept + bias.data[keep]
    out = np.zeros((cols.shape[0], f), dtype=out_kept.dtype)
    out[:, keep] = out_kept
    out = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_kept = g.transpose(0, 2, 3, 1).reshape(-1, f)[:, keep]
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            gb[keep] = g_kept.sum(axis=0)
            bias._accumulate(gb)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[keep] = (g_kept.T @ cols).reshape(keep.size, cw, kh, kw)
            weight._accumulate(gw)
        if x.requires_grad:
            dcols = g_kept @ w_kept
            x._accumulate(col2im(dcols, x.shape, (kh, kw), stride, padding))

    return Tensor._make(out, parents, backward)


def depthwise_windows(x: np.ndarray, kernel: int, stride: int,
                      pad: int) -> np.ndarray:
    """Sliding ``(N, C, oh, ow, kh, kw)`` windows of a zero-padded input.

    Shared by the eager depthwise forward and the graph executor's
    depthwise kernel so both reduce over the same elements in the same
    order (their outputs are asserted bit-for-bit identical).
    """
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, (kernel, kernel),
                               axis=(2, 3))[:, :, ::stride, ::stride]


def conv2d_depthwise(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Depthwise 2-D convolution: one filter per input channel.

    ``weight`` has shape (channels, 1, k, k); output channel ``c`` is
    the correlation of input channel ``c`` with its own filter — the
    ``groups == in_channels == out_channels`` case of grouped
    convolution, which is all depthwise-separable stacks need.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, per_group, kh, kw = weight.shape
    if f != c or per_group != 1 or kh != kw:
        raise ValueError(
            f"depthwise conv2d needs weight shape ({c}, 1, k, k); "
            f"got {tuple(weight.shape)}")
    windows = depthwise_windows(x.data, kh, stride, padding)
    out = np.einsum("nchwij,cij->nchw", windows, weight.data[:, 0])
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            gw = np.einsum("nchw,nchwij->cij", g, windows)
            weight._accumulate(gw[:, None])
        if x.requires_grad:
            oh, ow = g.shape[2:]
            hp, wp = h + 2 * padding, w + 2 * padding
            dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += \
                        g * weight.data[:, 0, i, j][None, :, None, None]
            if padding:
                dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
            x._accumulate(dxp)

    return Tensor._make(out, parents, backward)


def conv2d_depthwise_masked(x: Tensor, weight: Tensor, bias: Tensor | None,
                            keep: np.ndarray, stride: int = 1,
                            padding: int = 0) -> Tensor:
    """Depthwise convolution computing only the ``keep`` channels.

    Companion of :func:`conv2d_masked` for depthwise layers: only the
    kept channels' windows enter the reduction, dropped channels of the
    output are exact zeros.  Kept channels reduce over the same elements
    in the same order as :func:`conv2d_depthwise`, so they agree with
    the dense result to rounding.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    keep = np.asarray(keep, dtype=np.intp)
    n, c, h, w = x.shape
    f, per_group, kh, kw = weight.shape
    if f != c or per_group != 1:
        raise ValueError(
            f"depthwise conv2d needs weight shape ({c}, 1, k, k); "
            f"got {tuple(weight.shape)}")
    windows = depthwise_windows(np.ascontiguousarray(x.data[:, keep]),
                                kh, stride, padding)
    out_kept = np.einsum("nchwij,cij->nchw", windows, weight.data[keep, 0])
    if bias is not None:
        out_kept = out_kept + bias.data[keep].reshape(1, -1, 1, 1)
    oh, ow = out_kept.shape[2:]
    out = np.zeros((n, f, oh, ow), dtype=out_kept.dtype)
    out[:, keep] = out_kept

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_kept = g[:, keep]
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            gb[keep] = g_kept.sum(axis=(0, 2, 3))
            bias._accumulate(gb)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[keep, 0] = np.einsum("nchw,nchwij->cij", g_kept, windows)
            weight._accumulate(gw)
        if x.requires_grad:
            hp, wp = h + 2 * padding, w + 2 * padding
            dxp = np.zeros((n, keep.size, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += \
                        g_kept * weight.data[keep, 0, i, j][None, :, None, None]
            if padding:
                dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
            dx = np.zeros_like(x.data)
            dx[:, keep] = dxp
            x._accumulate(dx)

    return Tensor._make(out, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None,
               padding: int = 0) -> Tensor:
    """Max pooling over NCHW input.

    Padding is filled with ``-inf`` so padded positions never win a
    window (the convention of every deep-learning framework); with
    ``padding < kernel`` each window overlaps the image, so the output
    stays finite.
    """
    stride = stride or kernel
    x = as_tensor(x)
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

    def backward(g: np.ndarray) -> None:
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


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input (no padding)."""
    stride = stride or kernel
    x = as_tensor(x)
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1

    windows = sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    out = windows.mean(axis=(-2, -1))

    def backward(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        share = g / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += share
        x._accumulate(dx)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean, returning shape (N, C)."""
    return x.mean(axis=(2, 3))


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of NCHW input by an integer factor.

    Backward sums the gradient over each replicated block (the exact
    adjoint of replication).
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    x = as_tensor(x)
    if scale == 1:
        return x
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(g: np.ndarray) -> None:
        folded = g.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        x._accumulate(folded)

    return Tensor._make(data, (x,), backward)


# ----------------------------------------------------------------------
# Normalisation / regularisation
# ----------------------------------------------------------------------
def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel axis of NCHW input.

    Running statistics are updated in place during training.
    """
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


def batch_norm2d_masked(x: Tensor, gamma: Tensor, beta: Tensor,
                        running_mean: np.ndarray, running_var: np.ndarray,
                        keep: np.ndarray, eps: float = 1e-5) -> Tensor:
    """Eval-mode batch norm normalising only the ``keep`` channels.

    Companion of :func:`conv2d_masked`: dropped channels are exact zeros
    (never touched), kept channels follow the dense eval path's
    arithmetic operation-for-operation so the results match it to
    rounding.  Training mode has no masked variant — batch statistics
    over a masked batch are a different computation, not a fast path.
    """
    x = as_tensor(x)
    keep = np.asarray(keep, dtype=np.intp)
    column = lambda v: v.reshape(1, -1, 1, 1)
    # Same ops and dtype promotion as the dense eval path, on the slice.
    inv_std = ((as_tensor(column(running_var[keep])) + eps) ** -0.5).data
    normalised = (x.data[:, keep] - column(running_mean[keep])) * inv_std
    gamma_kept = column(gamma.data[keep])
    out_kept = normalised * gamma_kept + column(beta.data[keep])
    out = np.zeros(x.shape, dtype=out_kept.dtype)
    out[:, keep] = out_kept

    def backward(g: np.ndarray) -> None:
        g_kept = g[:, keep]
        if beta.requires_grad:
            gb = np.zeros_like(beta.data)
            gb[keep] = g_kept.sum(axis=(0, 2, 3))
            beta._accumulate(gb)
        if gamma.requires_grad:
            gg = np.zeros_like(gamma.data)
            gg[keep] = (g_kept * normalised).sum(axis=(0, 2, 3))
            gamma._accumulate(gg)
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[:, keep] = g_kept * (gamma_kept * inv_std)
            x._accumulate(dx)

    return Tensor._make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Softmax & losses
# ----------------------------------------------------------------------
def log_softmax(logits: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable log-softmax."""
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    shifted = logits - shift
    lse = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - lse


def softmax(logits: Tensor, axis: int = 1) -> Tensor:
    """Numerically stable softmax."""
    return log_softmax(logits, axis=axis).exp()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood for integer class targets.

    Accepts (N, C) log-probabilities with (N,) targets, or dense
    (N, C, H, W) log-probabilities with (N, H, W) targets (the
    segmentation case) — the loss averages over every labelled element.
    """
    targets = np.asarray(targets)
    if log_probs.ndim == 4:
        n, c = log_probs.shape[:2]
        log_probs = log_probs.transpose(0, 2, 3, 1).reshape(-1, c)
        targets = targets.reshape(-1)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer class targets.

    The class axis is axis 1 (classification and dense prediction).
    """
    return nll_loss(log_softmax(logits, axis=1), targets)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()
