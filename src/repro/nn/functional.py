"""Neural-network operators built on the autograd engine.

Convolution, pooling and BatchNorm are implemented with hand-written
backward rules for speed; softmax and losses are composed from
:class:`~repro.nn.tensor.Tensor` primitives so their gradients come
straight from the engine.  BatchNorm is one autograd node whose forward
and backward evaluate the same numpy expressions, in the same order and
memory layout, as the primitive chain it replaced, so its outputs and
gradients equal that chain's bit for bit (``docs/PERFORMANCE.md``,
"BatchNorm").

Convolution is lowered to one GEMM over an im2col patch matrix:
:func:`im2col` gathers it from the zero-padded input with a memoized
index (:func:`patch_index`), and :func:`col2im` folds patch gradients
back in a fixed accumulation order.  The patch matrix is a pure copy,
so the GEMM operands — and every logit and gradient built on them — do
not depend on how the matrix is gathered (``docs/PERFORMANCE.md``,
"Conv lowering").  Conv outputs, and what BatchNorm, ReLU and the
residual add make of them, are channels-last views; :func:`im2col` and
:func:`batch_norm2d_eval` walk such inputs in their own memory order,
which changes no byte of what they return.

Max pooling copies no windows: :func:`first_max_pool2d` walks the kernel
offsets over strided slices of the input and keeps each window's first
maximum, the element ``argmax`` picks.  Its outputs and gradients equal
those of the window-copy pool it replaced bit for bit, signed zeros and
NaN payloads included (``docs/PERFORMANCE.md``, "Pooling").
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "patch_index", "im2col", "col2im", "conv2d", "row_channels",
    "linear", "check_max_pool_padding", "first_max_pool2d", "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d", "batch_norm2d",
    "batch_norm2d_eval", "dropout", "log_softmax",
    "softmax", "cross_entropy", "nll_loss", "mse_loss",
]


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _channels_last(x: np.ndarray) -> bool:
    """Whether NCHW ``x`` is a view of C-contiguous NHWC memory and not
    C-contiguous itself, as conv outputs and what follows them are."""
    return (not x.flags.c_contiguous
            and x.transpose(0, 2, 3, 1).flags.c_contiguous)


@functools.lru_cache(maxsize=64)
def patch_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                pad: int, channels_last: bool = False) -> np.ndarray:
    """Gather index of one sample's im2col patch matrix (read-only).

    Entry ``[p, q]`` is the flat offset into a zero-padded (C, Hp, Wp)
    sample, or with ``channels_last`` a (Hp, Wp, C) one, of patch
    element ``q = (ci, i, j)`` (row-major over C, kh, kw) of output pixel
    ``p = (oy, ox)``.  Every entry lies in ``[0, C*Hp*Wp)``.  An entry
    holds as many ``intp`` values as one sample's patch matrix has
    elements, which bounds the cache.
    """
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    # Element strides of the padded sample's channel and pixel axes.
    channel, pixel = (1, c) if channels_last else (hp * wp, 1)
    corner = (np.arange(oh)[:, None] * (stride * wp)
              + np.arange(ow) * stride) * pixel
    offset = (np.arange(c)[:, None, None] * channel
              + (np.arange(kh)[:, None] * wp + np.arange(kw)) * pixel)
    index = corner.reshape(-1, 1) + offset.reshape(1, -1)
    index.flags.writeable = False
    return index


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int,
           pad: int) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N*oh*ow, C*kh*kw) patches.

    Row ``n*oh*ow + oy*ow + ox`` holds the (C, kh, kw) window under output
    pixel (oy, ox) of sample n, flattened row-major.  The matrix is one
    ``take`` through :func:`patch_index` from the zero-padded input, so
    its elements are exact copies of input elements and zeros.  A
    channels-last ``x`` is padded into a channels-last buffer and
    gathered with the channels-last index, so neither step transposes;
    the matrix is the same.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    channels_last = _channels_last(x)
    if pad:
        hp, wp = h + 2 * pad, w + 2 * pad
        shape = (n, hp, wp, c) if channels_last else (n, c, hp, wp)
        padded = np.zeros(shape, dtype=x.dtype)
        if channels_last:
            padded = padded.transpose(0, 3, 1, 2)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    samples = (x.transpose(0, 2, 3, 1) if channels_last else x).reshape(n, -1)
    index = patch_index(c, h, w, kh, kw, stride, pad, channels_last)
    return samples.take(index, axis=1).reshape(-1, index.shape[1])


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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def check_max_pool_padding(kernel: int, padding: int) -> None:
    """Reject padding that would let a window miss the image entirely."""
    if not 0 <= padding < kernel:
        raise ValueError(
            f"max pooling needs 0 <= padding < kernel, got kernel={kernel}, "
            f"padding={padding}")


def _window_taps(kernel: int, stride: int, oh: int, ow: int) -> list[tuple]:
    """Index of offset (i, j) of every window, for q = i * kernel + j."""
    return [(slice(None), slice(None), slice(i, i + stride * oh, stride),
             slice(j, j + stride * ow, stride))
            for i in range(kernel) for j in range(kernel)]


def first_max_pool2d(x: np.ndarray, kernel: int, stride: int, padding: int,
                     return_index: bool = False
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """Max pooling of an NCHW array in which a window's first maximum wins.

    Walks the kernel offsets in row-major order over strided slices of
    the ``-inf``-padded input.  A later element replaces the running
    maximum only when it is strictly greater, or when it is the window's
    first NaN, so each output element is a bit copy of the element
    ``argmax`` picks from the flattened window: a ±0 tie keeps the first
    zero's sign and a NaN its payload.  The walk runs in ``x``'s memory
    order; the result is a fresh C-contiguous (N, C, oh, ow) array.

    With ``return_index``, also returns each window's winning offset
    ``i * kernel + j``, laid out like the walk; otherwise ``None``.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, padding)
    ow = _out_size(w, kernel, stride, padding)
    has_nan = np.isnan(x).any()
    if padding:
        padded = np.full_like(x, -np.inf, shape=(n, c, h + 2 * padding,
                                                  w + 2 * padding))
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    taps = _window_taps(kernel, stride, oh, ow)
    best = x[taps[0]]
    index = None
    if return_index:
        index = np.zeros_like(best, dtype=np.min_scalar_type(len(taps) - 1))
    for q in range(1, len(taps)):
        slab = x[taps[q]]
        take = slab > best
        if has_nan:
            take |= np.isnan(slab) & ~np.isnan(best)
        best = np.where(take, slab, best)
        if index is not None:
            # q exceeds every offset recorded so far, so this writes q
            # exactly where ``take`` holds.
            np.maximum(index, take * index.dtype.type(q), out=index)
    out = np.empty((n, c, oh, ow), dtype=best.dtype)
    np.copyto(out, best)
    return out, index


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None,
               padding: int = 0) -> Tensor:
    """Max pooling over NCHW input.

    Padding is filled with ``-inf`` so padded positions never win a
    window (the convention of every deep-learning framework).  It must
    be smaller than the kernel, so every window overlaps the image.  The
    forward is :func:`first_max_pool2d`; the backward routes each output
    gradient to its window's winning element, adding the gradients of
    overlapping windows in ascending window order (``docs/PERFORMANCE.md``,
    "Pooling").
    """
    stride = stride or kernel
    check_max_pool_padding(kernel, padding)
    x = as_tensor(x)
    out, index = first_max_pool2d(
        x.data, kernel, stride, padding,
        return_index=is_grad_enabled() and x.requires_grad)

    def backward(g: np.ndarray) -> None:
        n, c, h, w = x.shape
        dx = np.zeros_like(x.data, shape=(n, c, h + 2 * padding,
                                          w + 2 * padding))
        # An input element is offset (i, j) of window (oy, ox), with
        # descending offsets in ascending windows, so this adds each
        # element's terms in the order ``np.add.at`` over the windows
        # would.  The +0.0 fillers leave a sum that starts at +0.0 as it
        # is.
        taps = _window_taps(kernel, stride, *g.shape[2:])
        for q in reversed(range(len(taps))):
            dx[taps[q]] += np.where(index == q, g, 0.0)
        if padding:
            # Laid out as np.zeros_like(x.data) is, size-1 axes included.
            interior = dx[:, :, padding:padding + h, padding:padding + w]
            dx = np.empty_like(x.data)
            dx[...] = interior
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


# ----------------------------------------------------------------------
# Normalisation / regularisation
# ----------------------------------------------------------------------
_BN_AXES = (0, 2, 3)


def _column(v: np.ndarray) -> np.ndarray:
    return v.reshape(1, -1, 1, 1)


#: Elements per row of the channels-last row walk, and the channel
#: count from which BatchNorm eval broadcasts instead: the layers pruning
#: narrows (``docs/PERFORMANCE.md``, "BatchNorm").
_ROW = 512
_ROW_CHANNELS = 16


@functools.lru_cache(maxsize=64)
def row_channels(c: int, pixels: int) -> np.ndarray:
    """Channel of each element of one row of a (pixels, C) array walked
    in rows of k whole pixels (read-only).

    k is the largest divisor of ``pixels`` with ``k*C <= 512``, so the
    array is a whole number of rows; entry ``j`` is ``j % C``.
    """
    k = max(d for d in range(1, max(_ROW // c, 1) + 1) if pixels % d == 0)
    index = np.tile(np.arange(c), k)
    index.flags.writeable = False
    return index


def batch_norm2d_eval(x: np.ndarray, running_mean: np.ndarray,
                      running_var: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray, eps: float) -> np.ndarray:
    """Eval-mode BatchNorm of an NCHW array, computed in its output buffer.

    Computes ``(x - mean) * inv_std * weight + bias`` with ``inv_std =
    (running_var + eps) ** -0.5``, operation by operation as
    :func:`batch_norm2d` does with gradients on.  ``eps`` enters as a
    0-d float64 array, so ``inv_std`` and the output are float64, while
    ``x - mean`` rounds at ``result_type(x, running_mean)`` (float32 for
    a float32 input and float32 statistics) before it is widened.

    A channels-last ``x`` with fewer than 16 channels and both spatial
    axes longer than 1 is walked in rows of :func:`row_channels`: the
    same four elementwise steps over its (N*H*W/k, k*C) memory, each
    per-channel vector expanded to one row.  Every element sees the
    same operands, so the result is the same bytes.

    Numpy allocates the output (and, when ``x - mean`` is narrower, that
    difference first), so the result is strided exactly as with
    gradients on (size-1 axes included).
    """
    inv_std = (running_var + np.asarray(eps)) ** -0.5
    centred_dtype = np.result_type(x, running_mean)
    dtype = np.result_type(centred_dtype, inv_std)
    vectors = (running_mean, inv_std, weight, bias)
    n, c, h, w = x.shape
    rows = 1 < c < _ROW_CHANNELS and h > 1 and w > 1 and _channels_last(x)
    if rows:
        index = row_channels(c, n * h * w)
        src = x.transpose(0, 2, 3, 1).reshape(-1, index.size)
        mean, inv_std, weight, bias = (v.take(index) for v in vectors)
    else:
        src = x
        mean, inv_std, weight, bias = (_column(v) for v in vectors)
    if centred_dtype == dtype:
        out = np.subtract(src, mean)
        np.multiply(out, inv_std, out=out)
    else:
        out = np.subtract(src, mean) * inv_std
    np.multiply(out, weight, out=out)
    np.add(out, bias, out=out)
    return out.reshape(n, h, w, c).transpose(0, 3, 1, 2) if rows else out


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel axis of NCHW input.

    Running statistics are updated in place during training, which
    needs more than one value per channel (``N*H*W > 1``).  The op is
    one autograd node with parents ``(x, gamma, beta)``; its backward
    is the exact gradient of the forward's expressions, evaluated in a
    fixed order so every gradient is reproducible bit for bit
    (``docs/PERFORMANCE.md``, "BatchNorm").  In eval mode with nothing
    to differentiate, the output is :func:`batch_norm2d_eval`.
    """
    data = x.data
    if training:
        n, _, h, w = data.shape
        if n * h * w == 1:
            raise ValueError(
                "batch_norm2d: training needs more than one value per "
                f"channel, got input shape {data.shape}")
        count = np.asarray(float(n * h * w))
        mean = data.sum(axis=_BN_AXES, keepdims=True) / count
        centred = data - mean
        var = (centred ** 2).sum(axis=_BN_AXES, keepdims=True) / count
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.reshape(-1)
    elif not (is_grad_enabled() and (x.requires_grad or gamma.requires_grad
                                     or beta.requires_grad)):
        return Tensor(batch_norm2d_eval(data, running_mean, running_var,
                                        gamma.data, beta.data, eps))
    else:
        var = _column(running_var)
        centred = data - _column(running_mean)
    var_eps = var + np.asarray(eps)
    inv_std = var_eps ** -0.5
    normalised = centred * inv_std
    weight = _column(gamma.data)
    out = normalised * weight
    out += _column(beta.data)

    def backward(g: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=_BN_AXES, keepdims=True)
                             .astype(beta.dtype, copy=False)
                             .reshape(beta.shape))
        if gamma.requires_grad:
            gamma._accumulate((g * normalised)
                              .sum(axis=_BN_AXES, keepdims=True)
                              .astype(gamma.dtype, copy=False)
                              .reshape(gamma.shape))
        if not x.requires_grad:
            return
        # x receives three terms, each rounded as it is added: through
        # the centred input, through the variance, through the mean.
        g_norm = g * weight
        dx2 = (g_norm * inv_std).astype(centred.dtype, copy=False)
        x._accumulate(dx2)
        if not training:
            return
        g_var = ((g_norm * centred).sum(axis=_BN_AXES, keepdims=True)
                 * -0.5 * var_eps ** -1.5 / count)
        # C order, whatever centred's layout: the sum below reduces in
        # memory order.
        dx1 = np.empty(data.shape, dtype=np.result_type(g_var, centred))
        np.multiply(g_var * 2, centred, out=dx1)
        x._accumulate(dx1)
        g_mean = (-dx2.sum(axis=_BN_AXES, keepdims=True)
                  + -dx1.sum(axis=_BN_AXES, keepdims=True))
        x._accumulate(np.broadcast_to((g_mean / count).astype(data.dtype),
                                      data.shape))

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
    """Mean negative log-likelihood of (N, C) log-probabilities at (N,)
    integer class targets."""
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    if log_probs.ndim != 2 or targets.shape != (n,):
        raise ValueError(
            f"nll_loss expects (N, C) log-probabilities and (N,) targets, "
            f"got {log_probs.shape} and {targets.shape}")
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy of (N, C) logits at (N,) integer targets."""
    return nll_loss(log_softmax(logits, axis=1), targets)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()
