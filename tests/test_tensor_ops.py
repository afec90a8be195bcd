"""Unit tests for the autograd engine's primitive operations."""

import itertools

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, check_gradients, no_grad
from repro.nn.tensor import _unbroadcast, is_grad_enabled


def t(shape, rng, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


class TestConstruction:
    def test_from_list(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert x.shape == (3,)
        assert not x.requires_grad

    def test_from_tensor_shares_data(self):
        x = Tensor(np.ones(3))
        y = Tensor(x)
        assert y.data is x.data

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_item_and_numpy(self):
        x = Tensor(np.array([[2.5]]))
        assert x.item() == 2.5
        assert x.numpy() is x.data

    def test_detach_is_constant(self):
        x = Tensor(np.ones(2), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert d.data is x.data

    def test_len_and_repr(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert len(x) == 4
        assert "requires_grad=True" in repr(x)

    def test_as_tensor_passthrough(self):
        x = Tensor(np.ones(2))
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0]), Tensor)


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_leading_axis(self):
        g = np.ones((5, 3))
        out = _unbroadcast(g, (3,))
        assert out.shape == (3,)
        assert np.all(out == 5)

    def test_size_one_axis(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        assert np.all(out == 4)

    def test_combined(self):
        g = np.ones((2, 3, 4))
        out = _unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        assert np.all(out == 6)


class TestArithmeticGradients:
    def test_add(self, rng):
        check_gradients(lambda a, b: a + b, [t((3, 4), rng), t((3, 4), rng)])

    def test_add_broadcast(self, rng):
        check_gradients(lambda a, b: a + b, [t((3, 4), rng), t((4,), rng)])

    def test_add_scalar(self, rng):
        check_gradients(lambda a: a + 2.5, [t((3,), rng)])

    def test_radd(self, rng):
        check_gradients(lambda a: 2.5 + a, [t((3,), rng)])

    def test_sub(self, rng):
        check_gradients(lambda a, b: a - b, [t((2, 3), rng), t((2, 3), rng)])

    def test_rsub(self, rng):
        check_gradients(lambda a: 1.0 - a, [t((4,), rng)])

    def test_neg(self, rng):
        check_gradients(lambda a: -a, [t((4,), rng)])

    def test_mul(self, rng):
        check_gradients(lambda a, b: a * b, [t((3, 2), rng), t((3, 2), rng)])

    def test_mul_broadcast(self, rng):
        check_gradients(lambda a, b: a * b, [t((3, 2), rng), t((1, 2), rng)])

    def test_div(self, rng):
        a = t((3,), rng)
        b = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        check_gradients(lambda a, b: a / b, [a, b])

    def test_rdiv(self, rng):
        b = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        check_gradients(lambda b: 2.0 / b, [b])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check_gradients(lambda a: a ** 3, [a])

    def test_pow_requires_scalar(self, rng):
        with pytest.raises(TypeError):
            t((2,), rng) ** np.array([1.0, 2.0])

    def test_matmul_2d(self, rng):
        check_gradients(lambda a, b: a @ b, [t((3, 4), rng), t((4, 2), rng)])

    def test_matmul_vector_right(self, rng):
        check_gradients(lambda a, b: a @ b, [t((3, 4), rng), t((4,), rng)])

    def test_matmul_vector_left(self, rng):
        check_gradients(lambda a, b: a @ b, [t((4,), rng), t((4, 2), rng)])

    def test_matmul_batched(self, rng):
        check_gradients(lambda a, b: a @ b, [t((2, 3, 4), rng), t((2, 4, 2), rng)])


class TestShapeOps:
    def test_reshape(self, rng):
        check_gradients(lambda a: a.reshape(6), [t((2, 3), rng)])

    def test_reshape_tuple_and_minus_one(self, rng):
        x = t((2, 3, 4), rng)
        assert x.reshape((6, 4)).shape == (6, 4)
        assert x.reshape(2, -1).shape == (2, 12)

    def test_transpose_default(self, rng):
        check_gradients(lambda a: a.transpose(), [t((2, 3), rng)])

    def test_transpose_axes(self, rng):
        check_gradients(lambda a: a.transpose(2, 0, 1), [t((2, 3, 4), rng)])

    def test_T_property(self, rng):
        x = t((2, 5), rng)
        assert x.T.shape == (5, 2)

    def test_getitem_slice(self, rng):
        check_gradients(lambda a: a[1:3], [t((5, 2), rng)])

    def test_getitem_fancy(self, rng):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: a[idx], [t((4, 3), rng)])

    def test_getitem_fancy_duplicate_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x[np.array([0, 0, 1])]
        y.backward(np.ones(3))
        assert np.allclose(x.grad, [2.0, 1.0, 0.0])

    def test_pad(self, rng):
        check_gradients(lambda a: a.pad([(1, 2), (0, 1)]), [t((3, 2), rng)])


class TestReductions:
    def test_sum_all(self, rng):
        check_gradients(lambda a: a.sum(), [t((3, 4), rng)])

    def test_sum_axis(self, rng):
        check_gradients(lambda a: a.sum(axis=1), [t((3, 4), rng)])

    def test_sum_axis_keepdims(self, rng):
        check_gradients(lambda a: a.sum(axis=0, keepdims=True), [t((3, 4), rng)])

    def test_sum_multi_axis(self, rng):
        check_gradients(lambda a: a.sum(axis=(0, 2)), [t((2, 3, 4), rng)])

    def test_mean_matches_sum(self, rng):
        x = t((4, 5), rng)
        assert np.allclose(x.mean(axis=1).data, x.data.mean(axis=1))

    def test_mean_grad(self, rng):
        check_gradients(lambda a: a.mean(axis=(0, 1)), [t((3, 4), rng)])

    def test_max_all(self, rng):
        check_gradients(lambda a: a.max(), [t((3, 4), rng)])

    def test_max_axis(self, rng):
        check_gradients(lambda a: a.max(axis=1), [t((3, 4), rng)])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.max(axis=1).backward(np.ones(1))
        assert np.allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestElementwise:
    def test_exp(self, rng):
        check_gradients(lambda a: a.exp(), [t((3,), rng)])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check_gradients(lambda a: a.log(), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check_gradients(lambda a: a.sqrt(), [a])

    def test_abs(self, rng):
        a = Tensor(rng.normal(size=6) + 0.1, requires_grad=True)
        check_gradients(lambda a: a.abs(), [a])

    def test_relu(self, rng):
        a = Tensor(rng.normal(size=10) + 0.05, requires_grad=True)
        check_gradients(lambda a: a.relu(), [a])

    def test_relu_zeroes_negatives(self):
        x = Tensor(np.array([-1.0, 2.0]))
        assert np.allclose(x.relu().data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(32, 8, 12, 12), (4, 3, 1, 5),
                                       (6, 5, 7, 1), (8, 16, 1, 1)])
    def test_relu_backward_is_the_bool_mask_product(self, dtype, shape):
        """The gradient is ``g * (x > 0)`` in bytes, dtype and strides, for
        every C / channels-last pairing of gradient and activation: a
        later reduction sums in memory order."""
        rng = np.random.default_rng(0)

        def laid_out(a, channels_last):
            if not channels_last:
                return a
            return np.ascontiguousarray(
                a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)

        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -2.5, 3.0])
        for g_last, x_last in itertools.product([False, True], repeat=2):
            g = rng.normal(size=shape).astype(dtype)
            g.flat[:2 * specials.size] = np.tile(specials, 2)
            x = rng.normal(size=shape).astype(dtype)
            # Each special gradient meets a kept and a dropped activation.
            x.flat[:2 * specials.size] = np.repeat([1.0, -1.0], specials.size)
            x.flat[-3:] = [0.0, -0.0, np.nan]
            g, x = laid_out(g, g_last), laid_out(x, x_last)
            leaf = Tensor(x, requires_grad=True)
            with np.errstate(invalid="ignore"):     # inf * 0 is NaN
                expected = g * (x > 0)
                leaf.relu().backward(g)
            assert leaf.grad.dtype == expected.dtype == dtype
            assert leaf.grad.strides == expected.strides
            assert leaf.grad.tobytes() == expected.tobytes()

    def test_sigmoid(self, rng):
        check_gradients(lambda a: a.sigmoid(), [t((5,), rng)])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        out = x.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-10 and abs(out[1] - 0.5) < 1e-12 and out[2] > 1 - 1e-10

    def test_tanh(self, rng):
        check_gradients(lambda a: a.tanh(), [t((5,), rng)])

    def test_clip(self, rng):
        a = Tensor(rng.normal(size=8), requires_grad=True)
        check_gradients(lambda a: a.clip(-0.5, 0.5), [a])


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert np.allclose(x.grad, [4.0, 4.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # used twice through different paths
        z = y + x * 3
        z.backward(np.ones(1))
        assert np.allclose(x.grad, [2 * 2 + 3])

    def test_shared_subexpression(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2
        z = (y + y).sum()
        z.backward()
        assert np.allclose(x.grad, [4.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(1), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward(np.ones(1))
        assert np.allclose(x.grad, [1.0])

    def test_second_backward_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = (x * 2).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_new_loss_on_released_intermediate_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        hidden = x * 2
        hidden.sum().backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (hidden * 3).sum().backward()

    def test_held_intermediate_keeps_grad_and_drops_its_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        hidden = x * 3
        loss = (hidden * hidden).sum()
        loss.backward()
        assert np.array_equal(hidden.grad, 2 * hidden.data)
        assert np.array_equal(x.grad, 18 * x.data)
        assert hidden._parents == () and loss._parents == ()
        assert x._backward is None  # leaves stay usable

    def test_constant_branch_gets_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        (x * c).sum().backward()
        assert c.grad is None
