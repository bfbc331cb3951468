"""Tests for the autodiff tensor core: forward oracles, backward checks
against central differences, and the Adam schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newscap import tensor as T


def t64(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(t64(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_projector():
    p = t64([[1.0, 0.0], [0.0, 0.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(p, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(t64(a), t64(b)).data
    # independent brute-force oracle
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out, expect, atol=1e-6)


def test_matmul_shape_errors():
    with pytest.raises(ValueError):
        T.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
    with pytest.raises(ValueError):
        T.matmul(t64(np.ones(3)), t64(np.ones((3, 2))))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = T.softmax(t64([[0.0, 0.0, 0.0]]), axis=1)
    assert np.allclose(out.data, 1.0 / 3.0)


def test_softmax_shift_invariance():
    x = np.array([[1.3, 1.3 + 0.7, 1.3 + 1.4]])
    a = T.softmax(t64(x), axis=1).data
    b = T.softmax(t64([[0.0, 0.7, 1.4]]), axis=1).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_direct_formula():
    x = np.array([[1.0, 2.0, 3.0]])
    e = np.exp(x)
    assert np.allclose(T.softmax(t64(x), axis=1).data, e / e.sum(), atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_is_distribution(vals):
    out = T.softmax(t64([vals]), axis=1).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# activations


def test_activation_values():
    assert T.sigmoid(t64([[0.0]])).item() == 0.5
    assert T.tanh(t64([[0.0]])).item() == 0.0
    assert T.relu(t64([[-3.0]])).item() == 0.0
    assert T.relu(t64([[3.0]])).item() == 3.0


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row():
    g, b = t64(np.ones((1, 4))), t64(np.zeros((1, 4)))
    out = T.layer_norm(t64([[7.0, 7.0, 7.0, 7.0]]), g, b)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_unit_variance_row():
    g, b = t64(np.ones((1, 2))), t64(np.zeros((1, 2)))
    out = T.layer_norm(t64([[1.0, -1.0]]), g, b).data
    # variance is already 1; eps shrinks the output slightly
    expect = np.array([1.0, -1.0]) / math.sqrt(1.0 + 1e-5)
    assert np.allclose(out, expect, atol=1e-9)


def test_layer_norm_zero_gain_gives_bias():
    g = t64(np.zeros((1, 3)))
    b = t64(np.full((1, 3), 2.5))
    out = T.layer_norm(t64([[1.0, 5.0, 9.0]]), g, b)
    assert np.allclose(out.data, 2.5)


def test_layer_norm_empty_axis():
    with pytest.raises(ValueError):
        T.layer_norm(t64(np.zeros((2, 0))), t64(np.zeros((1, 0))),
                     t64(np.zeros((1, 0))))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_layer_norm_moments(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(4, 16))  # variance far above eps
    g, b = t64(np.ones((1, 16))), t64(np.zeros((1, 16)))
    out = T.layer_norm(t64(x), g, b).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# take / scatter_add / pooling / dropout


def test_take_rows():
    table = t64(np.arange(12.0).reshape(4, 3))
    assert np.array_equal(T.take(table, [0]).data, table.data[:1])
    assert np.array_equal(T.take(table, [2, 0, 1]).data,
                          table.data[[2, 0, 1]])
    assert np.array_equal(T.take(table, np.s_[1:3]).data, table.data[1:3])


def test_take_repeated_id_backward_accumulates():
    table = t64(np.zeros((3, 2)))
    out = T.take(table, [1, 1])
    T.backward(T.sum_all(out))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0]])


def test_scatter_add_equals_one_hot_matmul():
    rng = np.random.default_rng(5)
    ids = np.array([3, 0, 3, 5, 0, 3, 1])
    one_hot = np.eye(6)[ids]
    for dtype in (np.float32, np.float64):
        a = T.Tensor(rng.random((4, len(ids))).astype(dtype))
        out = T.scatter_add(a, np.s_[:, ids], (4, 6))
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, a.data @ one_hot.astype(dtype))


@pytest.mark.parametrize("op", ["take", "scatter_add"])
@pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "past-end"])
def test_index_out_of_range(op, bad):
    """Rows and columns both have 4 entries; numpy alone would wrap -1
    round to the last one."""
    for index, taken in (([0, bad, 2], (3, 4)), (np.s_[:, [0, bad]], (4, 2)),
                         (([0, 1], [2, bad]), (2,))):
        with pytest.raises(IndexError):
            if op == "take":
                T.take(t64(np.ones((4, 4))), index)
            else:
                T.scatter_add(t64(np.ones(taken)), index, (4, 4))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_take_scatter_add_adjoint(data):
    """<take(x, i), y> = <x, scatter_add(y, i, x.shape)> for row ids, column
    ids and (row, col) pairs, repeats included."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    r = np.asarray(data.draw(st.lists(st.integers(0, rows - 1), min_size=n,
                                      max_size=n)))
    c = np.asarray(data.draw(st.lists(st.integers(0, cols - 1), min_size=n,
                                      max_size=n)))
    index = data.draw(st.sampled_from([r, np.s_[:, c], (r, c)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    x = rng.normal(size=(rows, cols))
    y = rng.normal(size=x[index].shape)
    lhs = np.sum(T.take(t64(x), index).data * y)
    rhs = np.sum(x * T.scatter_add(t64(y), index, x.shape).data)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).sum() * np.abs(y).sum())


def test_avg_pool_rows():
    assert np.array_equal(T.avg_pool_rows(t64([[2.0, 4.0]])).data, [[2.0, 4.0]])
    assert np.array_equal(
        T.avg_pool_rows(t64([[1.0, 1.0], [3.0, 3.0]])).data, [[2.0, 2.0]])
    with pytest.raises(ValueError):
        T.avg_pool_rows(t64(np.zeros((0, 2))))


def test_avg_pool_rows_matches_column_mean_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    out = T.avg_pool_rows(t64(x)).data[0]
    for j in range(4):
        col = sum(x[i, j] for i in range(5)) / 5.0
        assert abs(out[j] - col) < 1e-7


def test_dropout_identity_cases():
    x = t64(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert T.dropout(x, 0.5, False, rng) is x
    assert T.dropout(x, 0.0, True, rng) is x


def test_dropout_scaling_and_reproducibility():
    x = t64(np.ones((20, 20)))
    a = T.dropout(x, 0.5, True, np.random.default_rng(3)).data
    b = T.dropout(x, 0.5, True, np.random.default_rng(3)).data
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {0.0, 2.0}


def test_dropout_bad_rate():
    with pytest.raises(ValueError):
        T.dropout(t64([[1.0]]), 1.0, True, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    w = t64(np.arange(6.0).reshape(2, 3))
    T.backward(T.sum_all(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_elementwise_square():
    w = t64([[1.0, 2.0]])
    T.backward(T.sum_all(w * w))
    assert np.array_equal(w.grad, [[2.0, 4.0]])


def test_backward_shared_subexpression():
    # f(x) = g(x) + g(x) must give exactly 2 * grad(g)
    x1 = t64([[0.3, -0.7]])
    g1 = T.tanh(x1)
    T.backward(T.sum_all(g1 + g1))
    x2 = t64([[0.3, -0.7]])
    T.backward(T.sum_all(T.tanh(x2)))
    assert np.allclose(x1.grad, 2.0 * x2.grad, atol=1e-15)


def test_shared_first_gradient_stays_correct():
    # x + x hands one array to x twice
    x = t64([[0.3, -0.7]])
    T.backward(T.sum_all(T.tanh(x + x)) + T.sum_all(x * 3.0))
    assert np.allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2) + 3.0,
                       atol=1e-15)
    # a + b hands s's gradient to both; a then takes another gradient, in
    # either order
    for first in (True, False):
        a, b = t64([[0.5, -1.0]]), t64([[0.25, 2.0]])
        s = a + b
        parts = [T.sum_all(T.tanh(s)), T.sum_all(a * a)]
        T.backward(parts[0] + parts[1] if first else parts[1] + parts[0])
        ds = 1.0 - np.tanh(a.data + b.data) ** 2
        assert np.allclose(b.grad, ds, atol=1e-15)
        assert np.allclose(a.grad, ds + 2.0 * a.data, atol=1e-15)
    # a take by row ids adds in place, never into an array another tensor
    # holds: w and u share the gradient of w + u
    for first in (True, False):
        w, u = t64(np.arange(6.0).reshape(3, 2) / 6.0), t64(np.ones((3, 2)))
        parts = [T.sum_all(T.tanh(w + u)),
                 T.sum_all(T.take(w, [2, 2, 0]) * 3.0)]
        T.backward(parts[0] + parts[1] if first else parts[1] + parts[0])
        ds = 1.0 - np.tanh(w.data + u.data) ** 2
        assert np.allclose(u.grad, ds, atol=1e-15)
        assert np.allclose(w.grad, ds + [[3.0, 3.0], [0.0, 0.0], [6.0, 6.0]],
                           atol=1e-15)


def test_first_gradient_stored_contiguous():
    x = t64(np.arange(6.0).reshape(2, 3))
    w = t64(np.arange(6.0).reshape(3, 2) + 1.0)
    T.backward(T.sum_all(T.transpose(x) * w))   # x's gradient is w.T, a view
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, w.data.T)


def test_constant_takes_no_gradient():
    c = T.Constant(np.ones((2, 3)))
    w = t64(np.arange(6.0).reshape(3, 2))
    T.backward(T.sum_all(T.matmul(c, w) * 2.0 + T.Constant(np.ones((2, 2)))))
    assert c.grad is None
    assert np.array_equal(w.grad, np.full((3, 2), 4.0))


def test_backward_from_a_given_gradient():
    x = t64([[0.3, -0.7]])
    y = T.tanh(x)
    T.backward(y, np.array([[2.0, -1.0]]))
    assert np.allclose(x.grad, [[2.0, -1.0]] * (1.0 - np.tanh(x.data) ** 2),
                       atol=1e-15)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        T.backward(t64([[1.0, 2.0]]))


def test_backward_drops_interior_gradients_and_keeps_leaf_ones():
    w = t64([[0.5, -1.0], [2.0, 0.25]])
    x = t64([[1.0, 3.0]])
    h = T.matmul(x, w)
    y = T.tanh(h)
    loss = T.sum_all(y * y)
    T.backward(loss)
    assert h.grad is None and y.grad is None and loss.grad is None
    dy = 2.0 * np.tanh(x.data @ w.data)
    dh = dy * (1.0 - np.tanh(x.data @ w.data) ** 2)
    assert np.allclose(w.grad, x.data.T @ dh, atol=1e-15)
    assert np.allclose(x.grad, dh @ w.data.T, atol=1e-15)
    # a leaf read by a later backward adds to the gradient it kept
    T.backward(T.sum_all(x * 2.0))
    assert np.allclose(x.grad, dh @ w.data.T + 2.0, atol=1e-15)


def test_unreachable_param_gets_zero_grad():
    params = {"used": t64([[1.0]]), "unused": t64([[1.0]])}
    T.backward(T.sum_all(params["used"] * 3.0))
    grads = T.collect_grads(params)
    assert np.array_equal(grads["unused"], [[0.0]])
    assert np.array_equal(grads["used"], [[3.0]])


@pytest.mark.parametrize("build", [
    lambda p: T.sum_all(T.softmax(p["w"], axis=1) * p["u"]),
    lambda p: T.sum_all(T.sigmoid(T.matmul(p["w"], T.transpose(p["u"])))),
    lambda p: T.sum_all(T.layer_norm(p["w"] * p["w"], p["g"], p["b"])),
    lambda p: T.sum_all(T.tanh(T.concat([p["w"], p["u"]], axis=0))),
    lambda p: T.sum_all(T.take(p["w"], np.s_[:, 1:3])
                        / (T.take(p["u"], np.s_[:, 1:3])
                           * T.take(p["g"], np.s_[:, 0:2]) + 2.0)),
    lambda p: T.sum_all(T.avg_pool_rows(p["w"]) * T.take(p["u"], np.s_[0:1])),
    lambda p: -T.sum_all(T.log_clamped(T.softmax(p["w"], axis=1))),
    # take: repeated row ids, and (row, col) pairs with a repeat
    lambda p: T.sum_all(T.tanh(T.take(p["w"], [1, 0, 1])) * p["g"]),
    lambda p: T.sum_all(T.sigmoid(T.take(p["u"], ([0, 1, 1, 0], [3, 0, 3, 2]))
                                  * T.take(p["w"], ([1, 1, 0, 0],
                                                    [0, 1, 2, 3])))),
    # scatter_add along columns and along rows
    lambda p: T.sum_all(T.scatter_add(p["w"], np.s_[:, [2, 0, 2, 1]], (2, 3))
                        * T.take(p["u"], np.s_[:, 1:4])),
    lambda p: T.sum_all(T.tanh(T.scatter_add(p["w"], [2, 2], (3, 4)))
                        * T.concat([p["u"], p["g"]], axis=0)),
    # stacked operand against a 2-D weight: the weight's gradient sums over
    # the leading axis
    lambda p: T.sum_all(T.tanh(T.matmul(T.reshape(p["w"], (2, 2, 2)),
                                        p["u"]))),
    lambda p: T.sum_all(T.sigmoid(T.matmul(
        T.reshape(p["w"], (2, 2, 2)),
        T.transpose(T.reshape(p["u"], (2, 2, 2)), (0, 2, 1))))),
    lambda p: T.sum_all(T.transpose(T.reshape(p["w"], (2, 2, 2)), (1, 2, 0))
                        * T.reshape(p["u"] * p["g"], (2, 2, 2))),
    # take by row ids into a tensor that also has a dense gradient
    lambda p: T.sum_all(T.take(p["w"], [1, 1, 0]) * p["g"])
    + T.sum_all(p["w"] * p["u"]),
    # lstm: 4 steps at hidden 2; u, g and b fill both weights and the bias
    lambda p: T.sum_all(T.lstm(
        T.reshape(p["w"], (4, 2)),
        T.reshape(T.concat([p["u"], p["g"], p["b"]], axis=0), (2, 8)),
        T.reshape(T.concat([p["b"], p["u"], p["g"]], axis=0) * 0.5, (2, 8)),
        T.reshape(T.concat([p["g"], p["b"]], axis=0), (1, 8)))
        * T.reshape(p["u"], (4, 2))),
])
def test_per_op_finite_differences(build):
    with T.precision("float64"):
        rng = np.random.default_rng(11)
        params = {
            "w": T.Tensor(rng.normal(size=(2, 4))),
            "u": T.Tensor(rng.normal(size=(2, 4))),
            "g": T.Tensor(rng.normal(size=(1, 4))),
            "b": T.Tensor(rng.normal(size=(1, 4))),
        }
        report = T.finite_diff_check(build, params, coords_per_param=8)
        assert report.passed, (report.worst_param, report.max_rel_err)


def _lstm_oracle(x, wx, wh, b):
    """A straight-line LSTM, one row at a time: gates i, f, g, o are the
    column blocks of x_t wx + h wh + b."""
    hd = wh.shape[0]
    h = np.zeros((1, hd), x.dtype)
    c = np.zeros((1, hd), x.dtype)
    rows = []
    for t in range(x.shape[0]):
        z = x[t:t + 1] @ wx + h @ wh + b
        i = 1.0 / (1.0 + np.exp(-z[:, :hd]))
        f = 1.0 / (1.0 + np.exp(-z[:, hd:2 * hd]))
        g = np.tanh(z[:, 2 * hd:3 * hd])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * hd:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        rows.append(h)
    return np.concatenate(rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,hd", [(1, 3), (7, 4), (40, 16)])
def test_lstm_matches_straight_line_oracle(dtype, n, hd):
    rng = np.random.default_rng(n)
    x, wx, wh = (rng.normal(0.0, 0.5, size=s).astype(dtype)
                 for s in ((n, hd), (hd, 4 * hd), (hd, 4 * hd)))
    b = rng.normal(0.0, 0.1, size=(1, 4 * hd)).astype(dtype)
    out = T.lstm(*(T.Tensor(a) for a in (x, wx, wh, b)))
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, _lstm_oracle(x, wx, wh, b))


def test_finite_diff_check_quadratic_tight():
    with T.precision("float64"):
        params = {"w": T.Tensor(np.array([[1.0, -2.0, 0.5]]))}
        report = T.finite_diff_check(
            lambda p: T.sum_all(p["w"] * p["w"]), params, coords_per_param=3)
        assert report.max_rel_err < 1e-9


def test_pick_gathers_and_scatters():
    x = t64(np.arange(6.0).reshape(2, 3))
    out = T.take(x, ([0, 1], [2, 0]))
    assert np.array_equal(out.data, [2.0, 3.0])
    T.backward(T.sum_all(out * t64([1.0, 10.0])))
    assert x.grad[0, 2] == 1.0 and x.grad[1, 0] == 10.0


def test_log_clamped_floor():
    out = T.log_clamped(t64([1e-20, 1.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] == math.log(1e-12)


# ---------------------------------------------------------------------------
# Adam + schedule


def test_adam_zero_gradient_no_update():
    p = {"w": t64([[1.0, 2.0]])}
    state = T.AdamState(base_lr=1e-3, warmup=10)
    T.adam_step(p, {"w": np.zeros((1, 2))}, state)
    assert np.array_equal(p["w"].data, [[1.0, 2.0]])


def test_adam_single_step_hand_computation():
    p = {"w": t64([[0.0]])}
    state = T.AdamState(base_lr=1e-3, warmup=4, eps=1e-8)
    T.adam_step(p, {"w": np.array([[1.0]])}, state)
    # hand evaluation: m=0.1, v=0.001; mhat=1, vhat=1 after bias correction
    lr = 1e-3 * math.sqrt(4) * min(1.0, 1 * 4 ** -1.5)
    expect = -lr * 1.0 / (1.0 + 1e-8)
    assert abs(p["w"].item() - expect) < 1e-12


def test_effective_lr_peaks_at_warmup():
    state = T.AdamState(base_lr=5e-4, warmup=4000)
    assert abs(T.effective_lr(state, step=4000) - 5e-4) < 1e-12
    assert T.effective_lr(state, step=2000) < 5e-4
    assert T.effective_lr(state, step=8000) < 5e-4
    assert T.effective_lr(state, step=0) == 0.0


def test_effective_lr_linear_then_inverse_sqrt():
    state = T.AdamState(base_lr=5e-4, warmup=100)
    # linear ramp below warmup
    assert abs(T.effective_lr(state, step=50) - 0.5 * 5e-4) < 1e-12
    # inverse sqrt after warmup
    assert abs(T.effective_lr(state, step=400) - 5e-4 / 2.0) < 1e-12


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_straight_line_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    # parameters that start at zero stay the size of the updates, so a
    # change in the update's rounding shows in them
    p = {"w": T.Tensor(np.zeros((3, 4), dtype)),
         "b": T.Tensor(np.zeros((1, 4), dtype))}
    state = T.AdamState(base_lr=2e-3, warmup=3)
    want = {k: t.data.copy() for k, t in p.items()}
    m = {k: np.zeros_like(v) for k, v in want.items()}
    v = {k: np.zeros_like(x) for k, x in want.items()}
    b1, b2, eps = state.beta1, state.beta2, state.eps
    for step in range(1, 6):
        grads = {k: (rng.normal(size=x.shape)
                     * 10.0 ** rng.uniform(-3, 1, size=x.shape)).astype(dtype)
                 for k, x in want.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        T.adam_step(p, grads, state)
        lr = T.effective_lr(state, step)
        for k in want:
            g = kept[k]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            mhat = m[k] / (1.0 - b1 ** step)
            vhat = v[k] / (1.0 - b2 ** step)
            want[k] = want[k] - lr * mhat / (np.sqrt(vhat) + eps)
            assert np.array_equal(grads[k], kept[k])  # read, not written
            assert p[k].data.dtype == np.dtype(dtype)
            assert np.array_equal(p[k].data, want[k]), (k, step)
            assert np.array_equal(state.m[k], m[k])
            assert np.array_equal(state.v[k], v[k])


def test_adam_shape_mismatch():
    p = {"w": t64([[1.0]])}
    with pytest.raises(ValueError):
        T.adam_step(p, {"w": np.zeros((2, 2))}, T.AdamState())


# ---------------------------------------------------------------------------
# modes


def test_precision_context():
    assert T.current_dtype() == np.float32
    with T.precision("float64"):
        assert T.current_dtype() == np.float64
        assert T.Tensor([1.0]).data.dtype == np.float64
    assert T.current_dtype() == np.float32


def test_no_grad_drops_tape():
    with T.no_grad():
        out = t64([[1.0]]) * t64([[2.0]])
    assert out._bw is None and out._parents == ()


def test_backward_unlinks_spent_tape():
    x = t64([[1.0, 2.0]])
    mid = T.tanh(x)
    T.backward(T.sum_all(mid * 2.0))
    assert mid._bw is None and mid._parents == ()
    assert np.allclose(x.grad, 2.0 * (1.0 - np.tanh([[1.0, 2.0]]) ** 2))
