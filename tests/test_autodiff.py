import gc
import weakref

import numpy as np
import pytest

from emoforge import autodiff
from emoforge.autodiff import (
    AdamState,
    ParamLayout,
    Tensor,
    _wrap,
    adam_step,
    concat,
    constant,
    grad,
    log_softmax_rows,
    repeat_rows,
)
from gradcheck import finite_diff_check


def test_grad_quadratic():
    g = grad(lambda t: (t * t).sum(), np.array([3.0]))
    assert g[0] == pytest.approx(6.0)


def test_grad_constant_loss():
    g = grad(lambda t: Tensor(0.0) + t.sum() * 0.0, np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [0.0, 0.0])


def test_grad_rejects_non_tensor_result():
    with pytest.raises(TypeError, match="loss must return a Tensor"):
        grad(lambda t: float(t.data.sum()), np.array([1.0]))


def test_grad_rejects_non_scalar_loss():
    with pytest.raises(TypeError, match="^backward requires a scalar output$"):
        grad(lambda t: t * 2.0, np.array([1.0, 2.0]))


def test_grad_rejects_foreign_ops():
    with pytest.raises(TypeError, match="outside the tape"):
        grad(lambda t: np.sin(t), np.array([1.0]))


def test_finite_diff_quadratic_is_tight():
    err = finite_diff_check(lambda t: (t * t).sum(), np.array([1.0, -2.0, 0.5]), epsilon=1e-4)
    assert err < 1e-8


_MLP = ParamLayout({"w1": (3, 4), "b1": (1, 4), "w2": (4, 2)})


def _mlp_loss(t):
    # tanh MLP + log-softmax pipeline: exercises param blocks, matmul, broadcasting.
    w1, b1, w2 = _MLP.unpack(t).values()
    x = Tensor(np.array([[0.3, -0.7, 1.1], [0.9, 0.2, -0.4]]))
    h = (x @ w1 + b1).tanh() @ w2
    ls = log_softmax_rows(h)
    return -(ls * Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))).sum() * 0.5


def test_finite_diff_mlp_pipeline():
    rng = np.random.default_rng(5)
    err = finite_diff_check(_mlp_loss, rng.normal(0, 0.5, size=24), epsilon=1e-3)
    assert err < 1e-4


def test_every_primitive_against_finite_differences():
    rng = np.random.default_rng(9)
    as_2x3 = lambda t: ParamLayout({"x": (2, 3)}).unpack(t)["x"]

    cases = {
        "exp": lambda t: t.exp().sum(),
        "log": lambda t: (t * t + 1.0).log().sum(),
        "tanh": lambda t: t.tanh().sum(),
        "sigmoid": lambda t: t.sigmoid().sum(),
        "softplus": lambda t: t.softplus().sum(),
        "pow": lambda t: (t * t).sum(),
        "mean": lambda t: (t * t).mean(),
        "sub_broadcast": lambda t: (as_2x3(t) - as_2x3(t)[1:2].tanh()).exp().sum(),
        "sub_constant": lambda t: (t - np.linspace(-1.0, 1.0, 6)).tanh().sum(),
        "square_shared": lambda t: (lambda x: (x * x * x.exp()).sum())(t.tanh()),
        "slice": lambda t: (t[1:4] * t[0:3]).sum(),
        "concat": lambda t: concat([as_2x3(t), as_2x3(t) * 2.0]).sum(),
        "transpose": lambda t: (as_2x3(t).T @ as_2x3(t)).sum(),
        "clip_interior": lambda t: t.clip(-10.0, 10.0).sum(),
    }
    for name, fn in cases.items():
        err = finite_diff_check(fn, rng.normal(0, 0.8, size=6), epsilon=1e-4)
        assert err < 1e-4, name


def test_clip_blocks_gradient_outside_bounds():
    g = grad(lambda t: t.clip(-1.0, 1.0).sum(), np.array([-3.0, 0.5, 2.0]))
    np.testing.assert_allclose(g, [0.0, 1.0, 0.0])


def test_getitem_scatter_handles_repeated_indices():
    idx = np.array([0, 0, 2])
    g = grad(lambda t: t[idx].sum(), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(g, [2.0, 0.0, 1.0])


def test_constants_take_no_gradient():
    c = constant(np.array([3.0, 4.0]))
    s = _wrap(2.5)
    cs = c * s  # an op on constants only is itself a constant, with no closure
    assert cs.const and cs._backward is None
    g = grad(lambda x: ((x * c + s) * x + cs).sum(), np.array([1.0, -2.0]))
    assert c.grad is None and s.grad is None and cs.grad is None
    np.testing.assert_array_equal(g, [2 * 1.0 * 3.0 + 2.5, 2 * -2.0 * 4.0 + 2.5])


def test_repeat_rows_against_finite_differences():
    w = np.random.default_rng(3).normal(size=(6, 2))
    rows = ParamLayout({"x": (3, 2)})
    loss = lambda t: (repeat_rows(rows.unpack(t)["x"], [2, 0, 4]).tanh() * constant(w)).sum()
    err = finite_diff_check(loss, np.random.default_rng(8).normal(0, 0.8, size=6),
                            epsilon=1e-5)
    assert err < 1e-6


def test_repeat_rows_gradient_is_add_at_bit_for_bit():
    # each row's run of frame gradients is summed in frame order from +0.0,
    # as np.add.at does: runs of 1-20 frames, a zero count, a one-character
    # text with its padded row, and -0.0 gradients, alone or in a run
    rng = np.random.default_rng(21)
    cases = [rng.integers(1, 21, size=int(n)) for n in rng.integers(1, 60, size=30)]
    cases += [np.array([3, 0, 5, 0]), np.array([7, 0]), np.array([1, 0]), np.array([0, 0])]
    for counts in cases:
        n, frames = len(counts), int(counts.sum())
        w = rng.normal(size=(frames, 5)) * 10.0 ** rng.integers(-8, 9, size=(frames, 5))
        w[rng.random(w.shape) < 0.3] = -0.0
        if frames:
            w[-1] = -0.0
        want = np.zeros((n, 5))
        np.add.at(want, np.repeat(np.arange(n), counts), w)
        rows = ParamLayout({"x": (n, 5)})
        g = grad(lambda t: (repeat_rows(rows.unpack(t)["x"], counts) * constant(w)).sum(),
                 np.ones(n * 5))
        assert g.tobytes() == want.tobytes(), counts


def test_repeat_rows_forward_is_np_repeat():
    x = np.arange(8.0).reshape(4, 2)
    out = repeat_rows(constant(x), [1, 0, 3, 2])
    assert out.const and np.array_equal(out.data, np.repeat(x, [1, 0, 3, 2], axis=0))


class _Probe(Tensor):
    # a weakly referenceable node: an identity op on its parent
    __slots__ = ("__weakref__",)

    def __init__(self, parent):
        super().__init__(parent.data, (parent,), parent._accum)


def test_finished_grad_graph_is_freed_without_the_cycle_collector():
    probes = []

    def loss(t):
        probe = _Probe(t * 2.0)
        probes.append(weakref.ref(probe))
        return (probe * probe).sum()

    gc.collect()
    gc.disable()
    try:
        g = grad(loss, np.array([1.0, -3.0]))
        freed = probes[0]() is None
    finally:
        gc.enable()
    assert freed
    np.testing.assert_array_equal(g, [8.0, -24.0])


@pytest.mark.parametrize("op, error", [(np.sin, TypeError),
                                       (lambda t: 2.0 * t, TypeError),
                                       (lambda t: t @ t, ValueError)])
def test_tape_stack_is_empty_after_the_loss_raises(op, error):
    with pytest.raises(error, match="outside the tape" if error is TypeError else "2-D operands"):
        grad(lambda t: op(t * 2.0), np.ones(3))
    assert autodiff._TAPES == []


def test_nodes_built_outside_grad_are_not_recorded():
    x = Tensor(np.array([1.0, 2.0]))
    h = x * 3.0  # built with no grad running: a constant, on no tape
    assert autodiff._TAPES == []
    assert h.const and h._backward is None
    g = grad(lambda t: (t * h).sum(), np.array([5.0, 7.0]))
    np.testing.assert_array_equal(g, [3.0, 6.0])
    assert x.grad is None and h.grad is None
    # nothing stale accumulates between calls
    assert grad(lambda t: (t * h).sum(), np.array([5.0, 7.0])).tobytes() == g.tobytes()


def test_nested_grad_matches_unnested():
    inner_loss = lambda t: (t.tanh() * t).sum() + (t * t * t).sum()
    theta = np.array([0.3, -1.2, 2.0])
    want = grad(inner_loss, theta)
    seen = []

    def outer(t):
        h = (t * t).sum()
        seen.append(grad(inner_loss, theta))
        return h * 2.0

    g = grad(outer, theta)
    assert seen[0].tobytes() == want.tobytes()
    np.testing.assert_array_equal(g, 4.0 * theta)
    assert autodiff._TAPES == []


def test_finite_diff_through_param_blocks_and_basic_slices():
    layout = ParamLayout({"w": (3, 4), "b": (4,), "s": ()})
    x = constant(np.array([[0.3, -0.7, 1.1], [0.9, 0.2, -0.4]]))

    def loss(t):
        p = layout.unpack(t)
        h = (x @ p["w"] + p["b"]).tanh() * p["s"]
        h0, h1 = h[:, :2], h[:, 2:]
        swapped = concat([h1, h0])
        return (swapped * h).sum() + (h[1] * p["b"]).sum() + h[0, 3] * p["s"]

    err = finite_diff_check(loss, np.random.default_rng(4).normal(0, 0.7, size=17),
                            epsilon=1e-5)
    assert err < 1e-6


def test_log_softmax_matches_plain_formula():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 6)) * 30
    out = log_softmax_rows(Tensor(x)).data
    expected = x - x.max(axis=1, keepdims=True)
    expected = expected - np.log(np.exp(expected).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    new_p, state = adam_step(p, np.zeros(2), AdamState.zeros(2), lr=0.1)
    np.testing.assert_array_equal(new_p, p)
    new_p, _ = adam_step(new_p, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(new_p, p)


def test_adam_first_step_magnitude():
    # Bias correction makes the very first step ~= lr for unit gradient.
    new_p, _ = adam_step(np.array([0.0]), np.array([1.0]), AdamState.zeros(1), lr=0.1)
    assert new_p[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_is_deterministic():
    p = np.array([0.3, -0.7])
    g = np.array([0.11, 0.22])
    a1, s1 = adam_step(p, g, AdamState.zeros(2), lr=0.01)
    a2, s2 = adam_step(p, g, AdamState.zeros(2), lr=0.01)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(s1.m, s2.m)
    np.testing.assert_array_equal(s1.v, s2.v)


def test_param_layout_roundtrip():
    layout = ParamLayout({"w": (2, 3), "b": (3,), "t": ()})
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0, 9.0]), "t": 1.5}
    theta = layout.pack(arrays)
    assert theta.shape == (10,)
    back = layout.unpack(theta)
    np.testing.assert_array_equal(back["w"], arrays["w"])
    np.testing.assert_array_equal(back["b"], arrays["b"])
    assert float(back["t"]) == 1.5


def test_param_layout_size_does_not_wrap_past_int64():
    # an int64 product wraps: 40 * (2**61 + 34) came out as 1360, and a
    # checkpoint whose dims overflow then passed the θ-size check
    assert ParamLayout({"w": (2 ** 61 + 34, 40)}).size == 40 * (2 ** 61 + 34)


def test_param_layout_unpack_tensor_is_differentiable():
    layout = ParamLayout({"w": (2, 2), "b": (1, 2)})

    def loss(t):
        parts = layout.unpack(t)
        x = Tensor(np.array([[1.0, 2.0]]))
        return (x @ parts["w"] + parts["b"]).sum()

    err = finite_diff_check(loss, np.random.default_rng(0).normal(size=6))
    assert err < 1e-6
