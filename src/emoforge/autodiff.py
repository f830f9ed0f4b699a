"""Reverse-mode automatic differentiation on numpy arrays.

Every arithmetic op builds a `Tensor` node holding its value and a closure
that routes the output gradient back to its parents. While `grad` runs the
loss, each such node appends itself to that call's tape: creation order is a
topological order, so backward walks the tape in reverse, and `grad` drops
it on return. `adam_step` is the optimizer of every trainer in this package;
the tests check every gradient against central differences.

Constants (`constant()` leaves, wrapped raw values, ops on constants only
and every op built while no `grad` runs) are not recorded. No node refers to
a tape and no closure to its own output node, so a graph holds no reference
cycle and is freed by reference counting once its last node is dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


_TAPES = []  # the tape of each running `grad` call, innermost last


def _unbroadcast(g, shape):
    # Sum the gradient over axes that were added or broadcast in the forward op.
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """One node of the tape. Wraps a float64 array; never mutate `.data`.

    `const` marks a node that takes no gradient: a `constant()` leaf, a
    wrapped raw value, or an op on constants only or built while no `grad`
    runs. Such an op keeps no backward closure and is not recorded.
    """

    __slots__ = ("data", "grad", "const", "_backward")

    # Keep numpy from silently consuming Tensors in ufunc expressions; the
    # supported op set is exactly what the methods below define. No reflected
    # op is defined, so a Tensor stands left of every binary operator.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None, const=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.const = const
        self._backward = backward
        if _TAPES:
            for p in parents:
                if not p.const:
                    _TAPES[-1].append(self)
                    return
        if parents:
            self.const, self._backward = True, None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        def back(g):
            if not self.const:
                self._accum(_unbroadcast(g, self.data.shape))
            if not other.const:
                other._accum(_unbroadcast(g, other.data.shape))
        return Tensor(self.data + other.data, (self, other), back)

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: self._accum(-g))

    def __sub__(self, other):
        other = _wrap(other)
        def back(g):
            if not self.const:
                self._accum(_unbroadcast(g, self.data.shape))
            if not other.const:
                other._accum(-_unbroadcast(g, other.data.shape))
        return Tensor(self.data - other.data, (self, other), back)

    def __mul__(self, other):
        other = _wrap(other)
        def back(g):
            if other is self:  # x * x: g * x once, accumulated twice in turn
                gx = g * self.data
                self._accum(gx)
                self._accum(gx)
                return
            if not self.const:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if not other.const:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        return Tensor(self.data * other.data, (self, other), back)

    def __pow__(self, p):
        return Tensor(self.data ** p, (self,), lambda g: self._accum(g * p * self.data ** (p - 1)))

    def __matmul__(self, other):
        other = _wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise DataError("matmul expects 2-D operands")
        def back(g):
            if not self.const:
                self._accum(g @ other.data.T)
            if not other.const:
                other._accum(self.data.T @ g)
        return Tensor(self.data @ other.data, (self, other), back)

    # -- elementwise functions --------------------------------------------
    # exp, tanh and sigmoid differentiate through their output; the closures
    # capture the output array, never the output node, to stay cycle-free.

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, (self,), lambda g: self._accum(g * y))

    def log(self):
        return Tensor(np.log(self.data), (self,), lambda g: self._accum(g / self.data))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, (self,), lambda g: self._accum(g * (1.0 - y ** 2)))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor(y, (self,), lambda g: self._accum(g * y * (1.0 - y)))

    def softplus(self):
        return Tensor(np.logaddexp(0.0, self.data), (self,),
                      lambda g: self._accum(g / (1.0 + np.exp(-self.data))))

    def clip(self, lo, hi):
        # Gradient passes through inside [lo, hi], zero outside.
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor(np.clip(self.data, lo, hi), (self,), lambda g: self._accum(g * mask))

    # -- reductions, transpose and indexing ---------------------------------

    def sum(self, axis=None, keepdims=False):
        def back(g):
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, self.data.shape).copy())
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self):
        scale = 1.0 / self.data.size
        return Tensor(self.data.sum() * scale, (self,),
                      lambda g: self._accum(np.full(self.data.shape, g * scale)))

    @property
    def T(self):
        return Tensor(self.data.T, (self,), lambda g: self._accum(g.T))

    def __getitem__(self, idx):
        basic = _is_basic_index(idx)
        def back(g):
            full = np.zeros_like(self.data)
            if basic:
                full[idx] = g  # a basic index names each element at most once
            else:
                np.add.at(full, idx, g)  # scatter-add handles repeated indices
            self._accum(full)
        return Tensor(self.data[idx], (self,), back)

    def item(self):
        return float(self.data)


def _is_basic_index(idx):
    # Ints and slices (alone or in a tuple) select a view: no repeats.
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, slice)) for i in parts)


def _wrap(x):
    return x if isinstance(x, Tensor) else constant(x)


def constant(x):
    """A tape leaf that never receives a gradient (plain data)."""
    return Tensor(x, const=True)


def concat(tensors):
    """Join 2-D tensors' columns."""
    tensors = [_wrap(t) for t in tensors]
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    def back(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.const:
                t._accum(g[:, a:b])
    return Tensor(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), back)


def repeat_rows(t, counts):
    """np.repeat(t, counts, axis=0). Backward adds each row's run of gradients
    in order from +0.0, so it equals np.add.at's scatter bit for bit."""
    counts = np.asarray(counts, dtype=np.intp)
    def back(g):
        # the gradient of each row's k-th copy goes to slab k; the slabs add in turn
        rows = np.repeat(np.arange(len(counts)), counts)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        slabs = np.zeros((counts.max(initial=0), len(counts)) + g.shape[1:])
        slabs[rank, rows] = g
        t._accum(slabs.sum(axis=0, initial=0.0))  # from +0.0, as add.at's zeros start
    return Tensor(np.repeat(t.data, counts, axis=0), (t,), back)


def log_softmax_rows(t):
    """Numerically stable row-wise log-softmax of a 2-D Tensor.

    The row max is subtracted as a constant; the shift is gradient-neutral,
    so detaching it keeps the derivative exact.
    """
    shift = t - constant(t.data.max(axis=1, keepdims=True))
    return shift - shift.exp().sum(axis=1, keepdims=True).log()


def backward(out, tape):
    """Accumulate gradients of a scalar Tensor through `tape`, last node first."""
    if out.data.size != 1:
        raise TypeError("backward requires a scalar output")
    out.grad = np.ones_like(out.data)
    for node in reversed(tape):
        if node.grad is not None:
            node._backward(node.grad)


def grad(loss_fn, params, return_loss=False):
    """Gradient of a scalar loss with respect to a flat parameter vector.

    `loss_fn` receives the parameters as a Tensor and must build its result
    from Tensor operations only; anything else raises TypeError.
    With return_loss=True, returns (gradient, loss value) from the same
    forward pass.
    """
    theta = Tensor(np.asarray(params, dtype=np.float64))
    _TAPES.append(tape := [])
    try:
        out = loss_fn(theta)
    except TypeError as exc:
        raise TypeError("loss used an operation outside the tape: %s" % exc) from exc
    finally:
        _TAPES.pop()
    if not isinstance(out, Tensor):
        raise TypeError("loss must return a Tensor, got %r" % type(out).__name__)
    backward(out, tape)
    g = np.zeros_like(theta.data) if theta.grad is None else theta.grad
    if return_loss:
        return g, float(out.data)
    return g


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def zeros(cls, n):
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(params, grads, state, lr):
    """One Adam update. Pure: returns (new_params, new_state). Both trainers pass
    their float64 θ and its own gradient, so the two shapes match."""
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_p = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_p, AdamState(m=m, v=v, t=t)


class ParamLayout:
    """Maps named weight arrays into one flat vector and back.

    `unpack` works on both plain arrays and Tensors, so the same model code
    serves training (one differentiable node per block of the parameter
    Tensor) and inference (cheap ndarray views).
    """

    def __init__(self, shapes):
        self.shapes = dict(shapes)
        self.slices = {}
        offset = 0
        for name, shape in self.shapes.items():
            n = math.prod(shape)
            self.slices[name] = (offset, offset + n)
            offset += n
        self.size = offset

    def offset(self, name):
        return self.slices[name][0]

    def pack(self, arrays):
        theta = np.zeros(self.size)
        for name, shape in self.shapes.items():
            a, b = self.slices[name]
            theta[a:b] = np.asarray(arrays[name], dtype=np.float64).reshape(-1)
        return theta

    def unpack(self, theta):
        if isinstance(theta, Tensor):
            return {name: _param_block(theta, a, b, self.shapes[name])
                    for name, (a, b) in self.slices.items()}
        return {name: theta[a:b].reshape(self.shapes[name])
                for name, (a, b) in self.slices.items()}

    def init(self, seed_stream, unit=()):
        """Gaussian init, one named substream per block for cross-model
        stability: 1-D and scalar blocks start at zero, the embedding tables
        named in `unit` at std 1 and every other matrix at std 1/sqrt(fan-in)."""
        arrays = {}
        for name, shape in self.shapes.items():
            if len(shape) < 2:
                arrays[name] = np.zeros(shape)
            else:
                scale = 1.0 if name in unit else 1.0 / np.sqrt(shape[0])
                arrays[name] = seed_stream(name).normal(0.0, scale, size=shape)
        return self.pack(arrays)


def _param_block(theta, a, b, shape):
    """Block theta[a:b] viewed as `shape`; its backward adds straight into
    theta's flat gradient buffer, which the first block of a graph creates."""
    if not theta.const and theta.grad is None:
        theta.grad = np.zeros_like(theta.data)
    def back(g):
        theta.grad[a:b] += g.reshape(-1)
    return Tensor(theta.data[a:b].reshape(shape), (theta,), back)
