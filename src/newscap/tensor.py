"""Dense float tensors with reverse-mode autodiff, Adam, and a gradient checker.

Deliberately minimal: 2-D matrices (plus scalars) cover nearly everything
the captioning model needs; matmul, transpose and reshape also take stacked
matrices, so attention runs its heads along a leading axis. Every index
operation is one of a single adjoint pair: take gathers (slices, embedding
rows, per-row targets) and scatter_add adds back (the copy distributions,
per-mention sums). The position LSTM is one op, lstm, with hand-written
backpropagation through time. Ops record backward closures onto the tensors
they produce; backward() runs the chain rule over a topological sort. An op
computes no gradient for a Constant operand.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

_DTYPE = np.float32
_GRAD_ENABLED = True
_DIAG = None


@contextlib.contextmanager
def diagnostics():
    """Record conditioning stats (relu kink margin, layer-norm input variance)
    over the ops run inside the block. Finite differences are meaningless at a
    relu kink or an eps-dominated layer norm; callers use this to reject such
    evaluation points."""
    global _DIAG
    prev = _DIAG
    _DIAG = {"relu_margin": math.inf, "ln_min_var": math.inf}
    try:
        yield _DIAG
    finally:
        _DIAG = prev


def current_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (decoding, finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev



def _register(out, bw):
    """Attach a backward closure only while the tape is active."""
    if _GRAD_ENABLED:
        out._bw = bw


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bw", "_rows_grad")
    requires_grad = True

    def __init__(self, data, _parents=(), _bw=None):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data
        else:
            arr = np.asarray(data, dtype=_DTYPE)
        self.data = arr
        self.grad = None
        if _GRAD_ENABLED:
            self._parents = _parents
            self._bw = _bw
        else:
            self._parents = ()
            self._bw = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(-1)[0])

    def _accum(self, g):
        """Add g to the gradient. The first g is kept as it is, unless it is
        not C-contiguous: a strided view would round later products
        differently. Later ones add out of place, since an op may hand one
        array to two operands (add gives out.grad to both)."""
        if self.grad is None:
            self.grad = g if g.flags.c_contiguous else np.ascontiguousarray(g)
        else:
            self.grad = self.grad + g

    def _accum_rows(self, ids, rows):
        """Add rows at the unique row ids, in place, into a gradient that
        this path allocated: zeros on the first call, a copy when _accum set
        the gradient, since its first array may be shared."""
        if self.grad is None:
            self._rows_grad = self.grad = np.zeros_like(self.data)
        elif getattr(self, "_rows_grad", None) is not self.grad:
            self._rows_grad = self.grad = self.grad.copy()
        self.grad[ids] += rows

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __neg__(self):
        return mul(self, _wrap(-1.0, self))


class Constant(Tensor):
    """A tensor that takes no gradient (a scalar, a mask penalty, a zero
    placeholder, an input): ops skip the backward of such an operand."""
    __slots__ = ()
    requires_grad = False


def _wrap(x, like):
    if isinstance(x, Tensor):
        return x
    return Constant(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a, b):
    out = Tensor(a.data + b.data, (a, b))

    def bw():
        if a.requires_grad:
            a._accum(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(out.grad, b.data.shape))

    _register(out, bw)
    return out


def sub(a, b):
    out = Tensor(a.data - b.data, (a, b))

    def bw():
        if a.requires_grad:
            a._accum(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-out.grad, b.data.shape))

    _register(out, bw)
    return out


def mul(a, b):
    out = Tensor(a.data * b.data, (a, b))

    def bw():
        if a.requires_grad:
            a._accum(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(out.grad * a.data, b.data.shape))

    _register(out, bw)
    return out


def div(a, b):
    out = Tensor(a.data / b.data, (a, b))

    def bw():
        if a.requires_grad:
            a._accum(_unbroadcast(out.grad / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-out.grad * a.data / (b.data * b.data),
                                  b.data.shape))

    _register(out, bw)
    return out


def matmul(a, b):
    """Product over the last two axes; leading axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects operands of at least 2 axes")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, (a, b))

    def bw():
        if a.requires_grad:
            a._accum(_unbroadcast(out.grad @ np.swapaxes(b.data, -1, -2),
                                  a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ out.grad,
                                  b.data.shape))

    _register(out, bw)
    return out


def transpose(a, axes=None):
    """Permute the axes as np.transpose does (reverse them by default)."""
    out = Tensor(np.transpose(a.data, axes), (a,))

    def bw():
        a._accum(np.transpose(out.grad,
                              None if axes is None else np.argsort(axes)))

    _register(out, bw)
    return out


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), (a,))

    def bw():
        a._accum(out.grad.reshape(a.data.shape))

    _register(out, bw)
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def bw():
        start = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(start, start + size)
            t._accum(out.grad[tuple(sl)])
            start += size

    _register(out, bw)
    return out


def sum_all(a):
    out = Tensor(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,))

    def bw():
        a._accum(np.full_like(a.data, out.grad))

    _register(out, bw)
    return out


def softmax(x, axis=-1):
    """Numerically stable softmax; rows sum to 1 along `axis`."""
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.add.reduce(e, axis=axis, keepdims=True)
    out = Tensor(s, (x,))

    def bw():
        dot = np.add.reduce(out.grad * s, axis=axis, keepdims=True)
        x._accum(s * (out.grad - dot))

    _register(out, bw)
    return out


def sigmoid(x):
    # saturated inputs overflow exp but land on exact 0/1, which is fine
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y, (x,))

    def bw():
        x._accum(out.grad * y * (1.0 - y))

    _register(out, bw)
    return out


def tanh(x):
    y = np.tanh(x.data)
    out = Tensor(y, (x,))

    def bw():
        x._accum(out.grad * (1.0 - y * y))

    _register(out, bw)
    return out


def relu(x):
    if _DIAG is not None and x.data.size:
        _DIAG["relu_margin"] = min(_DIAG["relu_margin"],
                                   float(np.abs(x.data).min()))
    out = Tensor(np.maximum(x.data, 0.0), (x,))

    def bw():
        x._accum(out.grad * (x.data > 0))

    _register(out, bw)
    return out


def _mean_last(a):
    """a.mean(axis=-1, keepdims=True), rounded the same way."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.data.shape[-1]
    if h == 0:
        raise ValueError("layer_norm over empty feature axis")
    # the mean and variance as np.mean and np.var round them, without
    # their Python-level wrappers
    mu = _mean_last(x.data)
    centered = x.data - mu
    var = _mean_last(centered * centered)
    if _DIAG is not None and var.size:
        _DIAG["ln_min_var"] = min(_DIAG["ln_min_var"], float(var.min()))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(gain.data * xhat + bias.data, (x, gain, bias))

    def bw():
        g = out.grad
        dxhat = g * gain.data
        m1 = _mean_last(dxhat)
        m2 = _mean_last(dxhat * xhat)
        x._accum((dxhat - m1 - xhat * m2) * inv)
        gain._accum(_unbroadcast(g * xhat, gain.data.shape))
        bias._accum(_unbroadcast(g, bias.data.shape))

    _register(out, bw)
    return out


def _checked(index, shape):
    """The index with its integer ids as int64 arrays, each checked against
    the axis it indexes: numpy would wrap a negative id round, not raise."""
    parts = index if isinstance(index, tuple) else (index,)
    out = []
    for n, part in zip(shape, parts):
        if not isinstance(part, slice):
            part = np.asarray(part, dtype=np.int64)
            if part.size and (part.min() < 0 or part.max() >= n):
                raise IndexError(f"index out of range for an axis of {n}")
        out.append(part)
    return tuple(out) if isinstance(index, tuple) else out[0]


def take(a, index):
    """Gather a.data[index]; index is any numpy index of slices and integer
    ids, or a tuple of them, one per leading axis. An array of row ids of
    any shape gathers rows."""
    index = _checked(index, a.data.shape)
    out = Tensor(a.data[index], (a,))

    def bw():
        if isinstance(index, np.ndarray):
            # row ids: sum the picked rows per id, in index order, and add
            # only those rows
            ids, at = np.unique(index, return_inverse=True)
            rows = np.zeros((len(ids),) + a.data.shape[1:], out.grad.dtype)
            np.add.at(rows, at.reshape(-1),
                      out.grad.reshape((-1,) + a.data.shape[1:]))
            a._accum_rows(ids, rows)
            return
        g = np.zeros_like(a.data)
        np.add.at(g, index, out.grad)
        a._accum(g)

    _register(out, bw)
    return out


def scatter_add(a, index, shape):
    """The adjoint of take: add a into zeros(shape) at index. Accumulates in
    a's dtype, in index order, so scattering columns into a vocabulary
    rounds as a matmul with their one-hot matrix does."""
    index = _checked(index, shape)
    data = np.zeros(shape, dtype=a.data.dtype)
    np.add.at(data, index, a.data)
    out = Tensor(data, (a,))

    def bw():
        a._accum(out.grad[index])

    _register(out, bw)
    return out


def avg_pool_rows(x, axis=0):
    """The mean over one axis, kept with extent 1 (rounded as np.mean)."""
    n = x.data.shape[axis]
    if n == 0:
        raise ValueError("avg_pool_rows on empty input")
    out = Tensor(np.add.reduce(x.data, axis=axis, keepdims=True) / n, (x,))

    def bw():
        x._accum(np.repeat(out.grad, n, axis=axis) / n)

    _register(out, bw)
    return out


def dropout(x, rate, training, rng):
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    scale = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * scale, (x,))

    def bw():
        x._accum(out.grad * keep * scale)

    _register(out, bw)
    return out


def log_clamped(x, floor=1e-12):
    clamped = np.maximum(x.data, floor)
    out = Tensor(np.log(clamped), (x,))

    def bw():
        x._accum(out.grad * (x.data > floor) / clamped)

    _register(out, bw)
    return out


def lstm(x, wx, wh, b):
    """An LSTM over the rows of x [L x H] from a zero state; returns its
    hidden states [L x H]. The gates are the column blocks (i, f, g, o) of
    x_t wx + h_{t-1} wh + b. The forward steps one row at a time; the
    backward is backpropagation through time into one gates-gradient array,
    then one product per weight."""
    n, hd = x.data.shape[0], wh.data.shape[0]
    dtype = x.data.dtype
    acts = np.empty((n, 4 * hd), dtype)     # i, f, g, o after activation
    cs = np.empty((n, hd), dtype)
    hs = np.empty((n, hd), dtype)
    h = np.zeros((1, hd), dtype)
    c = np.zeros((1, hd), dtype)
    # saturated gates overflow exp but land on exact 0/1, which is fine
    with np.errstate(over="ignore"):
        for t in range(n):
            z = x.data[t:t + 1] @ wx.data + h @ wh.data + b.data
            i = 1.0 / (1.0 + np.exp(-z[:, :hd]))
            f = 1.0 / (1.0 + np.exp(-z[:, hd:2 * hd]))
            g = np.tanh(z[:, 2 * hd:3 * hd])
            o = 1.0 / (1.0 + np.exp(-z[:, 3 * hd:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            acts[t:t + 1] = np.concatenate([i, f, g, o], axis=1)
            cs[t:t + 1] = c
            hs[t:t + 1] = h
    out = Tensor(hs, (x, wx, wh, b))

    def bw():
        i, f, g, o = (acts[:, k * hd:(k + 1) * hd] for k in range(4))
        tc = np.tanh(cs)
        zero = np.zeros((1, hd), dtype)
        h_prev = np.concatenate([zero, hs[:-1]])
        c_prev = np.concatenate([zero, cs[:-1]])
        # per row: dc/dz for the i, f and g pre-activations z, dh/dz for
        # the o pre-activation, and dh/dc
        k_c = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                        i * (1.0 - g * g)], axis=1)
        k_h = tc * o * (1.0 - o)
        k_hc = o * (1.0 - tc * tc)
        wh_t = wh.data.T
        dgates = np.empty((n, 4 * hd), dtype)
        d4 = dgates.reshape(n, 4, hd)
        dh_next = np.zeros(hd, dtype)
        dc_next = np.zeros(hd, dtype)
        for t in range(n - 1, -1, -1):
            dh = out.grad[t] + dh_next
            dc = dh * k_hc[t] + dc_next
            np.multiply(dc, k_c[t], out=d4[t, :3])
            np.multiply(dh, k_h[t], out=d4[t, 3])
            dc_next = dc * f[t]
            dh_next = dgates[t] @ wh_t
        x._accum(dgates @ wx.data.T)
        wx._accum(x.data.T @ dgates)
        wh._accum(h_prev.T @ dgates)
        b._accum(dgates.sum(axis=0, keepdims=True))

    _register(out, bw)
    return out


def backward(root, grad=None):
    """Populate .grad for every leaf reachable from `root`: a scalar loss,
    or any tensor whose upstream gradient is given as `grad`. The tape is
    spent as it runs: interior tensors lose their gradients and their links
    to their operands."""
    if grad is None:
        if root.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        grad = np.ones_like(root.data)
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = grad
    while topo:
        # popping a node drops the list's reference, so its forward arrays
        # go as soon as the nodes that read them are spent
        node = topo.pop()
        if node._bw is not None:
            node._bw()
            # an interior node has passed its gradient on; leaves (the
            # parameters, a position table read as a leaf) keep theirs
            node.grad = None
        # a closure refers to its own output; unlinking the spent tape lets
        # reference counting free it instead of the cycle collector, whose
        # schedule would set the training peak memory
        node._bw = None
        node._parents = ()


def collect_grads(params):
    """Gradient map for a named parameter dict; unreachable params get zeros."""
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def zero_grads(params):
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# Adam with inverse-square-root warmup schedule


@dataclass
class AdamState:
    base_lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup: int = 4000
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def effective_lr(state, step=None):
    """base_lr * sqrt(warmup) * min(step^-0.5, step * warmup^-1.5); peaks at base_lr."""
    s = state.step if step is None else step
    if s <= 0:
        return 0.0
    w = state.warmup
    return state.base_lr * math.sqrt(w) * min(s ** -0.5, s * w ** -1.5)


def adam_step(params, grads, state):
    state.step += 1
    lr = effective_lr(state)
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        # in place, in the rounding order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        #   p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)
        # with one scratch buffer holding the step's two temporaries
        s, d = np.empty((2,) + p.data.shape, p.data.dtype)
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += state.eps
        np.divide(m, bc1, out=s)
        s *= lr
        s /= d
        p.data -= s


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    per_param: dict
    tol: float

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def finite_diff_check(fn, params, eps=1e-4, tol=1e-6, coords_per_param=6, rng=None):
    """Compare tape gradients of fn(params) against central differences.

    fn must be deterministic (dropout off, fixed inputs); run under
    precision('float64') for meaningful tolerances.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    zero_grads(params)
    loss = fn(params)
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("non-finite loss in finite_diff_check")
    backward(loss)
    grads = collect_grads(params)
    zero_grads(params)

    per_param = {}
    worst = ("", 0.0)
    n_checked = 0
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            n = flat.size
            idx = rng.choice(n, size=min(coords_per_param, n), replace=False)
            err = 0.0
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                hi = fn(params).item()
                flat[i] = orig - eps
                lo = fn(params).item()
                flat[i] = orig
                fd = (hi - lo) / (2.0 * eps)
                g = grads[name].reshape(-1)[i]
                rel = abs(fd - g) / max(abs(fd), abs(g), 1.0)
                err = max(err, rel)
                n_checked += 1
            per_param[name] = err
            if err > worst[1]:
                worst = (name, err)
    return GradCheckReport(
        max_rel_err=worst[1],
        worst_param=worst[0],
        n_checked=n_checked,
        per_param=per_param,
        tol=tol,
    )
