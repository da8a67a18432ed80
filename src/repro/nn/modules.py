"""Neural-network modules: parameters, linear layers, and MLPs."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import init
from .autograd import Tensor

__all__ = ["Parameter", "Module", "Linear", "MLP", "activation"]


class Parameter(Tensor):
    """A Tensor flagged as trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.requires_grad = True  # parameters train even if created under no_grad


class Module:
    """Minimal module container with named-parameter traversal."""

    def __init__(self):
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            # In-place copy: keeps the parameter's original memory layout
            # (orthogonal init yields F-contiguous weights for wide layers,
            # and BLAS results depend on layout) so a restored policy is
            # bit-identical to a live one, not just value-identical.
            np.copyto(param.data, value)

    def copy_from(self, other: "Module") -> None:
        self.load_state_dict(other.state_dict())

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with orthogonal init."""

    def __init__(self, in_features: int, out_features: int, gain: float = np.sqrt(2.0),
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.orthogonal((in_features, out_features), gain=gain, rng=rng))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


# Module-level (not lambdas) so modules stay picklable — the process-pool
# scheduler ships policies across worker boundaries.
def _tanh(t: Tensor) -> Tensor:
    return t.tanh()


def _relu(t: Tensor) -> Tensor:
    return t.relu()


def _sigmoid(t: Tensor) -> Tensor:
    return t.sigmoid()


def _identity(t: Tensor) -> Tensor:
    return t


_ACTIVATIONS = {
    "tanh": _tanh,
    "relu": _relu,
    "sigmoid": _sigmoid,
    "identity": _identity,
}


def _np_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _np_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# The numpy twin of each Tensor activation, computing exactly what the
# Tensor op computes on ``.data`` (see ``Tensor.tanh``/``relu``/``sigmoid``).
_NUMPY_ACTIVATIONS = {
    _tanh: np.tanh,
    _relu: _np_relu,
    _sigmoid: _np_sigmoid,
    _identity: _identity,
}


def _tanh_vjp(g: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    # g * (1.0 - out**2), computed in one temporary
    slope = out**2
    np.subtract(1.0, slope, out=slope)
    slope *= g
    return slope


def _relu_vjp(g: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * (z > 0)


def _sigmoid_vjp(g: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def _identity_vjp(g: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g


# The numpy twin of each Tensor activation's backward, given the upstream
# gradient, the pre-activation ``z`` and the activation output ``out``
# (see the ``backward`` closures of ``Tensor.tanh``/``relu``/``sigmoid``).
_NUMPY_ACTIVATION_VJPS = {
    _tanh: _tanh_vjp,
    _relu: _relu_vjp,
    _sigmoid: _sigmoid_vjp,
    _identity: _identity_vjp,
}


def activation(name: str):
    """Look up an activation by name; returns a callable Tensor -> Tensor."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; options: {sorted(_ACTIVATIONS)}")
    return _ACTIVATIONS[name]


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and output gain."""

    def __init__(self, in_features: int, hidden_sizes: tuple[int, ...], out_features: int,
                 hidden_activation: str = "tanh", output_gain: float = 0.01,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.activation = activation(hidden_activation)
        sizes = (in_features, *hidden_sizes)
        self.hidden: list[Linear] = []
        for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layer = Linear(n_in, n_out, rng=rng)
            setattr(self, f"layer{i}", layer)
            self.hidden.append(layer)
        self.output = Linear(sizes[-1], out_features, gain=output_gain, rng=rng)

    def forward(self, x) -> Tensor:
        h = x if isinstance(x, Tensor) else Tensor(x)
        for layer in self.hidden:
            h = self.activation(layer(h))
        return self.output(h)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Gradient-free forward in plain numpy.

        Runs the operations of :meth:`forward` in the same order on the
        parameter arrays, so ``infer(x)`` is bit-identical to
        ``forward(x).data`` while building no ``Tensor`` graph.
        """
        act = _NUMPY_ACTIVATIONS[self.activation]
        h = np.asarray(x, dtype=np.float64)
        for layer in self.hidden:
            h = act(h @ layer.weight.data + layer.bias.data)
        return h @ self.output.weight.data + self.output.bias.data

    def _infer_tape(self, x: np.ndarray):
        """:meth:`infer`, keeping each hidden layer's ``(weight, input, z, out)``."""
        act = _NUMPY_ACTIVATIONS[self.activation]
        h = np.asarray(x, dtype=np.float64)
        tape = []
        for layer in self.hidden:
            z = h @ layer.weight.data
            z += layer.bias.data  # the same add as infer's, into the matmul's array
            out = act(z)
            tape.append((layer.weight.data, h, z, out))
            h = out
        out = h @ self.output.weight.data
        out += self.output.bias.data
        return out, h, tape

    def infer_vjp(self, x: np.ndarray):
        """:meth:`infer` plus a vector-Jacobian product w.r.t. the input.

        Returns ``(out, vjp)``: ``out`` is ``infer(x)``, and ``vjp(g_out)``
        is the gradient w.r.t. ``x`` of ``sum(g_out * out)``.  ``vjp``
        runs the operations of ``forward(x)``'s autograd backward in the
        same order, so it equals the ``x.grad`` that backward leaves,
        bit for bit.  No ``Tensor`` is built and no ``.grad`` is touched.
        """
        act_vjp = _NUMPY_ACTIVATION_VJPS[self.activation]
        out, _, tape = self._infer_tape(x)
        out_weight = self.output.weight.data

        def vjp(g_out: np.ndarray) -> np.ndarray:
            # Autograd copies every accumulated gradient to C order.
            g = np.ascontiguousarray(g_out, dtype=np.float64) @ out_weight.T
            for weight, _, z, a in reversed(tape):
                g = act_vjp(g, z, a) @ weight.T
            return g

        return out, vjp

    def infer_param_vjp(self, x: np.ndarray):
        """:meth:`infer` plus a vector-Jacobian product w.r.t. the parameters.

        Returns ``(out, vjp)``: ``out`` is ``infer(x)`` for a batch ``x`` of
        shape (n, in_features), and ``vjp(g_out)`` is the list of gradients
        of ``sum(g_out * out)``, one per parameter in :meth:`parameters`
        order.  Each equals the ``.grad`` that ``forward(x)``'s autograd
        backward leaves, bit for bit: ``h.T @ g`` for a weight and
        ``g.sum(axis=(0,))`` for a bias, where ``g`` is the C-ordered
        gradient of the layer output.  The input gradient is not formed.
        """
        act_vjp = _NUMPY_ACTIVATION_VJPS[self.activation]
        out, last, tape = self._infer_tape(x)
        out_weight = self.output.weight.data

        def vjp(g_out: np.ndarray) -> list[np.ndarray]:
            g = np.ascontiguousarray(g_out, dtype=np.float64)
            grads = [g.sum(axis=(0,)), last.T @ g]
            g = g @ out_weight.T
            for i in range(len(tape) - 1, -1, -1):
                weight, h, z, a = tape[i]
                g = act_vjp(g, z, a)
                grads += [g.sum(axis=(0,)), h.T @ g]
                if i:
                    g = g @ weight.T
            grads.reverse()
            return grads

        return out, vjp
