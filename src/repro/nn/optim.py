"""First-order optimizers operating on Parameter lists."""

from __future__ import annotations

import numpy as np

from .modules import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Rescale gradients in place so their global l2 norm is at most ``max_norm``."""
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in parameters:
            p.grad = p.grad * scale
    return total


class Optimizer:
    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Saveable optimizer state; subclasses add their moment buffers."""
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.lr = float(state["lr"])

    def _check_buffers(self, buffers, name: str) -> list[np.ndarray]:
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"{name} has {len(buffers)} entries for {len(self.parameters)} parameters")
        out = []
        for buf, p in zip(buffers, self.parameters):
            buf = np.asarray(buf, dtype=np.float64)
            if buf.shape != p.data.shape:
                raise ValueError(f"{name} shape {buf.shape} vs parameter {p.data.shape}")
            # Match the parameter's memory layout (zeros_like preserves it):
            # ``p.data - lr * m_hat`` inherits the operands' layout, and BLAS
            # results depend on layout, so C-ordered restored buffers would
            # flip the parameter layout and break bit-identical resume.
            restored = np.zeros_like(p.data)
            np.copyto(restored, buf)
            out.append(restored)
        return out


class SGD(Optimizer):
    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data = p.data - self.lr * v

    def state_dict(self) -> dict:
        return {**super().state_dict(), "momentum": self.momentum,
                "velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.momentum = float(state["momentum"])
        self._velocity = self._check_buffers(state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015).

    The moments live in two flat buffers (``_m``/``_v`` are C-ordered
    views into them, one per parameter), so a step over parameters that
    all have gradients runs one set of elementwise ops.  Each parameter is
    updated in place and keeps its memory layout; the values are those of
    the per-parameter update, bit for bit.
    """

    def __init__(self, parameters, lr: float = 3e-4, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        size = sum(p.data.size for p in self.parameters)
        self._m_flat = np.zeros(size)
        self._v_flat = np.zeros(size)
        self._m = self._views(self._m_flat)
        self._v = self._views(self._v_flat)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        views, offset = [], 0
        for p in self.parameters:
            views.append(flat[offset:offset + p.data.size].reshape(p.data.shape))
            offset += p.data.size
        return views

    def state_dict(self) -> dict:
        return {**super().state_dict(), "betas": [self.beta1, self.beta2],
                "eps": self.eps, "step": self._step,
                "m": [m.copy() for m in self._m], "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self._step = int(state["step"])
        for views, name in ((self._m, "m"), (self._v, "v")):
            for view, buf in zip(views, self._check_buffers(state[name], name)):
                np.copyto(view, buf)

    def _delta(self, grad, m, v, correction1: float, correction2: float):
        """Advance the moments ``m``/``v`` in place; return the step to subtract."""
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        grad_sq = grad**2
        grad_sq *= 1.0 - self.beta2
        v += grad_sq
        # lr * m_hat / (sqrt(v_hat) + eps), computed in two temporaries
        step = m / correction1
        step *= self.lr
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        return step

    def step(self) -> None:
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        grads = [p.grad for p in self.parameters]
        if any(g is None for g in grads):
            # Parameters without a gradient keep their moments untouched.
            for p, g, m, v in zip(self.parameters, grads, self._m, self._v):
                if g is not None:
                    p.data -= self._delta(g, m, v, correction1, correction2)
            return
        flat_grad = np.concatenate([g.ravel() for g in grads])
        delta = self._delta(flat_grad, self._m_flat, self._v_flat, correction1, correction2)
        for p, d in zip(self.parameters, self._views(delta)):
            p.data -= d
