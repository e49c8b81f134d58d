"""Central finite-difference oracle for gradient checks, and the scalar
reduction the tests' losses end in.

The oracle only ever calls forward passes, so it is independent of the
reverse-mode code it verifies.
"""

import numpy as np

from factrank.numerics import constant


def total(tape, x):
    """Sum of a 1- or 2-d tensor as a (1, 1) tensor, ones @ x @ ones: two
    records, and a third that broadcasts a 1-d ``x`` to one row."""
    x = tape.mul(constant(np.ones((1, 1))), x) if x.ndim == 1 else x
    return tape.matmul(tape.matmul(constant(np.ones((1, x.shape[0]))), x), constant(np.ones((x.shape[1], 1))))


def fd_grad(forward, x, eps=1e-5):
    """Central-difference gradient of a scalar ``forward()`` w.r.t. ``x``.

    ``x`` is perturbed in place and restored; ``forward`` must rebuild its
    tape from the current parameter values on every call.
    """
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        f_plus = forward()
        x[i] = orig - eps
        f_minus = forward()
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def rel_err(analytic, numeric):
    """Max absolute difference scaled by the numeric gradient's magnitude."""
    scale = max(float(np.max(np.abs(numeric))), 1e-10)
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_grads(forward, params, tol=1e-4, eps=1e-5):
    """Assert every parameter's tape gradient against the oracle.

    ``forward`` must return a freshly built scalar loss tensor whose tape
    is still differentiable. Returns the worst relative error seen.
    """
    loss = forward()
    loss.tape.backward(loss)
    worst = 0.0
    for name, p in params.items():
        numeric = fd_grad(lambda: forward().item(), p.values, eps)
        err = rel_err(p.grad, numeric)
        assert err <= tol, f"gradient mismatch for {name}: rel err {err:.3e} > {tol}"
        worst = max(worst, err)
        p.grad[...] = 0.0
    return worst
