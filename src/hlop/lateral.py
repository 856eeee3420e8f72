"""Lateral circuits: streaming Hebbian subspace extraction and trace projection.

Each projected layer hosts one circuit. The circuit holds two banks of
subspace neurons over the layer's presynaptic space:

* consolidated rows ``H`` — frozen; they project activity traces through the
  skew-symmetric loop  y = H x,  x_minus = -H^T y,  x_hat = x + x_minus,
  so weight updates vanish on directions used by earlier tasks;
* in-training rows ``H_new`` — updated by the two-stage Hebbian/anti-Hebbian
  rule  dH' = y' x^T + y' x_tilde^T  with the integrated return signal
  x_tilde from both banks, which drives ``H_new`` toward the principal
  subspace of the current input stream that is not already covered by ``H``.
  ``hebbian_update`` hands a batch's repeats back as ``learn``; both may run
  on another thread, as the paper's separate lateral population learns.

With no consolidated rows the rule reduces exactly to the Oja subspace form
dH = eta (y x^T - y y^T H); with them it is the same form with the projected
trace x_hat in the Hebbian term, dH' = eta (y' x_hat^T - y' y'^T H').

In spiking mode the subspace neuron outputs are burst-rate quantized before
the return path, emulating lateral neurons that communicate through short
high-frequency bursts. A circuit computes in its banks' float dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .linalg import ShapeError, kaiming_uniform_init

# Fresh-row init scale: small enough for stable Hebbian transients, large
# enough that rows reach unit norm (and mutual orthogonality) within one
# online epoch. Consolidated projections are unaffected by it either way.
INIT_SCALE = 0.5

# The burst quantizer's range and steps per sign: lateral outputs clamp to
# [-QUANT_SCALE, QUANT_SCALE] on a grid of QUANT_SCALE / QUANT_T_L.
QUANT_SCALE = 20.0
QUANT_T_L = 40


def quantize_subspace_output(y: np.ndarray) -> np.ndarray:
    """Quantize subspace-neuron output onto the T_l-level burst-rate grid.

    y_hat = scale * round(clamp(y, -scale, scale) / scale * T_l) / T_l, with
    scale ``QUANT_SCALE`` and T_l ``QUANT_T_L``, and ties rounded away from
    zero (np.round rounds them to even). Returns a new array in the formula's
    steps and order; a float ``y`` keeps its dtype, a 0-d one its shape.
    """
    z = np.clip(y, -QUANT_SCALE, QUANT_SCALE, out=np.empty_like(y))  # out: a 0-d y stays 0-d
    z /= QUANT_SCALE
    z *= QUANT_T_L
    sign = np.sign(z)
    np.floor(np.add(np.abs(z, out=z), 0.5, out=z), out=z)
    z *= sign
    z *= QUANT_SCALE
    z /= QUANT_T_L
    return z


@dataclass
class LateralSubspace:
    """Subspace-neuron bank for one layer: consolidated ``H`` plus ``H_new``.

    ``H`` has shape (k, n), ``H_new`` (k', n), where n is the presynaptic
    width of the host layer. Hebbian learning only ever touches ``H_new``;
    projection only ever reads ``H``. The Hebbian step size, momentum and
    repeats per batch are fixed constants of the rule, and the quantizer's
    range and steps constants of the module, not per-circuit state.
    """

    eta: ClassVar[float] = 0.01
    momentum: ClassVar[float] = 0.9
    K: ClassVar[int] = 5

    n: int
    H: np.ndarray = None  # type: ignore[assignment]
    H_new: np.ndarray = None  # type: ignore[assignment]
    velocity: np.ndarray = None  # type: ignore[assignment]
    mode: str = "linear"  # "linear" | "spiking"

    def __post_init__(self) -> None:
        if self.H is None:
            self.H = np.zeros((0, self.n))
        if self.H_new is None:
            self.H_new = np.zeros((0, self.n), self.H.dtype)
        if self.velocity is None:
            self.velocity = np.zeros_like(self.H_new)
        dtypes = [m.dtype for m in (self.H, self.H_new, self.velocity)]
        if len(set(dtypes)) > 1 or self.H.dtype.kind != "f":
            raise TypeError(f"H, H_new and velocity must share one float dtype, got {dtypes}")
        if self.mode not in ("linear", "spiking"):
            raise ValueError(f"unknown lateral mode {self.mode!r}")
        for name, m in (("H", self.H), ("H_new", self.H_new)):
            if m.shape[1] != self.n:
                raise ShapeError(f"{name} width {m.shape[1]} != presynaptic width {self.n}")
        if self.velocity.shape != self.H_new.shape:
            raise ShapeError(f"velocity {self.velocity.shape} != H_new {self.H_new.shape}")

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @property
    def k_new(self) -> int:
        return self.H_new.shape[0]

    def _out(self, y: np.ndarray) -> np.ndarray:
        return quantize_subspace_output(y) if self.mode == "spiking" else y

    def project_trace(self, x: np.ndarray) -> np.ndarray:
        """Project activity traces off the consolidated subspace.

        Accepts a single trace (n,) or a batch (rows, n) and returns
        x_hat = x - H^T (H x) row-wise (with the subspace-neuron output
        quantized first in spiking mode), in the circuit's dtype. With no
        consolidated rows this is the identity.
        """
        x = np.asarray(x, dtype=self.H.dtype)
        if x.shape[-1] != self.n:
            raise ShapeError(f"trace width {x.shape[-1]} != presynaptic width {self.n}")
        if self.k == 0:
            return x
        y = self._out(x @ self.H.T)
        return x - y @ self.H

    def hebbian_update(self, x_batch: np.ndarray) -> tuple[np.ndarray, Callable[[], None]]:
        """Return ``(x_hat, learn)`` for one batch: the host layer's update
        trace x_hat = ``project_trace(x_batch)`` (2-D), which reads only ``H``,
        and ``learn()``, which runs K two-stage Hebbian updates and writes only
        ``H_new`` and ``velocity``. Both may run on another thread: learns end
        in order, before ``consolidate``/``expand``; ``hebbian_update`` may run
        while an earlier ``learn`` is pending.

        The two-stage rule dH' = y' x^T + y' x_tilde^T is evaluated in its
        Oja form. The consolidated bank's part of the return, x + x_minus,
        is the projected trace x_hat, which does not depend on ``H_new``, so
        it is computed once per batch. Each repeat then needs only the
        in-training response y' = H' x and forms
        dH' = y' x_hat^T - (y' y'^T) H' (y' quantized in spiking mode),
        averages it over the batch rows, folds it into the momentum buffer,
        and applies it, in place, through one set of scratch arrays for its K
        repeats; every product and elementwise step keeps its operands' shapes
        and order, so the bytes are the out-of-place rule's.

        The constant-step rule is only stable while the per-update spectral
        step eta/(1-momentum) * lambda_max(input second moment) stays below
        roughly 6 (it diverges beyond that; the fixed point itself, an
        orthonormal basis of the dominant subspace, is scale invariant).
        So the update is always damped by cap / energy whenever the batch's
        mean squared row norm ``energy`` (an upper bound on lambda_max)
        exceeds the budget cap = 4 * (1-momentum) / eta, which keeps wide,
        high-activity layers such as conv patch spaces inside the stable
        region without touching the signal scale the burst quantizer sees.
        Below the cap the rule runs undamped. The constants and the gain are
        Python floats, which never widen the circuit's dtype.
        """
        x = np.atleast_2d(np.asarray(x_batch, dtype=self.H.dtype))
        if x.shape[1] != self.n:
            raise ShapeError(f"batch width {x.shape[1]} != presynaptic width {self.n}")
        x_hat = self.project_trace(x)
        rows = x.shape[0]
        energy = float(np.mean(np.sum(x * x, axis=1)))
        cap = 4.0 * (1.0 - self.momentum) / self.eta
        gain = cap / energy if energy > cap else 1.0
        def learn() -> None:
            h, v = self.H_new, self.velocity
            y, yy = np.empty((rows, self.k_new), h.dtype), np.empty((self.k_new,) * 2, h.dtype)
            delta, step = np.empty_like(h), np.empty_like(h)
            for _ in range(self.K):
                y_new = self._out(np.matmul(x, h.T, out=y))
                np.matmul(y_new.T, x_hat, out=delta)
                delta -= np.matmul(np.matmul(y_new.T, y_new, out=yy), h, out=step)
                delta *= gain
                delta /= rows
                v *= self.momentum
                v += delta
                h += np.multiply(v, self.eta, out=step)
        return x_hat, learn

    def expand(self, k_add: int, rng: np.random.Generator) -> None:
        """Grow the in-training bank by ``k_add`` small random rows.

        New rows are Kaiming-uniform scaled by ``INIT_SCALE`` (drawn in float64,
        then cast); the momentum buffer is reset to match the new shape.
        Projection is unaffected since it only reads consolidated rows. Both
        banks together hold at most n rows, so a larger ``k_add`` raises
        ``ValueError``.
        """
        if k_add < 0:
            raise ValueError(f"k_add must be >= 0, got {k_add}")
        if self.k + self.k_new + k_add > self.n:
            raise ValueError(
                f"cannot add {k_add} rows to {self.k} consolidated and {self.k_new} "
                f"in-training rows in a {self.n}-wide space"
            )
        if k_add == 0:
            return
        fresh = INIT_SCALE * kaiming_uniform_init(k_add, self.n, fan_in=self.n, rng=rng)
        self.H_new = np.vstack([self.H_new, fresh.astype(self.H.dtype)])
        self.velocity = np.zeros_like(self.H_new)

    def consolidate(self) -> None:
        """Freeze the in-training rows into the consolidated bank."""
        self.H = np.vstack([self.H, self.H_new])
        self.H_new = np.zeros((0, self.n), self.H.dtype)
        self.velocity = np.zeros_like(self.H_new)
