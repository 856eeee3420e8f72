"""Leaky integrate-and-fire dynamics, surrogate derivatives, rate transform.

Discrete neuron update (subtraction reset, applied at the next step):

    u[t+1] = lambda * (u[t] - v_th * s[t]) + input[t+1]
    s[t+1] = step(u[t+1] - v_th)

Layers propagate within a time step (layer l sees layer l-1's spikes of the
same step), while the leak carries state across steps. Static images enter
as constant real-valued input currents at every step. Each function computes
in the float dtype of the arrays it is handed (a layer's, in a walk).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError


@dataclass
class NeuronConfig:
    """Neuron and simulation constants shared by all layers of a network.

    ``delta_t`` and ``tau`` only matter for the rate-representation trainer;
    spike-driven trainers use ``lam`` directly.
    """

    lam: float = 0.5
    v_th: float = 1.0
    T: int = 6
    a2: float = 0.25
    delta_t: float = 0.05
    tau: float = 1.0

    def __post_init__(self) -> None:
        # lam = 1 (no leak) is admitted so the pure-integration limit can be
        # exercised directly; experiment configs keep the strict bound.
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"leak lam must lie in (0, 1], got {self.lam}")
        if self.v_th <= 0.0:
            raise ValueError(f"threshold v_th must be positive, got {self.v_th}")
        if self.T < 1:
            raise ValueError(f"time steps T must be >= 1, got {self.T}")
        if self.a2 <= 0.0:
            raise ValueError(f"surrogate width a2 must be positive, got {self.a2}")

    @property
    def rate_bound(self) -> float:
        """Upper clamp of the rate transform, v_th / delta_t."""
        return self.v_th / self.delta_t


@dataclass
class LayerState:
    """Per-layer dynamic state: membrane potentials and spikes.

    Arrays are (rows, neurons), in the row layout of the layer's presynaptic
    rows: one row per sample for a dense layer, one per sample and output
    position for a conv layer, whose neurons are its channels. Between
    layers every carry is flat rows, one per sample. ``lif_step`` writes
    into the arrays, so a walk allocates them once, with the state.
    """

    u: np.ndarray
    s: np.ndarray

    @classmethod
    def zeros(cls, rows: int, n: int, dtype: np.dtype = np.float64) -> "LayerState":
        return cls(u=np.zeros((rows, n), dtype), s=np.zeros((rows, n), dtype))


def lif_step(
    state: LayerState, input_current: np.ndarray, cfg: NeuronConfig
) -> tuple[LayerState, np.ndarray]:
    """Advance membrane potentials one step and emit spikes.

    Writes the new potentials and spikes into ``state.u`` and ``state.s``, in
    the formula's order and so with its bytes (the spike array holds v_th * s
    on the way), and returns the state with its spike array. The arrays belong
    to whoever walks the layer: a caller that keeps a step's ``u`` or ``s``
    copies it before the next step.

    Raises:
        ValueError: if the input current contains non-finite values.
        ShapeError: if the input width disagrees with the state.
    """
    input_current = np.asarray(input_current, dtype=state.u.dtype)
    if input_current.shape != state.u.shape:
        raise ShapeError(
            f"input current shape {input_current.shape} does not match "
            f"state shape {state.u.shape}"
        )
    if not np.isfinite(input_current).all():
        raise ValueError("non-finite input current")
    u, s = state.u, state.s
    np.multiply(s, cfg.v_th, out=s)
    np.subtract(u, s, out=u)
    u *= cfg.lam
    u += input_current
    np.greater_equal(u, cfg.v_th, out=s)
    return state, s


def surrogate_derivative(u: np.ndarray, cfg: NeuronConfig) -> np.ndarray:
    """Sigmoid-shaped stand-in for the spike step's derivative.

    (1/a2) * exp((v_th-u)/a2) / (1 + exp((v_th-u)/a2))^2, evaluated in the
    overflow-safe symmetric form. Peaks at 1/(4*a2) for u = v_th and decays
    to 0 in both tails. Returns a new array of u's shape and float dtype
    (0-d for a 0-d u).
    """
    u = np.asarray(u, dtype=np.result_type(np.asarray(u), 1.0))  # a float u keeps its dtype
    # e = exp(-|u - v_th| / a2) underflows harmlessly to 0; no overflow possible.
    e = np.subtract(u, cfg.v_th, out=np.empty_like(u))  # out: a 0-d u gives a 0-d array
    np.abs(e, out=e)
    e /= -cfg.a2  # exactly -(e / a2): rounding is symmetric about zero
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=np.empty_like(e))
    np.square(d, out=d)
    d *= cfg.a2
    e /= d
    return e


def rate_forward_transform(
    z_prev: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, cfg: NeuronConfig
) -> np.ndarray:
    """Clamped linear map approximating one spiking layer in rate space.

    z = clamp((W z_prev + b) / tau, 0, v_th / delta_t), applied row-wise for
    a (batch, in) input, in the weights' dtype. Differentiable almost
    everywhere; the rate trainer backpropagates through the interior region.
    """
    z_prev = np.asarray(z_prev, dtype=weight.dtype)
    pre = z_prev @ weight.T
    if bias is not None:
        pre = pre + bias
    pre = pre / cfg.tau
    return np.clip(pre, 0.0, cfg.rate_bound)


def unfold_patches(feature_map: np.ndarray, kernel: int) -> np.ndarray:
    """Extract the stride-1 receptive-field patches of (B, C, H, W) maps as rows.

    Returns (B * oh * ow, kernel*kernel*C) with the batch axis outermost.
    Each row is one receptive field; lateral circuits treat rows as
    independent samples. The patches keep the maps' dtype.

    Raises:
        ShapeError: if the maps are not 4-D or the kernel does not fit them.
    """
    fm = np.asarray(feature_map)
    if fm.ndim != 4:
        raise ShapeError(f"expected (B,C,H,W) maps, got shape {fm.shape}")
    b, c, h, w = fm.shape
    if not 1 <= kernel <= min(h, w):
        raise ShapeError(f"kernel {kernel} does not fit a {h}x{w} map")
    oh, ow = conv_output_hw(h, w, kernel)
    sb, sc, sh, sw = fm.strides
    windows = np.lib.stride_tricks.as_strided(
        fm,
        shape=(b, oh, ow, c, kernel, kernel),
        strides=(sb, sh, sw, sc, sh, sw),
        writeable=False,
    )
    patches = windows.reshape(b * oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(patches)


def conv_output_hw(h: int, w: int, kernel: int) -> tuple[int, int]:
    return h - kernel + 1, w - kernel + 1


def pooled_flat_width(channels: int, in_hw: tuple[int, int], kernel: int, pool: int) -> int:
    """Width of a stride-1 conv block's flattened, pooled spike map: the
    fan-in of the dense layer above it."""
    oh, ow = conv_output_hw(*in_hw, kernel)
    return channels * (oh // pool) * (ow // pool)


def avg_pool(x: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping average pooling of channels-last (..., H, W, C) maps.

    Sums the size*size strided sub-grids, one per window offset, which is
    several times faster than a reshaped mean and exact on spike maps.
    """
    *lead, h, w, c = x.shape
    if h % size or w % size:
        raise ShapeError(f"pool size {size} does not divide {h}x{w}")
    total = np.zeros((*lead, h // size, w // size, c), x.dtype)
    for i in range(size):
        for j in range(size):
            total += x[..., i::size, j::size, :]
    total /= size * size
    return total


def avg_pool_backward(grad: np.ndarray, size: int) -> np.ndarray:
    """Adjoint of ``avg_pool``: spread each pooled gradient of channels-last (..., h, w, C)
    maps over its window, into a new (..., h*size, w*size, C) array: the first of
    each window's rows is filled, then copied whole into the rest."""
    *lead, h, w, c = grad.shape
    out = np.empty((*lead, h * size, w * size, c), grad.dtype)
    g = out.reshape(*lead, h, size, w * size * c)
    g[..., 0, :] = np.repeat(grad / (size * size), size, axis=-2).reshape(*lead, h, -1)
    g[..., 1:, :] = g[..., :1, :]
    return out.reshape(*lead, h * size, w * size, c)


@dataclass
class Layer:
    """One trainable connection: dense, or a stride-1 conv over patch rows.

    Dense: ``weight`` is (out, in). Conv: ``weight`` is
    (out_channels, kernel*kernel*in_channels) applied to unfolded patches,
    so its current and state have one row per patch (output position). A
    conv layer is the only owner of image geometry: it takes flat
    (B, in_channels*H*W) rows, views them as maps of ``in_hw`` to unfold,
    pools its spike rows as channels-last maps, and hands the layer above
    the pooled spikes flattened channel-major, one row per sample.
    ``name`` keys the layer in checkpoints and feedback matrices.
    """

    weight: np.ndarray
    bias: np.ndarray
    kind: str = "dense"  # "dense" | "conv"
    kernel: int = 0
    in_channels: int = 0
    in_hw: tuple[int, int] = (0, 0)
    pool: int = 1  # average-pool window applied to this layer's spikes
    name: str = ""

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        """Presynaptic width: dense fan-in, or patch length for conv."""
        return self.weight.shape[1]

    @property
    def out_hw(self) -> tuple[int, int]:
        if self.kind != "conv":
            raise ShapeError("out_hw only defined for conv layers")
        return conv_output_hw(*self.in_hw, self.kernel)


def dense_layer(out_dim: int, in_dim: int, rng: np.random.Generator) -> Layer:
    """Dense layer with Kaiming-uniform weights and zero bias."""
    from .linalg import kaiming_uniform_init

    w = kaiming_uniform_init(out_dim, in_dim, fan_in=in_dim, rng=rng)
    return Layer(weight=w, bias=np.zeros(out_dim))


def conv_layer(
    out_channels: int,
    in_channels: int,
    kernel: int,
    in_hw: tuple[int, int],
    rng: np.random.Generator,
    pool: int = 1,
) -> Layer:
    """Conv layer stored in patch form: weight (out_c, k*k*in_c), zero bias."""
    from .linalg import kaiming_uniform_init

    fan_in = kernel * kernel * in_channels
    w = kaiming_uniform_init(out_channels, fan_in, fan_in=fan_in, rng=rng)
    return Layer(
        weight=w,
        bias=np.zeros(out_channels),
        kind="conv",
        kernel=kernel,
        in_channels=in_channels,
        in_hw=in_hw,
        pool=pool,
    )
