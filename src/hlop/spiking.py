"""Leaky integrate-and-fire dynamics, surrogate derivatives, rate coding.

Discrete neuron update (subtraction reset, applied at the next step):

    u[t+1] = lambda * (u[t] - v_th * s[t]) + input[t+1]
    s[t+1] = step(u[t+1] - v_th)

Layers propagate within a time step (layer l sees layer l-1's spikes of the
same step), while the leak carries state across steps. Static images enter
as constant real-valued input currents at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError


@dataclass
class NeuronConfig:
    """Neuron and simulation constants shared by all layers of a network.

    ``delta_t`` and ``tau`` only matter for the rate-representation trainer;
    spike-driven trainers use ``lam`` directly. ``dsr_defaults`` wires the
    fixed rate-mode constants (T=20, v_th=0.3, tau=1.0, delta_t=0.05,
    lam=exp(-delta_t/tau)).
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

    @classmethod
    def dsr_defaults(cls, T: int = 20) -> "NeuronConfig":
        delta_t, tau = 0.05, 1.0
        return cls(
            lam=float(np.exp(-delta_t / tau)),
            v_th=0.3,
            T=T,
            a2=0.25,
            delta_t=delta_t,
            tau=tau,
        )

    @property
    def rate_bound(self) -> float:
        """Upper clamp of the rate transform, v_th / delta_t."""
        return self.v_th / self.delta_t


@dataclass
class LayerState:
    """Per-layer dynamic state: membrane potentials and spikes.

    Arrays are (batch, neurons).
    """

    u: np.ndarray
    s: np.ndarray

    @classmethod
    def zeros(cls, batch: int, n: int) -> "LayerState":
        return cls(u=np.zeros((batch, n)), s=np.zeros((batch, n)))

    @classmethod
    def zeros_shape(cls, shape: tuple[int, ...]) -> "LayerState":
        """Zero state of an arbitrary population shape (conv maps are 4-D)."""
        return cls(u=np.zeros(shape), s=np.zeros(shape))


def lif_step(
    state: LayerState, input_current: np.ndarray, cfg: NeuronConfig
) -> tuple[LayerState, np.ndarray]:
    """Advance membrane potentials one step and emit spikes.

    Mutates ``state`` in place and also returns it with the new spike array.

    Raises:
        ValueError: if the input current contains non-finite values.
        ShapeError: if the input width disagrees with the state.
    """
    input_current = np.asarray(input_current, dtype=np.float64)
    if input_current.shape != state.u.shape:
        raise ShapeError(
            f"input current shape {input_current.shape} does not match "
            f"state shape {state.u.shape}"
        )
    if not np.all(np.isfinite(input_current)):
        raise ValueError("non-finite input current")
    u_next = cfg.lam * (state.u - cfg.v_th * state.s) + input_current
    s_next = (u_next >= cfg.v_th).astype(np.float64)
    state.u = u_next
    state.s = s_next
    return state, s_next


def surrogate_derivative(u: np.ndarray, cfg: NeuronConfig) -> np.ndarray:
    """Sigmoid-shaped stand-in for the spike step's derivative.

    (1/a2) * exp((v_th-u)/a2) / (1 + exp((v_th-u)/a2))^2, evaluated in the
    overflow-safe symmetric form. Peaks at 1/(4*a2) for u = v_th and decays
    to 0 in both tails.
    """
    z = np.abs(np.asarray(u, dtype=np.float64) - cfg.v_th) / cfg.a2
    # exp(-z) underflows harmlessly to 0 for large z; no overflow possible.
    e = np.exp(-z)
    return e / (cfg.a2 * (1.0 + e) ** 2)


def rate_representation(spike_train: np.ndarray, cfg: NeuronConfig) -> np.ndarray:
    """Leak-weighted firing rate of a spike train.

    a[T] = v_th * sum_t lam^(T-t) s[t] / (sum_t lam^(T-t) * delta_t)

    Args:
        spike_train: (T, ...) array, first axis is time.

    Returns:
        Array of the trailing shape; all-ones trains map to v_th/delta_t
        regardless of the leak.
    """
    spike_train = np.asarray(spike_train, dtype=np.float64)
    T = spike_train.shape[0]
    if T < 1:
        raise ValueError("spike train must cover at least one step")
    weights = cfg.lam ** np.arange(T - 1, -1, -1, dtype=np.float64)
    numer = cfg.v_th * np.tensordot(weights, spike_train, axes=(0, 0))
    denom = weights.sum() * cfg.delta_t
    return numer / denom


def rate_forward_transform(
    z_prev: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, cfg: NeuronConfig
) -> np.ndarray:
    """Clamped linear map approximating one spiking layer in rate space.

    z = clamp((W z_prev + b) / tau, 0, v_th / delta_t), applied row-wise for
    a (batch, in) input. Differentiable almost everywhere; the rate trainer
    backpropagates through the interior region.
    """
    z_prev = np.asarray(z_prev, dtype=np.float64)
    pre = z_prev @ weight.T
    if bias is not None:
        pre = pre + bias
    pre = pre / cfg.tau
    return np.clip(pre, 0.0, cfg.rate_bound)


def unfold_patches(feature_map: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Extract conv receptive-field patches as rows.

    Args:
        feature_map: (C, H, W) or (batch, C, H, W).
        kernel: square kernel size.
        stride: step between patches.

    Returns:
        (patches, kernel*kernel*C) for a single map, or
        (batch * patches, kernel*kernel*C) with the batch axis outermost.
        Each row is one receptive field; lateral circuits treat rows as
        independent samples.

    Raises:
        ShapeError: if the geometry does not tile the map.
    """
    fm = np.asarray(feature_map, dtype=np.float64)
    single = fm.ndim == 3
    if single:
        fm = fm[None]
    if fm.ndim != 4:
        raise ShapeError(f"expected (C,H,W) or (B,C,H,W), got shape {feature_map.shape}")
    b, c, h, w = fm.shape
    if kernel < 1 or stride < 1:
        raise ShapeError(f"kernel and stride must be >= 1, got {kernel}, {stride}")
    if kernel > h or kernel > w or (h - kernel) % stride or (w - kernel) % stride:
        raise ShapeError(
            f"kernel {kernel} / stride {stride} incompatible with {h}x{w} map"
        )
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sb, sc, sh, sw = fm.strides
    windows = np.lib.stride_tricks.as_strided(
        fm,
        shape=(b, oh, ow, c, kernel, kernel),
        strides=(sb, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )
    patches = windows.reshape(b * oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(patches)


def conv_output_hw(h: int, w: int, kernel: int, stride: int) -> tuple[int, int]:
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


def pooled_flat_width(channels: int, in_hw: tuple[int, int], kernel: int, pool: int) -> int:
    """Width of a stride-1 conv block's flattened, pooled spike map: the
    fan-in of the dense layer above it."""
    oh, ow = conv_output_hw(*in_hw, kernel, 1)
    return channels * (oh // pool) * (ow // pool)


def avg_pool(x: np.ndarray, size: int) -> np.ndarray:
    """Non-overlapping average pooling over the trailing two axes.

    Sums the size*size strided sub-grids, one per window offset, which is
    several times faster than a reshaped mean and exact on spike maps.
    """
    *lead, h, w = x.shape
    if h % size or w % size:
        raise ShapeError(f"pool size {size} does not divide {h}x{w}")
    total = sum(x[..., i::size, j::size] for i in range(size) for j in range(size))
    return total / (size * size)


def avg_pool_backward(grad: np.ndarray, size: int) -> np.ndarray:
    """Adjoint of ``avg_pool``: spread each pooled gradient over its window."""
    g = np.repeat(np.repeat(grad, size, axis=-2), size, axis=-1)
    return g / (size * size)


@dataclass
class Layer:
    """One trainable connection: dense, or conv expressed over patch rows.

    Dense: ``weight`` is (out, in). Conv: ``weight`` is
    (out_channels, kernel*kernel*in_channels) applied to unfolded patches;
    geometry fields describe the hosted feature map.
    """

    weight: np.ndarray
    bias: np.ndarray
    kind: str = "dense"  # "dense" | "conv"
    kernel: int = 0
    stride: int = 1
    in_channels: int = 0
    in_hw: tuple[int, int] = (0, 0)
    pool: int = 1  # average-pool window applied to this layer's spikes
    meta: dict = field(default_factory=dict)

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
        return conv_output_hw(*self.in_hw, self.kernel, self.stride)


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
    stride: int = 1,
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
        stride=stride,
        in_channels=in_channels,
        in_hw=in_hw,
        pool=pool,
    )
