import numpy as np
import pytest

from hlop.linalg import ShapeError, make_rng
from hlop.spiking import (
    LayerState,
    NeuronConfig,
    avg_pool,
    avg_pool_backward,
    lif_step,
    rate_forward_transform,
    surrogate_derivative,
    unfold_patches,
)

from reference import channel_first_avg_pool, channel_first_avg_pool_backward, dsr_config


def _cfg(**kw):
    base = dict(lam=0.5, v_th=1.0, T=4, a2=0.25)
    base.update(kw)
    return NeuronConfig(**base)


class TestLifStep:
    def test_quiescence(self):
        cfg = _cfg()
        st = LayerState.zeros(1, 3)
        st, s = lif_step(st, np.zeros((1, 3)), cfg)
        assert not st.u.any() and not s.any()

    def test_hand_simulated_sequence(self):
        # lam=0.5, v_th=1, constant drive 0.6:
        # u: 0.6, 0.9, 1.05 (spike), then 0.5*(1.05-1)+0.6 = 0.625
        cfg = _cfg(lam=0.5, v_th=1.0)
        st = LayerState.zeros(1, 1)
        drive = np.full((1, 1), 0.6)
        seen = []
        spikes = []
        for _ in range(4):
            st, s = lif_step(st, drive, cfg)
            seen.append(st.u[0, 0])
            spikes.append(s[0, 0])
        assert np.allclose(seen, [0.6, 0.9, 1.05, 0.625], atol=1e-12)
        assert spikes == [0.0, 0.0, 1.0, 0.0]

    def test_suprathreshold_drive_spikes_every_step(self):
        cfg = _cfg()
        st = LayerState.zeros(2, 2)
        for _ in range(5):
            st, s = lif_step(st, np.full((2, 2), 2.0 * cfg.v_th), cfg)
            assert s.all()

    def test_rejects_nonfinite(self):
        st = LayerState.zeros(1, 2)
        with pytest.raises(ValueError, match="non-finite"):
            lif_step(st, np.array([[np.nan, 0.0]]), _cfg())
        assert not st.u.any() and not st.s.any()  # refused before any write

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lif_step(LayerState.zeros(1, 2), np.zeros((1, 3)), _cfg())

    def test_pure_integration_at_unit_leak(self):
        # lam=1 and subthreshold drive: u[t] is the running input sum.
        cfg = _cfg(lam=1.0, v_th=1e9)
        st = LayerState.zeros(1, 1)
        rng = make_rng(0, 0)
        total = 0.0
        for _ in range(20):
            inp = rng.uniform(-1, 1)
            total += inp
            st, _ = lif_step(st, np.array([[inp]]), cfg)
            assert abs(st.u[0, 0] - total) < 1e-12


class TestSurrogateDerivative:
    def test_peak_at_threshold(self):
        cfg = _cfg(a2=0.25)
        assert surrogate_derivative(np.array(cfg.v_th), cfg) == pytest.approx(1.0)

    def test_saturates_in_tails(self):
        cfg = _cfg()
        assert surrogate_derivative(np.array(1e6), cfg) == 0.0
        assert surrogate_derivative(np.array(-1e6), cfg) == 0.0

    def test_even_about_threshold(self):
        cfg = _cfg()
        for d in (0.1, 0.7, 3.0):
            lo = surrogate_derivative(np.array(cfg.v_th - d), cfg)
            hi = surrogate_derivative(np.array(cfg.v_th + d), cfg)
            assert lo == pytest.approx(hi, rel=1e-12)

    def test_normalized_bump(self):
        # Quadrature over a wide window: the bump integrates to 1.
        cfg = _cfg()
        u = np.linspace(cfg.v_th - 25, cfg.v_th + 25, 200001)
        total = np.trapezoid(surrogate_derivative(u, cfg), u)
        assert abs(total - 1.0) < 1e-3


class TestRateForwardTransform:
    def test_lower_clamp(self):
        cfg = dsr_config()
        w = -np.eye(3)
        z = rate_forward_transform(np.ones((2, 3)), w, None, cfg)
        assert not z.any()

    def test_interior_identity(self):
        cfg = dsr_config()  # tau=1, bound=6
        w = np.eye(2)
        x = np.array([[1.0, 5.0]])
        assert np.allclose(rate_forward_transform(x, w, None, cfg), x)

    def test_upper_clamp(self):
        # pre-activation 10 against bound v_th/dt = 6
        cfg = dsr_config()
        w = np.array([[10.0]])
        z = rate_forward_transform(np.ones((1, 1)), w, None, cfg)
        assert z[0, 0] == cfg.rate_bound
        assert z[0, 0] == pytest.approx(6.0)


class TestUnfoldPatches:
    def test_single_patch(self):
        fm = np.arange(4.0).reshape(1, 1, 2, 2)
        p = unfold_patches(fm, kernel=2)
        assert p.shape == (1, 4)
        assert np.array_equal(p[0], [0, 1, 2, 3])

    def test_patch_count(self):
        fm = np.arange(9.0).reshape(1, 1, 3, 3)
        p = unfold_patches(fm, kernel=2)
        assert p.shape == (4, 4)
        assert np.array_equal(p[3], [4, 5, 7, 8])

    def test_constant_map_identical_rows(self):
        fm = np.full((1, 1, 4, 4), 3.5)
        p = unfold_patches(fm, kernel=2)
        assert p.shape == (9, 4) and np.all(p == p[0])

    def test_batch_axis_outermost(self):
        fm = make_rng(2, 0).normal(size=(3, 2, 4, 4))
        p = unfold_patches(fm, kernel=2)
        single = unfold_patches(fm[1:2], kernel=2)
        assert p.shape == (3 * 9, 8)
        assert np.array_equal(p[9:18], single)

    def test_incompatible_geometry(self):
        with pytest.raises(ShapeError):
            unfold_patches(np.zeros((1, 1, 3, 3)), kernel=4)
        with pytest.raises(ShapeError):
            unfold_patches(np.zeros((1, 3, 3)), kernel=2)


class TestPooling:
    """Pooling takes channels-last (B, H, W, C) maps."""

    def test_average(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        p = avg_pool(x, 2)
        assert p.shape == (1, 2, 2, 1)
        assert np.array_equal(p[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adjoint(self):
        rng = make_rng(3, 0)
        x = rng.normal(size=(2, 4, 4, 3))
        g = rng.normal(size=(2, 2, 2, 3))
        lhs = np.sum(avg_pool(x, 2) * g)
        rhs = np.sum(x * avg_pool_backward(g, 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _hard_values(shape, v_th, seed):
    """Random conv-sized values with -0.0, +0.0, exactly v_th and +-1e6 mixed in."""
    rng = make_rng(seed, 0)
    x = rng.normal(v_th, 2.0, size=shape)
    special = np.array([-0.0, 0.0, v_th, 1e6, -1e6])
    pick = rng.uniform(size=shape) < 0.2
    x[pick] = special[rng.integers(0, len(special), size=int(pick.sum()))]
    return x


class TestKernelsKeepTheFormulaBits:
    """The in-place kernels write exactly the bytes of the expressions they
    replace, on conv-sized inputs (64 samples, 26x26 positions, 8 channels).
    The constants are not powers of two, so a reordered formula shows."""

    ROWS, CH = 64 * 26 * 26, 8

    def test_lif_step(self):
        cfg = _cfg(lam=0.7, v_th=0.4)
        u = _hard_values((self.ROWS, self.CH), cfg.v_th, 60)
        s = (make_rng(61, 0).uniform(size=u.shape) < 0.3).astype(np.float64)
        current = _hard_values(u.shape, cfg.v_th, 62)
        expect_u = cfg.lam * (u - cfg.v_th * s) + current
        expect_s = (expect_u >= cfg.v_th).astype(np.float64)
        assert np.any(expect_u == cfg.v_th) and np.any(np.signbit(expect_u) & (expect_u == 0))
        st, spikes = lif_step(LayerState(u=u.copy(), s=s.copy()), current, cfg)
        assert _same_bits(st.u, expect_u) and _same_bits(spikes, expect_s)
        assert spikes is st.s and spikes.dtype == np.float64

    def test_surrogate_derivative(self):
        cfg = _cfg(v_th=0.4, a2=0.3)
        u = _hard_values((self.ROWS, self.CH), cfg.v_th, 63)
        e = np.exp(-(np.abs(u - cfg.v_th) / cfg.a2))
        assert _same_bits(surrogate_derivative(u, cfg), e / (cfg.a2 * (1.0 + e) ** 2))
        out, work = np.empty_like(u), np.empty_like(u)
        assert surrogate_derivative(u, cfg, out, work) is out
        assert _same_bits(out, e / (cfg.a2 * (1.0 + e) ** 2))
        for u0 in (np.array(cfg.v_th), np.array(-0.0), np.array(1e6)):  # 0-d arrays
            e0 = np.exp(-(np.abs(u0 - cfg.v_th) / cfg.a2))
            assert _same_bits(surrogate_derivative(u0, cfg), e0 / (cfg.a2 * (1.0 + e0) ** 2))

    @pytest.mark.parametrize("size", [2, 3])
    def test_avg_pool(self, size):
        # Pooled as the walk pools: a channels-last state viewed as maps, then
        # moved channel-major; the channel-first pool of the moved maps.
        rows = _hard_values((64 * 24 * 24, self.CH), 0.4, 64)
        maps = rows.reshape(64, 24, 24, self.CH)
        pooled = avg_pool(maps, size).transpose(0, 3, 1, 2)
        first = maps.transpose(0, 3, 1, 2)
        assert _same_bits(pooled, channel_first_avg_pool(first, size))
        subgrids = (first[..., i::size, j::size] for i in range(size) for j in range(size))
        assert _same_bits(pooled, sum(subgrids) / (size * size))

    @pytest.mark.parametrize("size", [2, 3])
    def test_avg_pool_backward(self, size):
        # A channel-major error viewed channels-last and unpooled into patch
        # rows, against the channel-first unpool moved channels-last.
        g = _hard_values((64, self.CH, 13, 13), 0.4, 65)
        expect = channel_first_avg_pool_backward(g, size).transpose(0, 2, 3, 1)
        spread = np.repeat(np.repeat(g, size, axis=-2), size, axis=-1) / (size * size)
        assert _same_bits(expect, spread.transpose(0, 2, 3, 1))
        rows = np.full((64 * (13 * size) ** 2, self.CH), np.nan)
        got = avg_pool_backward(g.transpose(0, 2, 3, 1), size, rows)
        assert np.shares_memory(got, rows) and _same_bits(got, expect)
        assert _same_bits(rows, expect.reshape(rows.shape))
        assert _same_bits(avg_pool_backward(g.transpose(0, 2, 3, 1), size), expect)


def test_lif_step_writes_into_the_state_arrays():
    # The walk owns a layer's u and s for a whole batch: every step writes
    # into them, with the out-of-place formula's bytes at every step.
    cfg = _cfg(lam=0.5, v_th=0.4)
    st = LayerState.zeros(64 * 26 * 26, 8)
    u, s = st.u, st.s
    current = _hard_values(u.shape, cfg.v_th, 66)
    expect_u = expect_s = np.zeros(u.shape)
    for _ in range(3):
        expect_u = cfg.lam * (expect_u - cfg.v_th * expect_s) + current
        expect_s = (expect_u >= cfg.v_th).astype(np.float64)
        st, spikes = lif_step(st, current, cfg)
        assert st.u is u and st.s is s and spikes is s
        assert _same_bits(u, expect_u) and _same_bits(s, expect_s)
    assert s.any() and not s.all()


class TestNeuronConfig:
    def test_rejects_bad_values(self):
        for kw in (dict(lam=0.0), dict(lam=1.5), dict(v_th=0.0), dict(T=0), dict(a2=0.0)):
            with pytest.raises(ValueError):
                _cfg(**kw)
