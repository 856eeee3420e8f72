import numpy as np
import pytest

from hlop.lateral import QUANT_SCALE, QUANT_T_L, LateralSubspace, quantize_subspace_output
from hlop.linalg import ShapeError, make_rng, topk_principal
from reference import lateral_response, subspace_alignment_error


def _orthonormal_rows(n, k, seed=0):
    q, _ = np.linalg.qr(make_rng(seed, 0).normal(size=(n, k)))
    return q.T.copy()


def _random_circuits(rng, rows=None, count=200):
    """``count`` circuits of random width n in [3, 16) with k in [1, n)
    orthonormal consolidated rows, each with a random input: one vector, or
    ``rows`` rows."""
    for _ in range(count):
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, k)))
        yield LateralSubspace(n=n, H=q.T.copy()), rng.normal(size=n if rows is None else (rows, n))


class TestProjectTrace:
    def test_empty_subspace_is_identity(self):
        # x - 0.0 is x for every float, -0.0 and NaN included, so handing the
        # input back keeps the bytes of the empty products it skips.
        for mode in ("linear", "spiking"):
            sub = LateralSubspace(n=4, mode=mode)
            for x in (np.array([1.0, -2.0, 3.0, 0.5]),
                      np.array([[1.0, -0.0, np.nan, -np.inf], [0.0, 2.5, -3.0, 1e-300]])):
                assert sub.project_trace(x) is x
                assert (x - (x @ sub.H.T) @ sub.H).tobytes() == x.tobytes()

    def test_annihilates_spanned_vector(self):
        h = _orthonormal_rows(6, 3, seed=1)
        sub = LateralSubspace(n=6, H=h)
        x = 2.0 * h[0] - 0.7 * h[2]
        assert np.linalg.norm(sub.project_trace(x)) < 1e-12

    def test_axis_example(self):
        # H = [e1], x = (3, 4): H^T H x = (3, 0), so x_hat = (0, 4).
        sub = LateralSubspace(n=2, H=np.array([[1.0, 0.0]]))
        assert np.allclose(sub.project_trace(np.array([3.0, 4.0])), [0.0, 4.0])

    def test_idempotent(self):
        for sub, x in _random_circuits(make_rng(2, 0), rows=20):
            once = sub.project_trace(x)
            assert np.max(np.abs(sub.project_trace(once) - once)) < 1e-10

    def test_result_orthogonal_to_rows(self):
        for sub, x in _random_circuits(make_rng(4, 0)):
            assert np.max(np.abs(sub.H @ sub.project_trace(x))) < 1e-10

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            LateralSubspace(n=3).project_trace(np.zeros(4))


class TestLateralResponse:
    def test_empty_consolidated(self):
        sub = LateralSubspace(n=3, H_new=np.array([[0.0, 1.0, 0.0]]))
        x = np.array([[1.0, 2.0, 3.0]])
        y, x_minus, y_new, x_minus_new, x_tilde = lateral_response(sub, x)
        assert y.shape == (1, 0) and not x_minus.any()
        assert np.array_equal(x_tilde, x_minus_new)

    def test_zero_new_rows(self):
        sub = LateralSubspace(n=3, H=_orthonormal_rows(3, 1, seed=6),
                              H_new=np.zeros((2, 3)))
        _, _, y_new, x_minus_new, _ = lateral_response(sub, np.ones((4, 3)))
        assert not y_new.any() and not x_minus_new.any()

    def test_axis_reflection_example(self):
        # H = [e1], H_new = [e2], x = (1, 1): each circuit reflects its axis,
        # x_tilde = (-1, -1).
        sub = LateralSubspace(
            n=2, H=np.array([[1.0, 0.0]]), H_new=np.array([[0.0, 1.0]])
        )
        *_, x_tilde = lateral_response(sub, np.array([[1.0, 1.0]]))
        assert np.allclose(x_tilde, [[-1.0, -1.0]])


class TestHebbianUpdate:
    def test_converged_subspace_is_stationary(self):
        # Complete orthonormal H_new reconstructs every x, so dH' = 0.
        h = _orthonormal_rows(4, 4, seed=7)
        sub = LateralSubspace(n=4, H_new=h.copy())
        x = make_rng(8, 0).normal(size=(16, 4))
        _, learn = sub.hebbian_update(x)
        learn()
        assert np.max(np.abs(sub.H_new - h)) < 1e-12
        assert np.max(np.abs(sub.velocity)) < 1e-12

    def test_single_neuron_stream_finds_axis(self):
        # Stream of +-e1 plus small noise: the single-row projector should
        # converge to e1 e1^T; compare against the eigen oracle.
        rng = make_rng(9, 0)
        n_samples = 2000
        signs = rng.choice([-1.0, 1.0], size=n_samples)
        data = np.zeros((n_samples, 2))
        data[:, 0] = signs
        data += 0.05 * rng.normal(size=(n_samples, 2))
        sub = LateralSubspace(n=2)
        sub.expand(1, make_rng(10, 0))
        for start in range(0, n_samples, 4):  # 500 batches * K=5 = 2500 updates
            _, learn = sub.hebbian_update(data[start : start + 4])
            learn()
        m = topk_principal(data, 1)
        assert subspace_alignment_error(sub.H_new, m) < 0.05

    def test_two_stage_equals_oja_form(self):
        rng = make_rng(11, 0)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            h = rng.normal(size=(k, n))
            x = rng.normal(size=(1, n))
            sub = LateralSubspace(n=n, H_new=h.copy())
            _, _, y_new, _, x_tilde = lateral_response(sub, x)
            two_stage = y_new.T @ x + y_new.T @ x_tilde
            y = h @ x[0]
            oja = np.outer(y, x[0]) - np.outer(y, y) @ h
            worst = max(worst, float(np.max(np.abs(two_stage - oja))))
        assert worst < 1e-12

    @pytest.mark.parametrize("mode", ["linear", "spiking"])
    @pytest.mark.parametrize("k_new", [0, 2])
    def test_returns_the_projected_trace(self, mode, k_new):
        # The update hands back exactly project_trace(x), which the host
        # layer's weight update uses; in-training rows do not enter it.
        sub = LateralSubspace(n=6, H=_orthonormal_rows(6, 3, seed=17), mode=mode)
        sub.expand(k_new, make_rng(18, 0))
        x = make_rng(19, 0).uniform(0.0, 2.0, size=(10, 6))
        expect = sub.project_trace(x)
        assert not np.allclose(expect, x)
        x_hat, learn = sub.hebbian_update(x)
        learn()
        assert np.array_equal(x_hat, expect)
        assert sub.k_new == k_new

    def test_only_learn_writes_the_in_training_bank(self):
        # hebbian_update projects and returns; the repeats wait for learn(),
        # which touches neither H nor the trace already handed out.
        sub = LateralSubspace(n=6, H=_orthonormal_rows(6, 2, seed=20))
        sub.expand(2, make_rng(21, 0))
        x = make_rng(22, 0).uniform(0.0, 2.0, size=(10, 6))
        h, h_new, v = sub.H.copy(), sub.H_new.copy(), sub.velocity.copy()
        x_hat, learn = sub.hebbian_update(x)
        assert np.array_equal(sub.H_new, h_new) and np.array_equal(sub.velocity, v)
        held = x_hat.copy()
        learn()
        assert not np.array_equal(sub.H_new, h_new) and not np.array_equal(sub.velocity, v)
        assert np.array_equal(sub.H, h) and np.array_equal(x_hat, held)

    def test_never_touches_consolidated_rows(self):
        h = _orthonormal_rows(5, 2, seed=12)
        sub = LateralSubspace(n=5, H=h.copy())
        sub.expand(2, make_rng(13, 0))
        before = sub.H.tobytes()
        for _ in range(10):
            _, learn = sub.hebbian_update(make_rng(14, 0).normal(size=(8, 5)))
            learn()
        assert sub.H.tobytes() == before

    def test_objective_gradient_on_toy(self):
        # J(H') = mean ||x - H^T H x - H'^T H' x||^2 on a 3-dim toy.
        # The analytic gradient must match central differences to 1e-4, and
        # the batch Hebbian update must be a descent direction of J.
        rng = make_rng(15, 0)
        h = _orthonormal_rows(3, 1, seed=16)
        h_new = 0.4 * rng.normal(size=(1, 3))
        x = rng.normal(size=(64, 3)) * np.array([2.0, 1.5, 1.0])

        def objective(hn):
            r = x - x @ h.T @ h - x @ hn.T @ hn
            return float(np.mean(np.sum(r * r, axis=1)))

        r = x - x @ h.T @ h - x @ h_new.T @ h_new
        y_new = x @ h_new.T
        grad = -2.0 * (y_new.T @ r + (r @ h_new.T).T @ x) / x.shape[0]

        fd = np.zeros_like(h_new)
        eps = 1e-5
        for i in range(h_new.shape[0]):
            for j in range(h_new.shape[1]):
                up = h_new.copy(); up[i, j] += eps
                dn = h_new.copy(); dn[i, j] -= eps
                fd[i, j] = (objective(up) - objective(dn)) / (2 * eps)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)
        assert rel < 1e-4

        sub = LateralSubspace(n=3, H=h.copy(), H_new=h_new.copy())
        *_, y_resp, _, x_tilde = lateral_response(sub, x)
        hebbian = (y_resp.T @ x + y_resp.T @ x_tilde) / x.shape[0]
        assert float(np.sum(hebbian * (-fd))) > 0.0

    def test_step_damping_keeps_wide_layers_finite(self):
        rng = make_rng(17, 0)
        x = (rng.random(size=(384, 1352)) < 0.3).astype(float)
        sub = LateralSubspace(n=1352)
        sub.expand(40, make_rng(18, 0))
        for _ in range(40):
            _, learn = sub.hebbian_update(x)
            learn()
        assert np.all(np.isfinite(sub.H_new))
        assert np.linalg.norm(sub.H_new, axis=1).max() < 2.0


def _out_of_place_learn(sub, x):
    """The Hebbian repeats with a fresh array for every intermediate, as the
    rule reads: dH' = gain * (y' x_hat^T - (y' y'^T) H') / rows."""
    x_hat, rows = sub.project_trace(x), x.shape[0]
    energy, cap = float(np.mean(np.sum(x * x, axis=1))), 4.0 * (1.0 - sub.momentum) / sub.eta
    gain = cap / energy if energy > cap else 1.0
    for _ in range(sub.K):
        y_new = sub._out(x @ sub.H_new.T)
        delta = gain * (y_new.T @ x_hat - (y_new.T @ y_new) @ sub.H_new) / rows
        sub.velocity = sub.momentum * sub.velocity + delta
        sub.H_new = sub.H_new + sub.eta * sub.velocity


@pytest.mark.parametrize("mode", ["linear", "spiking"])
def test_in_place_learn_keeps_the_out_of_place_bits(mode):
    # Several batches per task, across expand and consolidate, in both the
    # undamped and the damped regime; learn writes into the banks it found.
    fast, ref = (LateralSubspace(n=48, mode=mode) for _ in range(2))
    feeds = make_rng(23, 0).uniform(0.0, 1.0, size=(3, 4, 40, 48)) ** 3
    feeds[:, 2:] *= 4.0  # mean row energy above the damping cap
    for task, batches in enumerate(feeds):
        for sub in (fast, ref):
            sub.expand(5, make_rng(24, task))
        for x in batches:
            h_new, velocity = fast.H_new, fast.velocity
            x_hat, learn = fast.hebbian_update(x)
            learn()
            _out_of_place_learn(ref, x)
            assert fast.H_new is h_new and fast.velocity is velocity
            assert np.array_equal(x_hat, ref.project_trace(x))
            for name in ("H", "H_new", "velocity"):
                assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
        for sub in (fast, ref):
            sub.consolidate()
    assert fast.k == 15 and fast.H.tobytes() == ref.H.tobytes()


class TestExpandConsolidate:
    def test_expand_zero_is_noop(self):
        sub = LateralSubspace(n=4)
        sub.expand(0, make_rng(0, 0))
        assert sub.k_new == 0

    def test_expand_shape(self):
        sub = LateralSubspace(n=10)
        sub.expand(3, make_rng(1, 0))
        assert sub.H_new.shape == (3, 10)
        assert sub.velocity.shape == (3, 10)

    def test_expand_fills_the_space_and_no_further(self):
        sub = LateralSubspace(n=5, H=_orthonormal_rows(5, 2, seed=27))
        sub.expand(1, make_rng(28, 0))
        with pytest.raises(ValueError, match="add 3 rows to 2 consolidated and 1 in-training rows in a 5-wide"):
            sub.expand(3, make_rng(29, 0))
        assert sub.k_new == 1
        sub.expand(2, make_rng(29, 0))
        assert sub.k + sub.k_new == sub.n == 5
        with pytest.raises(ValueError, match="add 5 rows to 0 consolidated and 0 in-training rows in a 3-wide"):
            LateralSubspace(n=3).expand(5, make_rng(30, 0))

    def test_expand_leaves_projection_unchanged(self):
        h = _orthonormal_rows(6, 2, seed=19)
        sub = LateralSubspace(n=6, H=h)
        x = make_rng(20, 0).normal(size=6)
        before = sub.project_trace(x)
        sub.expand(3, make_rng(21, 0))
        assert np.array_equal(sub.project_trace(x), before)

    def test_consolidate_counts(self):
        sub = LateralSubspace(n=8, H=_orthonormal_rows(8, 2, seed=22))
        sub.expand(3, make_rng(23, 0))
        sub.consolidate()
        assert sub.k == 5 and sub.k_new == 0 and sub.velocity.shape == (0, 8)

    def test_consolidate_empty_is_noop(self):
        h = _orthonormal_rows(5, 2, seed=24)
        sub = LateralSubspace(n=5, H=h.copy())
        sub.consolidate()
        assert np.array_equal(sub.H, h)

    def test_consolidation_annihilates_learned_directions(self):
        # Train on a strongly anisotropic stream, consolidate, and check the
        # projection removes most of held-out same-distribution energy.
        rng = make_rng(25, 0)
        scales = np.array([4.0, 3.0, 0.05, 0.05, 0.05, 0.05])
        data = rng.normal(size=(3000, 6)) * scales
        held = rng.normal(size=(200, 6)) * scales
        sub = LateralSubspace(n=6)
        sub.expand(2, make_rng(26, 0))
        before = np.linalg.norm(sub.project_trace(held))
        for start in range(0, 3000, 100):
            _, learn = sub.hebbian_update(data[start : start + 100])
            learn()
        sub.consolidate()
        after = np.linalg.norm(sub.project_trace(held))
        assert after < 0.2 * before


class TestQuantizer:
    def test_clamp_saturation(self):
        assert quantize_subspace_output(np.array(25.0)) == 20.0
        assert quantize_subspace_output(np.array(-31.0)) == -20.0

    def test_direct_evaluation(self):
        # 3.27/20*40 = 6.54 -> 7 -> 7/40*20 = 3.5
        assert abs(float(quantize_subspace_output(np.array(3.27))) - 3.5) < 1e-12

    def test_ties_away_from_zero(self):
        # 0.25/20*40 = 0.5 exactly: away-from-zero gives grid step 1 -> 0.5.
        assert quantize_subspace_output(np.array(0.25)) == pytest.approx(0.5)
        assert quantize_subspace_output(np.array(-0.25)) == pytest.approx(-0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gives_the_formula_bytes(self, dtype):
        # Every half grid step is a tie; then signed zeros, the clip edges and
        # their neighbours, far-out values and random ones.
        scale, t_l = QUANT_SCALE, QUANT_T_L
        ties = (np.arange(-41, 41) + 0.5) * scale / t_l
        edge = dtype(scale)
        near = [np.nextafter(edge, dtype(0)), np.nextafter(edge, dtype(99))]
        special = [0.0, -0.0, edge, -edge, *near, *(-v for v in near), 1e30, -1e30]
        y = np.concatenate([ties, special, make_rng(53, 0).uniform(-25, 25, 88)])
        y = y.astype(dtype).reshape(-1, 6)
        clipped = np.clip(y, -scale, scale)
        r = clipped / scale * t_l
        want = scale * (np.sign(r) * np.floor(np.abs(r) + 0.5)) / t_l
        assert want.dtype == dtype and np.signbit(want).any() and (want == 0).any()
        before = y.copy()
        got = quantize_subspace_output(y)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert y.tobytes() == before.tobytes()  # a new array; the input is left as it was

    def test_grid_refinement(self):
        # Every output is a level of the 40-step grid, within half a step of the
        # plain clamp, and random inputs reach all 2 * 40 + 1 levels.
        step = QUANT_SCALE / QUANT_T_L
        y = make_rng(27, 0).uniform(-25, 25, size=4096)
        levels = quantize_subspace_output(y) / step
        assert np.array_equal(levels, np.round(levels))
        assert np.max(np.abs(levels * step - np.clip(y, -20, 20))) <= step / 2 + 1e-12
        assert np.unique(levels).size == 2 * QUANT_T_L + 1

    def test_spiking_projection_close_to_linear_at_fine_grid(self):
        # Inside the clamp each of the k = 3 outputs moves by at most half a
        # step, and H's rows are orthonormal, so a row of norm 17 moves by at
        # most sqrt(3) half steps (2.5% of its norm).
        h = _orthonormal_rows(10, 3, seed=28)
        x = make_rng(29, 0).normal(size=(50, 10))
        x *= 17.0 / np.linalg.norm(x, axis=1, keepdims=True)
        lin = LateralSubspace(n=10, H=h.copy())
        spk = LateralSubspace(n=10, H=h.copy(), mode="spiking")
        dev = np.linalg.norm(lin.project_trace(x) - spk.project_trace(x), axis=1)
        assert 0 < np.max(dev) <= np.sqrt(3) * QUANT_SCALE / QUANT_T_L / 2 + 1e-12
