import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harpipe import mlp
from harpipe.config import PipelineConfig
from harpipe.mlp import (
    ACTION_LABELS,
    MlpModel,
    activation,
    activation_derivative,
    backprop,
    forward,
    init_model,
    init_rprop,
    label_index,
    load_model,
    predict,
    rprop_step,
    save_model,
    train,
)

import oracles


def unit_model(layer_sizes, weights, biases):
    """An MlpModel with a = beta = 1 and inputs taken as they come."""
    return MlpModel(layer_sizes, weights, biases, 1.0, 1.0,
                    np.zeros(layer_sizes[0]), np.ones(layer_sizes[0]))


def gradient_check(model, x, target, eps=1e-5):
    """Max elementwise relative error of backprop vs central differences."""
    grads_w, grads_b, _ = backprop(model, x, target)

    def loss():
        out = forward(model, x)[-1]
        return 0.5 * float(((out - target) ** 2).sum())

    worst = 0.0
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for layer, grad in zip(params, grads):
            it = np.nditer(layer, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = layer[idx]
                layer[idx] = orig + eps
                up = loss()
                layer[idx] = orig - eps
                down = loss()
                layer[idx] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(grad[idx] - numeric) / denom)
    return worst


class TestActivation:
    def test_zero(self):
        assert activation(0.0, 1.0, 1.0) == 0.0

    def test_tanh_equivalence(self):
        assert activation(20.0, a=2.0, beta=1.0) == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(-3, 3, 13)
        assert np.allclose(activation(xs, a=2.0, beta=1.0), np.tanh(xs))

    def test_rational_form(self):
        for x in (-2.0, -0.3, 0.7, 4.0):
            expected = 1.5 * (1 - np.exp(-0.8 * x)) / (1 + np.exp(-0.8 * x))
            assert activation(x, a=0.8, beta=1.5) == pytest.approx(expected)

    def test_saturates_for_huge_inputs(self):
        assert activation(1e6, a=1.0, beta=2.0) == 2.0
        assert activation(-1e6, a=1.0, beta=2.0) == -2.0

    def test_derivative_at_zero(self):
        a, beta = 1.3, 0.9
        eps = 1e-6
        numeric = (activation(eps, a, beta) - activation(-eps, a, beta)) / (2 * eps)
        fx = activation(0.0, a, beta)
        assert activation_derivative(fx, a, beta) == pytest.approx(a * beta / 2)
        assert numeric == pytest.approx(a * beta / 2, rel=1e-6)


class TestLabels:
    def test_stable_indices(self):
        assert ACTION_LABELS == ("boxing", "clapping", "running", "walking")
        assert [label_index(l) for l in ACTION_LABELS] == [0, 1, 2, 3]

    def test_case_insensitive(self):
        assert label_index("Walking") == 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            label_index("jogging")


class TestForward:
    def test_zero_weights_zero_output(self):
        m = unit_model([3, 4, 2], [np.zeros((4, 3)), np.zeros((2, 4))],
                       [np.zeros(4), np.zeros(2)])
        assert not forward(m, np.ones(3))[-1].any()

    def test_single_neuron_zero_input(self):
        m = unit_model([1, 1], [np.array([[1.0]])], [np.zeros(1)])
        assert forward(m, np.zeros(1))[-1] == 0.0

    def test_hand_evaluated_2_2_1(self):
        a, beta = 1.0, 1.0
        w1 = np.array([[0.5, -0.25], [0.1, 0.3]])
        b1 = np.array([0.05, -0.1])
        w2 = np.array([[0.7, -0.6]])
        b2 = np.array([0.2])
        m = MlpModel([2, 2, 1], [w1, w2], [b1, b2], a, beta,
                     np.zeros(2), np.ones(2))
        x = np.array([0.4, -0.9])

        def f(u):
            return beta * np.tanh(a * u / 2.0)

        hidden = f(w1 @ x + b1)
        expected = f(w2 @ hidden + b2)
        assert forward(m, x)[-1] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self):
        m = init_model([4, 5, 3], seed=1)
        xs = np.random.default_rng(2).normal(size=(6, 4))
        batch = forward(m, xs)[-1]
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], forward(m, x)[-1])

    def test_dimension_mismatch(self):
        m = init_model([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(m, np.zeros(5))


class TestBackprop:
    def test_zero_gradient_at_target(self):
        m = init_model([2, 3, 2], seed=0)
        x = np.array([0.3, -0.2])
        target = forward(m, x)[-1]
        gw, gb, loss = backprop(m, x, target)
        assert loss == 0.0
        assert all(not g.any() for g in gw + gb)

    def test_zero_net_gradients_only_at_output_bias(self):
        m = unit_model([2, 2, 2], [np.zeros((2, 2)), np.zeros((2, 2))],
                       [np.zeros(2), np.zeros(2)])
        gw, gb, _ = backprop(m, np.zeros(2), np.array([0.5, -0.5]))
        assert not gw[0].any() and not gw[1].any() and not gb[0].any()
        assert gb[1].any()

    def test_batch_gradient_is_sum(self):
        m = init_model([3, 4, 2], seed=3)
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(5, 3))
        ts = rng.normal(size=(5, 2)) * 0.5
        gw_batch, gb_batch, loss_batch = backprop(m, xs, ts)
        gw_sum = [np.zeros_like(w) for w in m.weights]
        gb_sum = [np.zeros_like(b) for b in m.biases]
        loss_sum = 0.0
        for x, t in zip(xs, ts):
            gw, gb, loss = backprop(m, x, t)
            loss_sum += loss
            for acc, g in zip(gw_sum, gw):
                acc += g
            for acc, g in zip(gb_sum, gb):
                acc += g
        assert loss_batch == pytest.approx(loss_sum)
        for a, b in zip(gw_batch + gb_batch, gw_sum + gb_sum):
            assert np.allclose(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_gradcheck_random_small_nets(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 4)))]
        m = init_model(sizes, seed=seed, a=float(rng.uniform(0.5, 2.0)),
                       beta=float(rng.uniform(0.5, 2.0)))
        x = rng.normal(size=sizes[0])
        target = rng.uniform(-0.8, 0.8, size=sizes[-1]) * m.beta
        assert gradient_check(m, x, target) < 1e-4


class TestRprop:
    def _scalar_model(self, w0=0.0):
        m = unit_model([1, 1], [np.array([[w0]])], [np.zeros(1)])
        return m, init_rprop(m)

    def test_first_step_uses_initial_delta(self):
        m, s = self._scalar_model()
        rprop_step(m, [np.array([[2.0]])], [np.zeros(1)], s)
        assert m.weights[0][0, 0] == -s.cfg.rprop_step_init
        assert s.step[0] == s.cfg.rprop_step_init

    def test_same_sign_grows_step(self):
        m, s = self._scalar_model()
        for _ in range(2):
            rprop_step(m, [np.array([[1.0]])], [np.zeros(1)], s)
        cfg = s.cfg
        assert s.step[0] == pytest.approx(cfg.rprop_step_init * cfg.rprop_eta_plus)
        assert m.weights[0][0, 0] == pytest.approx(
            -cfg.rprop_step_init * (1 + cfg.rprop_eta_plus)
        )

    def test_sign_flip_shrinks_and_suppresses_next_test(self):
        m, s = self._scalar_model()
        rprop_step(m, [np.array([[1.0]])], [np.zeros(1)], s)
        rprop_step(m, [np.array([[-1.0]])], [np.zeros(1)], s)
        shrunk = s.cfg.rprop_step_init * s.cfg.rprop_eta_minus
        assert s.step[0] == pytest.approx(shrunk)
        assert s.prev_grad[0] == 0.0
        # next step sees sign product 0: step size unchanged
        rprop_step(m, [np.array([[1.0]])], [np.zeros(1)], s)
        assert s.step[0] == pytest.approx(shrunk)

    def test_zero_gradient_no_move(self):
        m, s = self._scalar_model(w0=0.7)
        rprop_step(m, [np.zeros((1, 1))], [np.zeros(1)], s)
        assert m.weights[0][0, 0] == 0.7

    @given(st.integers(0, 10_000), st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_step_bounds_invariant(self, seed, n_steps):
        m = init_model([2, 3, 2], seed=seed)
        s = init_rprop(m)
        rng = np.random.default_rng(seed)
        for _ in range(n_steps):
            gw = [rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 4)
                  for w in m.weights]
            gb = [rng.normal(size=b.shape) for b in m.biases]
            rprop_step(m, gw, gb, s)
            assert (s.step >= s.cfg.rprop_step_min).all()
            assert (s.step <= s.cfg.rprop_step_max).all()

    def test_diagonal_quadratic_scale_robustness(self):
        # E = sum c_i (w_i - w*_i)^2, conditioning 1e6: every coordinate
        # converges regardless of its curvature scale
        c = np.array([1e-3, 1.0, 1e3])
        target = np.array([0.4, -1.7, 2.5])
        m = unit_model([3, 1], [np.zeros((1, 3))], [np.zeros(1)])
        s = init_rprop(m)
        for _ in range(500):
            w = m.weights[0][0]
            grad = (2 * c * (w - target))[None, :]
            rprop_step(m, [grad], [np.zeros(1)], s)
        assert np.abs(m.weights[0][0] - target).max() < 10 * s.cfg.rprop_step_min


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestRpropOracle:
    """The flat-array update against the per-layer masked reference."""

    @given(st.integers(0, 10_000), st.sampled_from([3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_per_layer_oracle(self, seed, n_sizes):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 6)) for _ in range(n_sizes)]
        step_min = float(rng.uniform(1e-3, 0.05))
        step_init = step_min * float(rng.uniform(1.0, 3.0))
        hyper = dict(eta_plus=float(rng.uniform(1.1, 2.5)),
                     eta_minus=float(rng.uniform(0.2, 0.8)),
                     step_init=step_init, step_min=step_min,
                     step_max=step_init * float(rng.uniform(1.0, 3.0)))
        m, ref = init_model(sizes, seed=seed), init_model(sizes, seed=seed)
        cfg = PipelineConfig(**{f"rprop_{k}": v for k, v in hyper.items()})
        s, s_ref = init_rprop(m, cfg), oracles.init_rprop(ref, **hyper)
        shapes = [w.shape for w in m.weights] + [b.shape for b in m.biases]
        # per parameter: a fixed sign (its step grows to step_max), an
        # alternating sign (shrinks to step_min) or a random sign, each
        # with exact zeros and negative zeros mixed in
        n = sum(int(np.prod(shape)) for shape in shapes)
        kind = (np.arange(n) + int(rng.integers(3))) % 3
        sign = rng.choice([-1.0, 1.0], size=n)
        pinned_min = pinned_max = False
        for t in range(40):
            g = np.where(kind == 0, sign,
                         np.where(kind == 1, sign * (-1.0) ** t,
                                  rng.choice([-1.0, 1.0], size=n)))
            g *= 10.0 ** rng.uniform(-3, 3, size=n)
            g[rng.random(n) < 0.1] = 0.0
            g[rng.random(n) < 0.05] = -0.0
            parts = np.split(g, np.cumsum([int(np.prod(sh)) for sh in shapes])[:-1])
            grads = [p.reshape(sh) for p, sh in zip(parts, shapes)]
            gw, gb = grads[: len(m.weights)], grads[len(m.weights):]
            rprop_step(m, gw, gb, s)
            oracles.rprop_step(ref, gw, gb, s_ref)
            for a, b in zip(m.weights + m.biases, ref.weights + ref.biases):
                assert_same_bits(a, b)
            # the flat state holds the per-layer arrays end to end
            assert_same_bits(s.step, np.concatenate(
                s_ref.step_w + s_ref.step_b, axis=None))
            assert_same_bits(s.prev_grad, np.concatenate(
                s_ref.prev_grad_w + s_ref.prev_grad_b, axis=None))
            pinned_min |= bool((s.step == step_min).any())
            pinned_max |= bool((s.step == hyper["step_max"]).any())
        assert pinned_min and pinned_max


class TestTrain:
    def test_linearly_separable_toy_set(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(10, 2)) * 0.3 + np.array([2.0, 2.0])
        x1 = rng.normal(size=(10, 2)) * 0.3 + np.array([-2.0, -2.0])
        xs = np.vstack([x0, x1])
        ys = [0] * 10 + [1] * 10
        m = init_model([2, 8, 2], seed=0)
        train(m, xs, ys, epochs=200, rprop=init_rprop(m))
        preds = [predict(m, x)[0] for x in xs]
        assert preds == ys

    def test_corner_targets_reach_small_loss(self):
        xs = 0.9 * (2 * np.eye(4) - 1)
        ys = [0, 1, 2, 3]
        m = init_model([4, 16, 4], seed=1)
        trace = train(m, xs, ys, epochs=400, rprop=init_rprop(m))
        assert trace[-1] < 1e-3
        # RPROP steps are sign-based, so the loss has small local bumps;
        # the trend over coarse milestones is strictly downward
        milestones = trace[5::40]
        assert all(a >= b for a, b in zip(milestones, milestones[1:]))

    def test_zero_epochs_leaves_model_unchanged(self):
        m = init_model([3, 4, 4], seed=2)
        before = [w.copy() for w in m.weights]
        train(m, np.random.default_rng(0).normal(size=(4, 3)), [0, 1, 2, 3],
              epochs=0, rprop=init_rprop(m))
        for w, old in zip(m.weights, before):
            assert np.array_equal(w, old)

    def test_overflowing_beta_gives_non_finite_weights(self):
        # beta * beta overflows to inf instead of raising, so a diverged
        # training shows only in the parameters it leaves
        m = init_model([3, 4, 4], seed=0, beta=1e300)
        xs = np.random.default_rng(0).normal(size=(4, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            train(m, xs, [0, 1, 2, 3], epochs=2, rprop=init_rprop(m))
        assert not all(np.isfinite(p).all() for p in (*m.weights, *m.biases))

    def test_empty_dataset_rejected(self):
        m = init_model([2, 3, 4], seed=0)
        with pytest.raises(ValueError):
            train(m, np.zeros((0, 2)), [], epochs=5, rprop=init_rprop(m))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(12, 3))
        ys = [0, 1, 2, 3] * 3
        models = []
        for _ in range(2):
            m = init_model([3, 6, 4], seed=7)
            train(m, xs, ys, epochs=30, rprop=init_rprop(m))
            models.append(m)
        for w1, w2 in zip(models[0].weights, models[1].weights):
            assert np.array_equal(w1, w2)

    def test_standardization_stored(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(8, 2)) * np.array([100.0, 5.0])
        m = init_model([2, 4, 4], seed=0)
        train(m, xs, [0, 1, 2, 3] * 2, epochs=1, rprop=init_rprop(m))
        assert np.allclose(m.input_mean, xs.mean(axis=0))
        assert np.allclose(m.input_std, xs.std(axis=0))

    def test_standardization_floors_tiny_deviations(self):
        # near-constant components must not be amplified relative to the
        # dominant one: their stored deviation is floored at 1% of the max
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(8, 2)) * np.array([100.0, 1e-6])
        m = init_model([2, 4, 4], seed=0)
        train(m, xs, [0, 1, 2, 3] * 2, epochs=1, rprop=init_rprop(m))
        std = xs.std(axis=0)
        assert np.isclose(m.input_std[0], std[0])
        assert np.isclose(m.input_std[1], 0.01 * std.max())


class TestPredict:
    def _fixed_output_model(self, outputs):
        # linear readout of a one-hot input reproduces any output vector
        outputs = np.asarray(outputs, dtype=np.float64)
        n = outputs.size
        pre = 2.0 * np.arctanh(np.clip(outputs, -0.999, 0.999))
        m = unit_model([1, n], [pre[:, None]], [np.zeros(n)])
        return m

    def test_argmax(self):
        m = self._fixed_output_model([0.8, -0.2, -0.3, -0.1])
        assert predict(m, np.ones(1))[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        m = self._fixed_output_model([0.5, 0.5, 0.0, 0.0])
        assert predict(m, np.ones(1))[0] == 0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        m = init_model([4, 6, 4], seed=3)
        for _ in range(20):
            x = rng.normal(size=4)
            cls, out = predict(m, x)
            assert cls == int(np.argmax(out))
            assert cls == int(np.argmax(2.5 * out + 1.0))
            assert cls == int(np.argmax(np.exp(out)))


def replace_line(data: bytes, i: int, line: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[i] = line
    return b"\n".join(lines)


class TestModelFiles:
    def test_round_trip_identical_outputs(self, tmp_path):
        path = str(tmp_path / "model.txt")
        m = init_model([120, 200, 4], seed=0)
        m.input_mean = np.random.default_rng(1).normal(size=120)
        m.input_std = np.abs(np.random.default_rng(2).normal(size=120)) + 0.1
        save_model(m, path)
        m2 = load_model(path)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(size=120)
            assert np.array_equal(forward(m, x)[-1], forward(m2, x)[-1])

    def test_save_is_deterministic(self, tmp_path):
        m = init_model([5, 3, 4], seed=4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m, str(p1))
        save_model(m, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_matches_per_value_formatter(self, tmp_path):
        m = init_model([3, 4, 2], seed=5)
        m.weights[0][0] = [-0.0, 5e-324, 1e300]
        m.weights[0][1] = [-2.2250738585072014e-309, 0.1, -1e-300]
        m.weights[1][0, :2] = [np.nextafter(1.0, 2.0), -1e300]
        m.biases[0][:] = [0.0, -0.0, 1 / 3, 123456789.125]
        m.input_mean = np.array([-0.0, 1e300, 5e-324])
        m.input_std = np.array([2.5, 1e-310, 7.0])
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_model(m, str(new))
        oracles.save_model_per_value(m, str(old))
        assert new.read_bytes() == old.read_bytes()
        assert "-0.0 5e-324 1e+300" in new.read_text()

    @pytest.mark.parametrize("edit", [
        lambda data: b"",
        lambda data: data.replace(b"harmlp 1", b"harmlp 2", 1),
        lambda data: replace_line(data, 1, b"120 0 4"),
        lambda data: replace_line(data, 1, b"120 199 4"),
        lambda data: data[:3000],  # within the std line
        lambda data: data[:-2000],  # within the last layer
        lambda data: data + b"\xff\n",
        lambda data: replace_line(data, 5, b" ".join([b"nan"] * 120)),
    ], ids=["empty", "version", "layer-size-0", "layer-shape", "cut-in-std",
            "cut-in-last-layer", "not-utf8", "nan-weight"])
    def test_error_names_the_file(self, edit, tmp_path):
        path = tmp_path / "model.txt"
        m = init_model([120, 200, 4], seed=0)
        m.input_mean = np.random.default_rng(1).normal(size=120)
        m.input_std = np.abs(np.random.default_rng(2).normal(size=120)) + 0.1
        save_model(m, str(path))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError) as e:
            load_model(str(path))
        assert str(e.value).startswith(f"malformed model file {path}: ")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_layer_shape_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(init_model([2, 2], seed=0), str(path))
        lines = path.read_text().splitlines()
        lines[1] = "3 2"  # header now disagrees with the stored matrix
        (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_model(str(tmp_path / "bad.txt"))

    def test_non_finite_parameter(self, tmp_path):
        path = str(tmp_path / "model.txt")
        m = init_model([2, 2], seed=0)
        m.weights[0][0, 0] = np.nan
        save_model(m, path)
        with pytest.raises(ValueError):
            load_model(path)
