import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtopo.autoencoder import (
    LEAKY_SLOPE,
    Mlp,
    TrainConfig,
    detection_threshold,
    train,
    train_autoencoder,
)


def zero_net(d=3, h=4, b=None):
    sizes = [d, h, b if b is not None else max(1, d - 1), h, d]
    ws = [np.zeros((o, i)) for i, o in zip(sizes, sizes[1:])]
    bs = [np.zeros(o) for o in sizes[1:]]
    return Mlp(ws, bs)


def identity_net(d=3):
    ws = [np.eye(d)] * 4
    bs = [np.zeros(d)] * 4
    return Mlp(ws, bs)


# ------------------------------------------------------------------ oracle
# The per-layer forward, backward and momentum loop that `train` and
# `loss_and_gradients` replaced, kept verbatim: the flat-buffer loop must
# give the same floats, bit for bit.


def oracle_forward(m, x):
    """Pre-activations and activations per layer; x is (n, d)."""
    pre, acts = [], [x]
    a = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if i == last else np.where(z > 0, z, LEAKY_SLOPE * z)
        acts.append(a)
    return pre, acts


def oracle_loss_and_gradients(m, batch):
    x = np.asarray(batch, dtype=float)
    pre, acts = oracle_forward(m, x)
    n, d = x.shape
    diff = acts[-1] - x
    loss = float(np.mean(diff ** 2))
    grad_out = 2.0 * diff / (n * d)
    grads = [None] * len(m.weights)
    last = len(m.weights) - 1
    dz = grad_out
    for i in range(last, -1, -1):
        if i != last:
            dz = dz * np.where(pre[i] > 0, 1.0, LEAKY_SLOPE)
        grads[i] = (dz.T @ acts[i], dz.sum(axis=0))
        if i > 0:
            dz = dz @ m.weights[i]
    return loss, grads


@np.errstate(over="ignore", invalid="ignore")
def oracle_train(m, data, cfg):
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    rng = np.random.default_rng(cfg.seed)
    velocity = [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(m.weights, m.biases)]
    history = []
    n = len(x)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = x[order[start:start + cfg.batch_size]]
            _, grads = oracle_loss_and_gradients(m, batch)
            for i, (dw, db) in enumerate(grads):
                vw, vb = velocity[i]
                vw = cfg.momentum * vw - cfg.learning_rate * dw
                vb = cfg.momentum * vb - cfg.learning_rate * db
                velocity[i] = (vw, vb)
                m.weights[i] = m.weights[i] + vw
                m.biases[i] = m.biases[i] + vb
        _, acts = oracle_forward(m, x)
        loss = float(np.mean((acts[-1] - x) ** 2))
        if not np.isfinite(loss):
            raise ValueError(f"training diverged: the loss after epoch {epoch} is {loss}")
        history.append(loss)
    return history


def trained_both(sizes, data, cfg, seed=0):
    """(history or error message, dumps) of a seeded net after train and
    after oracle_train."""
    out = []
    for fit in (train, oracle_train):
        m = Mlp.random(sizes, seed=seed)
        try:
            result = fit(m, data, cfg)
        except ValueError as exc:
            result = str(exc)
        out.append((result, m.dumps()))
    return out


class TestForward:
    def test_zero_net_outputs_zero(self):
        m = zero_net()
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(m.forward(x), np.zeros(3))
        assert m.reconstruction_error(x) == pytest.approx(np.mean(x ** 2))

    def test_identity_net_on_nonnegative(self):
        m = identity_net()
        x = np.array([0.0, 1.5, 2.0])
        assert np.allclose(m.forward(x), x)
        assert m.reconstruction_error(x) == 0.0

    def test_leaky_slope_compounds_on_negatives(self):
        m = identity_net(d=1)
        # three hidden rectifiers shrink a negative by slope^3, output is linear
        out = m.forward(np.array([-1.0]))
        assert out[0] == pytest.approx(-(LEAKY_SLOPE ** 3))

    def test_hand_computed_2_2_1_2_2(self):
        ws = [np.eye(2), np.array([[1.0, 1.0]]),
              np.array([[1.0], [-1.0]]), np.eye(2)]
        bs = [np.zeros(2), np.zeros(1), np.zeros(2),
              np.array([0.5, 0.5])]
        m = Mlp(ws, bs)
        x = np.array([1.0, 2.0])
        # a1=(1,2) -> latent z=3 -> a3=(3, -0.03) -> +bias
        assert np.allclose(m.encode(x), [3.0])
        assert np.allclose(m.forward(x), [3.5, 0.47])

    def test_input_shape_checked(self):
        m = zero_net(d=3)
        with pytest.raises(ValueError):
            m.forward(np.zeros(4))
        with pytest.raises(ValueError):
            m.encode(np.zeros((3, 1)))

    def test_detect_is_strict(self):
        m = zero_net(d=2)
        x = np.array([1.0, 1.0])  # error exactly 1.0
        assert m.reconstruction_error(x) == 1.0
        assert not m.detect(x, threshold=1.0)
        assert m.detect(x, threshold=0.999)

    def test_denoise_is_reconstruction(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=5)
        x = np.array([0.3, -0.1, 0.8])
        assert np.array_equal(m.denoise(x), m.forward(x))


class TestValidation:
    def test_wrong_layer_count(self):
        with pytest.raises(ValueError):
            Mlp([np.eye(2)] * 3, [np.zeros(2)] * 3)

    def test_bottleneck_must_narrow(self):
        with pytest.raises(ValueError, match="^bottleneck 2 must be strictly smaller than input 2$"):
            Mlp.random((2, 4, 2, 4, 2))

    def test_shapes_must_chain(self):
        ws = [np.zeros((4, 3)), np.zeros((2, 4)), np.zeros((4, 2)), np.zeros((3, 5))]
        bs = [np.zeros(4), np.zeros(2), np.zeros(4), np.zeros(3)]
        with pytest.raises(ValueError):
            Mlp(ws, bs)

    def test_bias_length(self):
        ws = [np.zeros((4, 3)), np.zeros((2, 4)), np.zeros((4, 2)), np.zeros((3, 4))]
        bs = [np.zeros(4), np.zeros(3), np.zeros(4), np.zeros(3)]
        with pytest.raises(ValueError):
            Mlp(ws, bs)

    def test_random_requires_five_sizes(self):
        with pytest.raises(ValueError):
            Mlp.random([3, 2, 3])

    @pytest.mark.parametrize("sizes, message", [
        ((10, 0, 5, 0, 10), "hidden layer size must be >= 1, got 0"),
        ((10, 20, 0, 20, 10), "bottleneck layer size must be >= 1, got 0"),
        ((10, 20, -1, 20, 10), "bottleneck layer size must be >= 1, got -1"),
        ((0, 4, 0, 4, 0), "input layer size must be >= 1, got 0"),
    ])
    def test_random_refuses_empty_layers(self, sizes, message):
        # such a model would save, but no model file with it loads back
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Mlp.random(sizes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for field, bad in (("learning_rate", math.nan), ("learning_rate", math.inf),
                           ("momentum", math.nan), ("momentum", math.inf),
                           ("momentum", -0.1), ("momentum", 1.0),
                           ("learning_rate", "0.1"), ("momentum", None),
                           ("learning_rate", True),
                           ("epochs", 1.5), ("epochs", True), ("epochs", 0),
                           ("batch_size", 2.5), ("batch_size", "32"),
                           ("seed", -1), ("seed", 1.5), ("seed", None)):
            with pytest.raises(ValueError, match=f"^{field} must be .*, got "
                                                 f"{re.escape(repr(bad))}$"):
                TrainConfig(**{field: bad})
        assert TrainConfig(epochs=np.int64(2), seed=np.int64(1), momentum=np.float32(0.5))

    @pytest.mark.parametrize("field, value", [("epochs", 1.5), ("learning_rate", 0.5),
                                              ("seed", 3)])
    def test_config_is_frozen(self, field, value):
        # its checks run at construction only, so a config cannot change after
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == TrainConfig()


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for trial in range(4):
            m = Mlp.random([3, 4, 2, 4, 3], seed=100 + trial)
            batch = rng.normal(size=(5, 3))
            _, grads = m.loss_and_gradients(batch)
            h = 1e-6
            for li in range(4):
                for arr, gid in ((m.weights[li], 0), (m.biases[li], 1)):
                    numeric = np.zeros_like(arr)
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        up, _ = m.loss_and_gradients(batch)
                        arr[idx] = orig - h
                        dn, _ = m.loss_and_gradients(batch)
                        arr[idx] = orig
                        numeric[idx] = (up - dn) / (2 * h)
                    analytic = grads[li][gid]
                    denom = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
                    assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_loss_is_mean_squared_error(self):
        m = zero_net(d=2)
        batch = np.array([[1.0, 1.0], [2.0, 0.0]])
        loss, _ = m.loss_and_gradients(batch)
        assert loss == pytest.approx(np.mean(batch ** 2))

    def test_vector_is_one_row(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        row = np.array([0.5, -1.0, 2.0])
        loss, grads = m.loss_and_gradients(row)
        want_loss, want_grads = m.loss_and_gradients(row[None, :])
        assert loss == want_loss
        for (w, b), (want_w, want_b) in zip(grads, want_grads):
            assert np.array_equal(w, want_w) and np.array_equal(b, want_b)

    @pytest.mark.parametrize("batch, message", [
        (np.zeros((0, 3)), "training data must be nonempty"),
        (np.zeros((2, 5)), "training vectors have width 5, model expects 3"),
    ])
    def test_bad_batch_refused_like_train(self, batch, message):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        with pytest.raises(ValueError, match=message):
            m.loss_and_gradients(batch)
        with pytest.raises(ValueError, match=message):
            train(m, batch, TrainConfig())


class TestTraining:
    def test_rank_one_data_converges(self):
        rng = np.random.default_rng(3)
        u = np.array([0.6, 0.8, 0.0])
        # centered along the line; one-sided rays can trap a sign-flipped
        # bottleneck on its slow slope
        data = np.array([t * u for t in rng.uniform(-1.5, 1.5, size=64)])
        cfg = TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=16,
                          epochs=400, seed=1)
        m, history = train_autoencoder(data, [3, 6, 1, 6, 3], cfg)
        assert history[-1] < 1e-4
        assert history[-1] < history[0]

    def test_zero_learning_rate_is_noop(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=9)
        before = m.dumps()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, seed=2)
        history = train(m, np.random.default_rng(0).normal(size=(8, 3)), cfg)
        assert m.dumps() == before
        assert history[0] == history[1] == history[2]

    def test_seeded_training_reproducible(self):
        data = np.random.default_rng(5).normal(size=(20, 3))
        cfg = TrainConfig(learning_rate=0.01, epochs=10, batch_size=4, seed=11)
        m1, h1 = train_autoencoder(data, [3, 5, 2, 5, 3], cfg)
        m2, h2 = train_autoencoder(data, [3, 5, 2, 5, 3], cfg)
        assert m1.dumps() == m2.dumps()
        assert h1 == h2
        assert h1[-1] == m1.loss_and_gradients(data)[0]
        cfg2 = TrainConfig(learning_rate=0.01, epochs=10, batch_size=4, seed=12)
        m3, _ = train_autoencoder(data, [3, 5, 2, 5, 3], cfg2)
        assert m3.dumps() != m1.dumps()

    def test_history_length(self):
        data = np.zeros((4, 3))
        cfg = TrainConfig(epochs=7, batch_size=2)
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        assert len(train(m, data, cfg)) == 7

    def test_width_mismatch(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        with pytest.raises(ValueError):
            train(m, np.zeros((4, 5)), TrainConfig())

    def test_divergence_names_epoch(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        data = np.random.default_rng(1).normal(size=(16, 3))
        cfg = TrainConfig(learning_rate=1e6, epochs=50, batch_size=4)
        # no numpy warning escapes: under -W error one would pre-empt the check
        with pytest.raises(ValueError, match=r"loss after epoch \d+ is (inf|nan)"):
            train(m, data, cfg)

    def test_empty_data(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        with pytest.raises(ValueError):
            train(m, np.zeros((0, 3)), TrainConfig())


class TestTrainingOracle:
    CASES = {
        "batch_not_dividing_n": ((3, 5, 2, 5, 3), (37, 3),
                                 dict(batch_size=5, momentum=0.0, epochs=8)),
        "batch_at_least_n": ((3, 5, 2, 5, 3), (8, 3), dict(batch_size=16, epochs=8)),
        "batch_1": ((3, 5, 2, 5, 3), (9, 3), dict(batch_size=1, epochs=4)),
        "momentum_0": ((4, 6, 1, 6, 4), (40, 4), dict(batch_size=8, momentum=0.0, epochs=6)),
        "momentum_half": ((3, 5, 2, 5, 3), (100, 3), dict(batch_size=32, momentum=0.5, epochs=6)),
        "learning_rate_0": ((3, 5, 2, 5, 3), (20, 3),
                            dict(learning_rate=0.0, batch_size=6, epochs=3)),
        "one_data_vector": ((3, 5, 2, 5, 3), (3,), dict(batch_size=4, epochs=5)),
        "one_epoch": ((5, 8, 2, 8, 5), (50, 5), dict(batch_size=7, epochs=1)),
        # the train-ae defaults on a day's 288 windows of 10 features
        "day_shaped": ((10, 20, 5, 20, 10), (288, 10),
                       dict(learning_rate=0.01, momentum=0.9, batch_size=32, epochs=300)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_oracle(self, case):
        sizes, shape, kwargs = self.CASES[case]
        data = np.random.default_rng(len(case)).normal(size=shape)
        got, want = trained_both(sizes, data, TrainConfig(seed=3, **kwargs), seed=7)
        assert isinstance(got[0], list)
        assert got == want

    def test_divergence_equals_oracle(self):
        data = np.random.default_rng(1).normal(size=(16, 3))
        cfg = TrainConfig(learning_rate=1e6, epochs=50, batch_size=4)
        got, want = trained_both([3, 4, 2, 4, 3], data, cfg)
        assert got[0].startswith("training diverged: the loss after epoch ")
        assert got == want

    def test_zero_preactivations_equal_oracle(self):
        # a zero first layer makes every first pre-activation exactly 0, where
        # the rectifier's slope is LEAKY_SLOPE, not 1
        data = np.random.default_rng(6).normal(size=(12, 3))
        cfg = TrainConfig(epochs=3, batch_size=4)
        results = []
        for fit in (train, oracle_train):
            m = Mlp.random([3, 4, 2, 4, 3], seed=8)
            m.weights[0][:] = 0.0
            results.append((fit(m, data, cfg), m.dumps()))
        assert results[0] == results[1]

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data(), st.integers(2, 6), st.integers(1, 7), st.integers(1, 30),
           st.integers(1, 35), st.integers(1, 4),
           st.sampled_from([0.0, 0.01, 0.1, 1.0, 30.0]), st.sampled_from([0.0, 0.5, 0.9]),
           st.integers(0, 2 ** 16))
    def test_property(self, draw, d, hidden, n, batch_size, epochs, lr, momentum, seed):
        bottleneck = draw.draw(st.integers(1, d - 1))
        data = np.random.default_rng(seed).normal(size=(n, d))
        cfg = TrainConfig(learning_rate=lr, momentum=momentum, batch_size=batch_size,
                          epochs=epochs, seed=seed)
        got, want = trained_both([d, hidden, bottleneck, hidden, d], data, cfg, seed=seed + 1)
        assert got == want

    @pytest.mark.parametrize("rows", [1, 2, 7, 32])
    def test_loss_and_gradients_equal_oracle(self, rows):
        rng = np.random.default_rng(rows)
        for seed in range(3):
            m = Mlp.random([4, 6, 2, 6, 4], seed=seed)
            batch = rng.normal(size=(rows, 4))
            loss, grads = m.loss_and_gradients(batch)
            want_loss, want_grads = oracle_loss_and_gradients(m, batch)
            assert loss == want_loss
            assert [(dw.tobytes(), db.tobytes()) for dw, db in grads] == \
                [(dw.tobytes(), db.tobytes()) for dw, db in want_grads]


class TestTrainingOwnsItsBuffers:
    """train keeps its parameters in a flat buffer of its own; arrays a
    caller handed to Mlp are never written, and the model ends up holding
    arrays of its own."""

    def caller_model(self):
        src = Mlp.random([3, 5, 2, 5, 3], seed=4)
        weights = [w.copy() for w in src.weights]
        biases = [b.copy() for b in src.biases]
        m = Mlp(weights, biases)
        assert m.weights[0] is weights[0]  # Mlp keeps a float64 array as given
        return m, weights + biases, [a.copy() for a in weights + biases]

    def assert_owned(self, m, given):
        for a in m.weights + m.biases:
            assert a.flags.owndata
            assert all(a is not g for g in given)

    def test_caller_arrays_kept(self):
        m, given, kept = self.caller_model()
        data = np.random.default_rng(2).normal(size=(20, 3))
        train(m, data, TrainConfig(epochs=5, batch_size=6))
        assert [a.tobytes() for a in given] == [a.tobytes() for a in kept]
        self.assert_owned(m, given)
        text = m.dumps()
        back = Mlp.loads(text)
        assert back.dumps() == text
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            assert a.tobytes() == b.tobytes()
        # a second call writes none of the arrays the first one left
        first = [a.copy() for a in m.weights + m.biases]
        held = m.weights + m.biases
        train(m, data, TrainConfig(epochs=2, batch_size=6))
        assert [a.tobytes() for a in held] == [a.tobytes() for a in first]
        assert m.dumps() != text

    def test_caller_arrays_kept_on_divergence(self):
        m, given, kept = self.caller_model()
        data = np.random.default_rng(1).normal(size=(16, 3))
        with pytest.raises(ValueError, match="training diverged"):
            train(m, data, TrainConfig(learning_rate=1e6, epochs=50, batch_size=4))
        assert [a.tobytes() for a in given] == [a.tobytes() for a in kept]
        self.assert_owned(m, given)
        assert not all(np.isfinite(a).all() for a in m.weights + m.biases)


class TestSerialization:
    def test_round_trip_exact(self):
        m = Mlp.random([4, 6, 2, 6, 4], seed=21)
        text = m.dumps()
        back = Mlp.loads(text)
        assert back.dumps() == text
        for w1, w2 in zip(m.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_format_line(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        assert m.dumps().splitlines()[0] == "mlp-v1"
        assert m.dumps().splitlines()[1] == "3 4 2 4 3"

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="mlp-v1"):
            Mlp.loads("mlp-v2\n3 4 2 4 3\n")

    def test_trailing_data_rejected(self):
        m = Mlp.random([3, 4, 2, 4, 3], seed=0)
        with pytest.raises(ValueError):
            Mlp.loads(m.dumps() + "0.5 0.5\n")

    @pytest.mark.parametrize("cut, message", [
        (lambda lines: lines[:3], "line 4: missing; the model ends early"),
        (lambda lines: lines[:1], "line 2: missing; the model ends early"),
        (lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:],
         "line 3: expected 3 numbers, got 2"),
        (lambda lines: lines[:3] + ["nan" + lines[3][lines[3].index(" "):]] + lines[4:],
         "line 4: parameter nan is not finite"),
        (lambda lines: lines[:3] + ["x" + lines[3][lines[3].index(" "):]] + lines[4:],
         "line 4: could not convert string to float: 'x'"),
        (lambda lines: [lines[0], "3 4 x 4 3"] + lines[2:], "line 2: invalid literal"),
        (lambda lines: [lines[0], "3 4 2 4"] + lines[2:], "line 2: expected 5 numbers"),
        (lambda lines: [lines[0], "3 0 2 0 3"] + lines[2:], "line 3: expected 0 numbers, got 3"),
    ])
    def test_malformed_model_names_line(self, cut, message):
        lines = Mlp.random([3, 4, 2, 4, 3], seed=0).dumps().splitlines()
        with pytest.raises(ValueError, match=re.escape(message)):
            Mlp.loads("\n".join(cut(lines)) + "\n")

    def test_save_load_file(self, tmp_path):
        # `train-ae` writes dumps() to the file `denoise` loads
        m = Mlp.random([3, 4, 2, 4, 3], seed=33)
        path = tmp_path / "model.txt"
        path.write_text(m.dumps())
        assert Mlp.load(path).dumps() == m.dumps()


class TestThreshold:
    def test_constant_errors(self):
        m = zero_net(d=2)
        data = np.ones((10, 2))  # every error is exactly 1.0
        assert detection_threshold(m, data) == pytest.approx(1.0)

    def test_three_sigma(self):
        m = zero_net(d=1)
        data = np.array([[1.0], [3.0]])  # errors 1 and 9
        errors = np.array([1.0, 9.0])
        expect = errors.mean() + 3 * errors.std()
        assert detection_threshold(m, data) == pytest.approx(expect)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detection_threshold(zero_net(), np.zeros((0, 3)))
