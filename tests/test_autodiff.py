"""Gradient and optimizer checks for the computation-graph core."""

import math
import sys
import threading

import numpy as np
import pytest

from conftest import finite_diff_check, fresh_params, tiny_config, zero_grad
from relcap import autodiff as ad
from relcap.autodiff import Parameter, Tensor


def numeric_grad(forward, param, eps=1e-6):
    """Independent central-difference oracle over every coordinate."""
    flat = param.data.reshape(-1)
    grads = np.zeros_like(flat)
    for c in range(flat.size):
        orig = flat[c]
        flat[c] = orig + eps
        f_plus = forward().data.item()
        flat[c] = orig - eps
        f_minus = forward().data.item()
        flat[c] = orig
        grads[c] = (f_plus - f_minus) / (2 * eps)
    return grads.reshape(param.data.shape)


def scalarize(t: Tensor) -> Tensor:
    """Reduce a 2-D tensor to a scalar with fixed mixing weights."""
    rows, cols = t.data.shape
    left = Tensor(np.linspace(0.3, 1.1, rows).reshape(1, rows))
    right = Tensor(np.linspace(-0.7, 0.9, cols).reshape(cols, 1))
    return ad.matmul(ad.matmul(left, t), right)


class TestAffine:
    def test_identity(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter("w", np.eye(2))
        b = Parameter("b", np.zeros(2))
        assert np.array_equal(ad.affine(x, w, b).data, [[1.0, 2.0]])

    def test_zero_weight_gives_bias(self):
        out = ad.affine(Tensor([[1.0, 2.0]]), Parameter("w", np.zeros((2, 2))),
                        Parameter("b", np.array([3.0, 4.0])))
        assert np.array_equal(out.data, [[3.0, 4.0]])

    def test_hand_evaluation(self):
        out = ad.affine(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                        Parameter("w", np.array([[1.0], [1.0]])),
                        Parameter("b", np.array([1.0])))
        assert np.array_equal(out.data, [[4.0], [8.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 3\).*\(2, 2\)"):
            ad.affine(Tensor(np.ones((1, 3))), Parameter("w", np.ones((2, 2))),
                      Parameter("b", np.zeros(2)))


class TestActivations:
    def test_relu(self):
        assert np.array_equal(ad.relu(Tensor([[-1.0, 0.0, 2.0]])).data, [[0.0, 0.0, 2.0]])

    def test_sigmoid_zero(self):
        assert ad._sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_relu_derivative_at_zero_is_zero(self):
        p = Parameter("p", np.array([[0.0]]))
        ad.backward(ad.relu(p))
        assert p.grad[0, 0] == 0.0


class TestRowSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.row_softmax(Tensor(np.zeros((1, 3))))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.row_softmax(Tensor(rng.uniform(-5, 5, size=(6, 9))))
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(out.data >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(4, 5))
        shifted = x + rng.uniform(-10, 10, size=(4, 1))
        a = ad.row_softmax(Tensor(x)).data
        b = ad.row_softmax(Tensor(shifted)).data
        assert np.allclose(a, b, atol=1e-12)
        assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))

    def test_hand_evaluation(self):
        out = ad.row_softmax(Tensor([[math.log(1.0), math.log(3.0)]]))
        assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_log_softmax_is_log_of_array_softmax(self):
        x = np.array([[math.log(1.0), math.log(3.0)], [1000.0, 1000.0]])
        assert np.allclose(ad.softmax(x), [[0.25, 0.75], [0.5, 0.5]], atol=1e-15)
        assert np.allclose(ad.log_softmax(x), np.log(ad.softmax(x)), atol=1e-15)


class TestCrossEntropy:
    def test_certain_prediction_is_zero(self):
        logits = np.full((1, 4), -1e3)
        logits[0, 2] = 1e3
        loss = ad.weighted_cross_entropy(Tensor(logits), [2], [1.0])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        loss = ad.weighted_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2], np.full(3, 1 / 3))
        assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.weighted_cross_entropy(Tensor(np.zeros((1, 3))), [3], [1.0])


class TestBackward:
    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(Tensor(np.zeros((2, 2))))

    def test_sum_of_wx_gradient_broadcasts_x(self):
        w = Parameter("w", np.random.default_rng(2).normal(size=(2, 3)))
        x = np.array([[0.5], [-1.0], [2.0]])
        loss = ad.matmul(ad.matmul(Tensor(np.ones((1, 2))), ad.matmul(w, Tensor(x))),
                         Tensor(np.ones((1, 1))))
        ad.backward(loss)
        assert np.allclose(w.grad, np.tile(x.T, (2, 1)), atol=1e-15)

    def test_unreachable_parameter_gets_zero(self):
        w = Parameter("w", np.ones((2, 2)))
        unused = Parameter("unused", np.ones((2, 2)))
        loss = scalarize(ad.relu(w))
        ad.backward(loss)
        assert np.array_equal(unused.grad, np.zeros((2, 2)))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        w = Parameter("w", rng.uniform(-1, 1, size=(3, 2)))
        b = Parameter("b", rng.uniform(-1, 1, size=2))
        x = rng.uniform(-1, 1, size=(4, 3))

        def forward():
            return scalarize(ad.row_softmax(ad.affine(Tensor(x), w, b)))

        ad.backward(forward())
        for p in (w, b):
            oracle = numeric_grad(forward, p, eps=1e-5)
            assert np.allclose(p.grad, oracle, rtol=1e-6, atol=1e-9)


class TestPrimitiveGradients:
    """Every primitive against the central-difference oracle, inputs in [-1, 1]."""

    @pytest.mark.parametrize("name,builder", [
        ("relu", lambda p: ad.relu(p)),
        ("row_softmax", lambda p: ad.row_softmax(p)),
        ("transpose", lambda p: ad.transpose(p)),
        ("scale", lambda p: ad.scale(p, -1.7)),
        ("dropout_eval", lambda p: ad.dropout(p, 0.5, None)),
    ])
    def test_unary(self, name, builder):
        rng = np.random.default_rng(hash(name) % 2**32)
        p = Parameter(name, rng.uniform(-1, 1, size=(3, 4)))

        def forward():
            return scalarize(builder(p))

        ad.backward(forward())
        oracle = numeric_grad(forward, p)
        rel = np.abs(p.grad - oracle) / np.maximum(1e-8, np.abs(p.grad) + np.abs(oracle))
        assert rel.max() < 1e-6

    def test_binary_ops(self):
        rng = np.random.default_rng(11)
        a = Parameter("a", rng.uniform(-1, 1, size=(3, 4)))
        b = Parameter("b", rng.uniform(-1, 1, size=(3, 4)))
        m = Parameter("m", rng.uniform(-1, 1, size=(4, 2)))

        def forward():
            mixed = ad.add(ad.matmul(ad.add(a, b), m), ad.matmul(b, m))
            return scalarize(mixed)

        ad.backward(forward())
        for p in (a, b, m):
            oracle = numeric_grad(forward, p)
            rel = np.abs(p.grad - oracle) / np.maximum(1e-8, np.abs(p.grad) + np.abs(oracle))
            assert rel.max() < 1e-6
            zero_grad(p)

    @pytest.mark.parametrize("op", [ad.add, ad.matmul])
    def test_binary_ops_reject_unmatched_shapes(self, op):
        # (1, 3) would broadcast against (2, 3); neither op broadcasts.
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(1, 3\)"):
            op(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))))

    def test_gather_concat_and_losses(self):
        rng = np.random.default_rng(12)
        table = Parameter("table", rng.uniform(-1, 1, size=(5, 3)))
        logits = Parameter("logits", rng.uniform(-1, 1, size=(4, 3)))
        det = Parameter("det", rng.uniform(-1, 1, size=(3, 1)))
        boxp = Parameter("boxp", rng.uniform(-1, 1, size=(2, 4)))
        box_target = rng.uniform(-0.5, 0.5, size=(2, 4))

        def forward():
            rows = ad.gather_rows(table, [0, 2, 2, 4])
            both = ad.concat([rows, logits])
            ce = ad.weighted_cross_entropy(both, [1, 0, 5, 3], [0.3, 0.4, 0.0, 0.3])
            det_loss = ad.binary_logistic_loss(det, [1, 0, 1], [0.5, 0.25, 0.25])
            sl1 = ad.smooth_l1(boxp, box_target, [0.6, 0.4])
            return ad.add_scalars([ce, det_loss, sl1])

        ad.backward(forward())
        for p in (table, logits, det, boxp):
            oracle = numeric_grad(forward, p)
            rel = np.abs(p.grad - oracle) / np.maximum(1e-8, np.abs(p.grad) + np.abs(oracle))
            assert rel.max() < 1e-6, p.name
            zero_grad(p)

    def test_dropout_training_mask_gradient(self):
        p = Parameter("p", np.ones((4, 4)))
        rng = np.random.default_rng(5)
        out = ad.dropout(p, 0.5, rng)
        mask = out.data.copy()  # input is all-ones, so the output is the mask
        ad.backward(scalarize(out))
        assert np.allclose(np.sign(np.abs(p.grad)), np.sign(mask))


class TestSmoothL1:
    def test_exact_match_is_zero(self):
        t = np.array([[0.3, -0.2, 0.1, 0.0]])
        assert float(ad.smooth_l1(Tensor(t.copy()), t).data) == 0.0

    def test_unit_difference(self):
        assert float(ad.smooth_l1(Tensor(np.array([[1.0, 0, 0, 0]])),
                                  np.zeros((1, 4))).data) == pytest.approx(0.5, abs=1e-15)

    def test_large_difference(self):
        assert float(ad.smooth_l1(Tensor(np.array([[2.0, 0, 0, 0]])),
                                  np.zeros((1, 4))).data) == pytest.approx(1.5, abs=1e-15)


def one_param_store(value):
    """A store holding one parameter ``p`` set to ``value``."""
    value = np.asarray(value, dtype=np.float64)
    params = ad.ModelParams({"p": value.shape})
    params["p"].data[...] = value
    return params, params["p"]


def reference_adam_step(params, state):
    """Adam as it ran one parameter at a time, with a moment array per name."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p in params.values():
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
        zero_grad(p)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params, p = one_param_store([[1.0, -2.0]])
        state = ad.OptimizerState(params, lr=0.5)
        before = p.data.copy()
        ad.adam_step(params, state)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        params, p = one_param_store([[1.0]])
        p.grad[...] = 1.0
        state = ad.OptimizerState(params, lr=0.1)
        ad.adam_step(params, state)
        # bias-corrected first step is lr / (1 + eps)
        assert 1.0 - p.data.item() == pytest.approx(0.1, abs=1e-7)
        assert np.array_equal(p.grad, np.zeros((1, 1)))

    def test_descends_convex_quadratic(self):
        params, p = one_param_store([[3.0]])
        state = ad.OptimizerState(params, lr=0.2)
        losses = []
        for _ in range(3):
            loss = ad.matmul(p, ad.transpose(p))
            losses.append(loss.data.item())
            ad.backward(loss)
            ad.adam_step(params, state)
        assert losses[0] > losses[1] > losses[2]

    def test_flat_step_matches_per_parameter_reference(self):
        cfg = tiny_config(14, 20, name="mttsnet,mtl,rem")
        flat, ref = fresh_params(cfg, seed=3), fresh_params(cfg, seed=3)
        state = ad.OptimizerState(flat, lr=0.01)
        ref_state = ad.OptimizerState(ref, lr=0.01)
        ref_state.m = {name: np.zeros(p.shape) for name, p in ref.items()}
        ref_state.v = {name: np.zeros(p.shape) for name, p in ref.items()}
        rng = np.random.default_rng(4)
        for _ in range(4):
            grads = {name: rng.normal(size=p.shape) for name, p in flat.items()}
            for store in (flat, ref):
                for name, p in store.items():
                    p.grad[...] = grads[name]
            ad.adam_step(flat, state)
            reference_adam_step(ref, ref_state)
            for name in flat:
                assert flat[name].data.tobytes() == ref[name].data.tobytes(), name
                assert flat.views(state.m)[name].tobytes() == ref_state.m[name].tobytes()
                assert flat.views(state.v)[name].tobytes() == ref_state.v[name].tobytes()
            assert not flat.grad.any() and state.step_count == ref_state.step_count


class TestModelParams:
    def test_parameters_are_views_of_the_flat_buffers(self):
        params = fresh_params(tiny_config(14, 20, name="mttsnet,mtl,rem"))
        assert params.data.size == sum(p.data.size for p in params.values())
        for name, p in params.items():
            assert p.name == name
            assert np.shares_memory(p.data, params.data), name
            assert np.shares_memory(p.grad, params.grad), name
        params.grad[...] = 1.0
        assert all(p.grad.all() for p in params.values())

    def test_views_follow_the_layout(self):
        params = ad.ModelParams({"w": (2, 3), "b": (3,)})
        assert list(params) == ["w", "b"]
        views = params.views(np.arange(9.0))
        assert views["w"].tolist() == [[0, 1, 2], [3, 4, 5]]
        assert views["b"].tolist() == [6, 7, 8]


class TestTileRows:
    def test_pads_to_whole_tiles_and_copies_only_when_needed(self):
        x = np.arange(3 * ad.TILE * 2, dtype=np.float64).reshape(-1, 2)
        whole = ad.tile_rows(x)
        assert whole.shape == (3, ad.TILE, 2) and np.shares_memory(whole, x)
        part = ad.tile_rows(x[:ad.TILE + 1])
        assert part.shape == (2, ad.TILE, 2) and not np.shares_memory(part, x)
        assert np.array_equal(part.reshape(-1, 2)[:ad.TILE + 1], x[:ad.TILE + 1])
        assert not part.reshape(-1, 2)[ad.TILE + 1:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pads_in_the_input_dtype(self, dtype):
        x = np.random.default_rng(1).normal(size=(ad.TILE + 3, 5)).astype(dtype)
        tiled = ad.tile_rows(x)
        assert tiled.dtype == dtype
        rows = tiled.reshape(-1, 5)
        assert rows[:len(x)].tobytes() == x.tobytes()
        assert rows[len(x):].tobytes() == bytes(rows[len(x):].nbytes)


class TestTileMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_row_count_equals_rows_multiplied_alone(self, dtype):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3 * ad.TILE + 1, 7)).astype(dtype)
        w = rng.normal(size=(7, 5)).astype(dtype)
        alone = np.concatenate([ad._tile_matmul(x[i:i + 1], w) for i in range(len(x))])
        assert alone.dtype == dtype
        for n in range(len(x) + 1):
            got = ad._tile_matmul(x[:n], w)
            assert got.shape == (n, 5) and got.dtype == dtype
            assert got.tobytes() == alone[:n].tobytes(), n

    def test_whole_tiles_are_not_copied(self, monkeypatch):
        x = np.random.default_rng(3).normal(size=(2 * ad.TILE + 3, 4))
        w = np.ones((4, 2))
        padded = []
        real = ad.tile_rows

        def spy(rows):
            padded.append(len(rows))
            return real(rows)

        monkeypatch.setattr(ad, "tile_rows", spy)
        ad._tile_matmul(x, w)
        assert padded == [3]


class TestFiniteDiffCheck:
    def test_small_network(self):
        rng = np.random.default_rng(21)
        w = Parameter("w", rng.uniform(-1, 1, size=(4, 3)))
        b = Parameter("b", rng.uniform(-1, 1, size=3))
        x = rng.uniform(-1, 1, size=(2, 4))

        def forward():
            return ad.weighted_cross_entropy(ad.affine(Tensor(x), w, b), [0, 2], [0.5, 0.5])

        assert finite_diff_check(forward, [w, b]) < 1e-5

    def test_constant_function(self):
        w = Parameter("w", np.ones((2, 2)))
        assert finite_diff_check(lambda: Tensor(1.5), [w]) == 0.0

    def test_detects_nondeterminism(self):
        counter = {"n": 0}

        def forward():
            counter["n"] += 1
            return Tensor(float(counter["n"]))

        with pytest.raises(ValueError, match="deterministic"):
            finite_diff_check(forward, [])


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = ad.glorot_init(7, 5, np.random.default_rng(42))
        b = ad.glorot_init(7, 5, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_forward_and_gradients_repeatable(self):
        def run():
            rng = np.random.default_rng(9)
            w = Parameter("w", rng.uniform(-1, 1, size=(3, 3)))
            x = rng.uniform(-1, 1, size=(2, 3))
            loss = ad.weighted_cross_entropy(
                ad.affine(Tensor(x), w, Parameter("b", np.zeros(3))), [0, 1], [0.5, 0.5])
            ad.backward(loss)
            return float(loss.data), w.grad.tobytes()

        assert run() == run()


class TestNoGrad:
    def test_ops_return_plain_leaves_with_equal_values(self):
        rng = np.random.default_rng(4)
        w = Parameter("w", rng.normal(size=(3, 2)))
        b = Parameter("b", rng.normal(size=2))
        x = Tensor(rng.normal(size=(4, 3)))
        taped = ad.row_softmax(ad.affine(x, w, b))
        with ad.no_grad():
            free = ad.row_softmax(ad.affine(x, w, b))
        assert taped._parents and taped._backward is not None
        assert free._parents == () and free._backward is None
        assert np.array_equal(taped.data, free.data)

    def test_flag_restored_after_exception(self):
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        w = Parameter("w", np.ones((1, 1)))
        assert ad.relu(w)._parents == (w,)

    def test_nested_block_restores_outer_state(self):
        w = Parameter("w", np.ones((1, 1)))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.relu(w)._parents == ()
        assert ad.relu(w)._parents == (w,)

    def test_block_in_one_thread_leaves_another_recording(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with ad.no_grad():
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=hold_no_grad)
        thread.start()
        try:
            assert entered.wait(10)
            w = Parameter("w", np.array([[2.0]]))
            loss = scalarize(ad.relu(w))
            assert loss._parents
            ad.backward(loss)
            assert w.grad[0, 0] != 0.0
        finally:
            release.set()
            thread.join()

    def test_threads_toggling_concurrently_keep_their_own_flag(self):
        errors = []
        w = Parameter("w", np.ones((2, 2)))

        def worker(offset):
            for i in range(300):
                if (i + offset) % 2:
                    with ad.no_grad():
                        if ad.relu(w)._parents != ():
                            errors.append("recorded inside no_grad")
                elif ad.relu(w)._parents != (w,):
                    errors.append("not recorded outside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_backward_inside_block_raises(self):
        w = Parameter("w", np.array([[2.0]]))
        loss = scalarize(ad.relu(w))
        with ad.no_grad():
            with pytest.raises(RuntimeError):
                ad.backward(loss)
        ad.backward(loss)
        assert w.grad[0, 0] != 0.0


def masked_sigmoid(v):
    """The earlier sigmoid: boolean-mask compaction by sign."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class TestSigmoidBitIdentity:
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 36.0, -36.0, 709.0, -709.0,
               710.0, -710.0, 745.0, -745.0, math.inf, -math.inf, math.nan, -math.nan]

    @staticmethod
    def inputs():
        rng = np.random.default_rng(20)
        yield np.array(TestSigmoidBitIdentity.SPECIAL)
        for _ in range(20):
            yield rng.standard_normal(10 ** 5)

    @staticmethod
    def assert_bit_equal(v):
        want, got = masked_sigmoid(v), ad._sigmoid(v)
        assert np.array_equal(want, got, equal_nan=True)
        assert np.array_equal(np.signbit(want), np.signbit(got))

    def test_contiguous_arrays(self):
        for v in self.inputs():
            self.assert_bit_equal(v)

    def test_column_slices_of_a_wider_array(self):
        for v in self.inputs():
            wide = np.stack([v[::-1], v, -v], axis=1)
            for col in range(3):
                assert not wide[:, col].flags.c_contiguous
                self.assert_bit_equal(wide[:, col])
