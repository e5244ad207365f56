"""Gradient and optimizer checks for the computation-graph core."""

import math

import numpy as np
import pytest

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
        assert ad.sigmoid(Tensor([[0.0]])).data[0, 0] == 0.5

    def test_tanh_zero(self):
        assert ad.tanh(Tensor([[0.0]])).data[0, 0] == 0.0

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
        assert float(ad.cross_entropy(Tensor(logits), [2]).data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        loss = ad.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_all_masked_is_zero_with_zero_grad(self):
        p = Parameter("logits", np.random.default_rng(0).normal(size=(2, 5)))
        loss = ad.cross_entropy(p, [1, 2], mask=[0, 0])
        assert float(loss.data) == 0.0
        ad.backward(loss)
        assert np.array_equal(p.grad, np.zeros((2, 5)))

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor(np.zeros((1, 3))), [3])


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
            return scalarize(ad.sigmoid(ad.affine(Tensor(x), w, b)))

        ad.backward(forward())
        for p in (w, b):
            oracle = numeric_grad(forward, p, eps=1e-5)
            assert np.allclose(p.grad, oracle, rtol=1e-6, atol=1e-9)


class TestPrimitiveGradients:
    """Every primitive against the central-difference oracle, inputs in [-1, 1]."""

    @pytest.mark.parametrize("name,builder", [
        ("relu", lambda p: ad.relu(p)),
        ("sigmoid", lambda p: ad.sigmoid(p)),
        ("tanh", lambda p: ad.tanh(p)),
        ("row_softmax", lambda p: ad.row_softmax(p)),
        ("transpose", lambda p: ad.transpose(p)),
        ("scale", lambda p: ad.scale(p, -1.7)),
        ("slice_cols", lambda p: ad.slice_cols(p, 1, 3)),
        ("dropout_eval", lambda p: ad.dropout(p, 0.5, None, training=False)),
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
            mixed = ad.mul(ad.add(a, b), b)
            return scalarize(ad.matmul(mixed, m))

        ad.backward(forward())
        for p in (a, b, m):
            oracle = numeric_grad(forward, p)
            rel = np.abs(p.grad - oracle) / np.maximum(1e-8, np.abs(p.grad) + np.abs(oracle))
            assert rel.max() < 1e-6
            p.zero_grad()

    def test_gather_concat_and_losses(self):
        rng = np.random.default_rng(12)
        table = Parameter("table", rng.uniform(-1, 1, size=(5, 3)))
        logits = Parameter("logits", rng.uniform(-1, 1, size=(4, 6)))
        det = Parameter("det", rng.uniform(-1, 1, size=(3, 1)))
        boxp = Parameter("boxp", rng.uniform(-1, 1, size=(2, 4)))
        box_target = rng.uniform(-0.5, 0.5, size=(2, 4))

        def forward():
            rows = ad.gather_rows(table, [0, 2, 2, 4])
            both = ad.concat([rows, ad.slice_cols(logits, 0, 3)], axis=1)
            ce = ad.weighted_cross_entropy(both, [1, 0, 5, 3], [0.3, 0.4, 0.0, 0.3])
            det_loss = ad.binary_logistic_loss(det, [1, 0, 1], [0.5, 0.25, 0.25])
            sl1 = ad.smooth_l1(boxp, box_target, [0.6, 0.4])
            return ad.add_scalars([ce, det_loss, sl1])

        ad.backward(forward())
        for p in (table, logits, det, boxp):
            oracle = numeric_grad(forward, p)
            rel = np.abs(p.grad - oracle) / np.maximum(1e-8, np.abs(p.grad) + np.abs(oracle))
            assert rel.max() < 1e-6, p.name
            p.zero_grad()

    def test_dropout_training_mask_gradient(self):
        p = Parameter("p", np.ones((4, 4)))
        rng = np.random.default_rng(5)
        out = ad.dropout(p, 0.5, rng, training=True)
        mask = out.data.copy()  # input is all-ones, so the output is the mask
        ad.backward(scalarize(out))
        assert np.allclose(np.sign(np.abs(p.grad)), np.sign(mask))


class TestSmoothL1:
    def test_exact_match_is_zero(self):
        t = np.array([0.3, -0.2, 0.1, 0.0])
        assert float(ad.smooth_l1(Tensor(t.copy()), t).data) == 0.0

    def test_unit_difference(self):
        assert float(ad.smooth_l1(Tensor(np.array([1.0, 0, 0, 0])),
                                  np.zeros(4)).data) == pytest.approx(0.5, abs=1e-15)

    def test_large_difference(self):
        assert float(ad.smooth_l1(Tensor(np.array([2.0, 0, 0, 0])),
                                  np.zeros(4)).data) == pytest.approx(1.5, abs=1e-15)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Parameter("p", np.array([[1.0, -2.0]]))
        state = ad.OptimizerState([p], lr=0.5)
        before = p.data.copy()
        ad.adam_step([p], state)
        assert np.array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        p = Parameter("p", np.array([[1.0]]))
        p.grad[...] = 1.0
        state = ad.OptimizerState([p], lr=0.1)
        ad.adam_step([p], state)
        # bias-corrected first step is lr / (1 + eps)
        assert 1.0 - p.data.item() == pytest.approx(0.1, abs=1e-7)
        assert np.array_equal(p.grad, np.zeros((1, 1)))

    def test_descends_convex_quadratic(self):
        p = Parameter("p", np.array([[3.0]]))
        state = ad.OptimizerState([p], lr=0.2)
        losses = []
        for _ in range(3):
            loss = scalarize(ad.mul(p, p))
            losses.append(loss.data.item())
            ad.backward(loss)
            ad.adam_step([p], state)
        assert losses[0] > losses[1] > losses[2]


class TestFiniteDiffCheck:
    def test_small_network(self):
        rng = np.random.default_rng(21)
        w = Parameter("w", rng.uniform(-1, 1, size=(4, 3)))
        b = Parameter("b", rng.uniform(-1, 1, size=3))
        x = rng.uniform(-1, 1, size=(2, 4))

        def forward():
            return ad.cross_entropy(ad.affine(Tensor(x), w, b), [0, 2])

        assert ad.finite_diff_check(forward, [w, b]) < 1e-5

    def test_constant_function(self):
        w = Parameter("w", np.ones((2, 2)))
        assert ad.finite_diff_check(lambda: Tensor(1.5), [w]) == 0.0

    def test_detects_nondeterminism(self):
        counter = {"n": 0}

        def forward():
            counter["n"] += 1
            return Tensor(float(counter["n"]))

        with pytest.raises(ValueError, match="deterministic"):
            ad.finite_diff_check(forward, [])


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = ad.glorot_init("p", 7, 5, np.random.default_rng(42))
        b = ad.glorot_init("p", 7, 5, np.random.default_rng(42))
        assert a.data.tobytes() == b.data.tobytes()

    def test_forward_and_gradients_repeatable(self):
        def run():
            rng = np.random.default_rng(9)
            w = Parameter("w", rng.uniform(-1, 1, size=(3, 3)))
            x = rng.uniform(-1, 1, size=(2, 3))
            loss = ad.cross_entropy(ad.affine(Tensor(x), w, Parameter("b", np.zeros(3))), [0, 1])
            ad.backward(loss)
            return float(loss.data), w.grad.tobytes()

        assert run() == run()
