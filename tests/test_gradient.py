"""Gradient tests: operator weights, the tape sweep, and FD agreement.

The finite-difference comparison is the independent route here: the
analytic backward pass must land within central-difference error of a
value computed purely by re-running the forward evaluator.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_formula, rand_signal
from smoothstl.formula import (
    CallablePredicate,
    FormulaError,
    LinearPredicate,
    Not,
    Pred,
)
from smoothstl.gradient import (
    RobustnessGradient,
    eval_with_gradient,
    finite_difference_gradient,
    grad_smooth_max,
    grad_smooth_min,
    load_gradient_csv,
    save_gradient_csv,
)
from smoothstl.parser import parse
from smoothstl.robustness import SemanticsConfig, SemanticsError, Signal, evaluate

EF = SemanticsConfig.ef(2.0, 2.0)


class TestOperatorWeights:
    def test_frozen_min_weights(self):
        # softmax of -a at k1=1: sigmoid(1) and its complement
        got = grad_smooth_min([0.0, 1.0], 1.0)
        assert_allclose(got, [0.7310585786300049, 0.2689414213699951], rtol=1e-15)

    def test_frozen_max_weights(self):
        # closed form at k2=1 over [0,1]: ((1-s)^2, s(2-s)) with s=sigmoid(1)
        got = grad_smooth_max([0.0, 1.0], 1.0)
        assert_allclose(got, [0.07232948812851325, 0.9276705118714869], rtol=1e-15)

    def test_min_weights_positive_and_normalized(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            a = rng.uniform(-10, 10, int(rng.integers(1, 8)))
            k1 = float(rng.uniform(0.2, 20))
            w = grad_smooth_min(a, k1)
            assert (w > 0).all() and (w <= 1).all()
            assert_allclose(w.sum(), 1.0, atol=1e-10)

    def test_max_weights_normalized_not_necessarily_positive(self):
        rng = np.random.default_rng(71)
        saw_negative = False
        for _ in range(200):
            a = rng.uniform(-10, 10, int(rng.integers(1, 8)))
            k2 = float(rng.uniform(0.0, 20))
            w = grad_smooth_max(a, k2)
            assert_allclose(w.sum(), 1.0, atol=1e-10)
            saw_negative = saw_negative or (w < 0).any()
        assert saw_negative

    def test_mean_weights_at_zero_sharpness(self):
        w = grad_smooth_max([3.0, -1.0, 5.0], 0.0)
        assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            grad_smooth_min([1.0], 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            grad_smooth_max([1.0], -2.0)

    def test_underflowed_max_weights_are_zero(self):
        # k2 * (a - soft) overflows for the far entry, whose weight is 0
        w = grad_smooth_max([0.0, -1e10, 1.0], 1e300)
        assert np.isfinite(w).all()
        assert (w == [0.0, 0.0, 1.0]).all()


class TestEvalWithGradient:
    def test_predicate_leaf(self):
        result = eval_with_gradient(parse("y0 >= 0", p=1), Signal([3.0]), config=EF)
        assert result.value == 3.0
        assert (result.dsignal == np.array([[1.0]])).all()

    def test_tied_always_hand_case(self):
        phi = parse("G[0,1] y0 >= 0", p=1)
        result = eval_with_gradient(phi, Signal([0.0, 0.0]), config=SemanticsConfig.ef(1, 1))
        assert_allclose(result.value, -math.log(2.0), rtol=1e-15)
        assert_allclose(result.dsignal, [[0.5], [0.5]], rtol=1e-15)

    def test_fractional_time_is_rejected(self):
        phi = parse("F[0,2] y0 >= 1", p=1)
        sig = Signal([0.0, 1.0, 2.0, 3.0, 4.0])
        for run in (evaluate, eval_with_gradient, finite_difference_gradient):
            with pytest.raises(SemanticsError, match="time t must be a whole number, got 1.5"):
                run(phi, sig, 1.5, EF)
        # a whole float is the same time as the int
        assert evaluate(phi, sig, 2.0, EF) == evaluate(phi, sig, 2, EF)
        assert eval_with_gradient(phi, sig, 2.0, EF).value == evaluate(phi, sig, 2, EF)

    def test_value_bit_identical_to_evaluate(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            phi = rand_formula(rng, 2, 3, 6)
            sig = rand_signal(rng, phi, 2)
            k1, k2 = float(rng.uniform(0.5, 5)), float(rng.uniform(0.0, 5))
            config = SemanticsConfig.ef(k1, k2)
            result = eval_with_gradient(phi, sig, config=config)
            assert result.value == evaluate(phi, sig, config=config)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            phi = rand_formula(rng, 2, 2, 5)
            sig = rand_signal(rng, phi, 2, slack=int(rng.integers(0, 2)))
            k1 = float(rng.choice([0.5, 2.0, 10.0]))
            k2 = float(rng.choice([0.0, 2.0, 10.0]))
            config = SemanticsConfig.ef(k1, k2)
            classic = bool(rng.integers(2))
            got = eval_with_gradient(phi, sig, config=config, classic_until=classic)
            want = finite_difference_gradient(phi, sig, config=config, classic_until=classic)
            assert_allclose(got.dsignal, want, rtol=1e-4, atol=1e-7)

    def test_fd_on_linear_predicate_recovers_coefficients(self):
        pred = LinearPredicate((2.0, -0.5), 1.0)
        sig = Signal([[0.3, 0.7]])
        fd = finite_difference_gradient(Pred(pred), sig, config=EF)
        assert_allclose(fd, [[2.0, -0.5]], rtol=1e-9)

    def test_zero_outside_the_horizon(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        sig = Signal(np.arange(6.0))
        result = eval_with_gradient(phi, sig, config=EF)
        assert (result.dsignal[3:] == 0.0).all()
        assert result.dsignal[:3].sum() > 0

    def test_evaluation_time_offsets_the_support(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        sig = Signal(np.arange(6.0))
        result = eval_with_gradient(phi, sig, t=2, config=EF)
        assert (result.dsignal[:2] == 0.0).all()
        assert (result.dsignal[5:] == 0.0).all()
        assert result.dsignal[2:5].sum() > 0

    def test_tied_inputs_stay_finite(self):
        rng = np.random.default_rng(74)
        for _ in range(60):
            phi = rand_formula(rng, 2, 3, 6)
            # constant signals maximize ties through every min/max tower
            sig = Signal(np.full((rand_signal(rng, phi, 2).values.shape), 1.5))
            result = eval_with_gradient(phi, sig, config=SemanticsConfig.ef(10, 10))
            assert np.isfinite(result.value)
            assert np.isfinite(result.dsignal).all()

    def test_negated_atom_flips_the_leaf(self):
        phi = Not(parse("y0 >= 0", p=1))
        result = eval_with_gradient(phi, Signal([2.0]), config=EF)
        assert result.value == -2.0
        assert (result.dsignal == np.array([[-1.0]])).all()

    def test_config_requirements(self):
        phi = parse("y0 >= 0", p=1)
        sig = Signal([1.0])
        with pytest.raises(SemanticsError, match="ef semantics"):
            eval_with_gradient(phi, sig)
        with pytest.raises(SemanticsError, match="ef semantics"):
            eval_with_gradient(phi, sig, config=SemanticsConfig.lse(2.0))
        with pytest.raises(SemanticsError, match="config"):
            finite_difference_gradient(phi, sig)

    def test_requires_nnf(self):
        phi = Not(parse("G[0,1] y0 >= 0", p=1))
        with pytest.raises(SemanticsError, match="negation normal form"):
            eval_with_gradient(phi, Signal([1.0, 1.0]), config=EF)


class TestCallablePredicates:
    def circle(self):
        return CallablePredicate(
            fn=lambda y: 1.0 - float(y @ y),
            dim=2,
            jacobian=lambda y: -2.0 * y,
            label="unit disc",
        )

    def test_gradient_flows_through_jacobian(self):
        phi = Pred(self.circle()).always(0, 1)
        sig = Signal([[0.25, 0.5], [0.1, -0.2]])
        got = eval_with_gradient(phi, sig, config=EF)
        want = finite_difference_gradient(phi, sig, config=EF)
        assert_allclose(got.dsignal, want, rtol=1e-5, atol=1e-8)

    def test_missing_jacobian_is_an_error(self):
        phi = Pred(CallablePredicate(fn=lambda y: float(y[0]), dim=1, label="raw"))
        assert evaluate(phi, Signal([2.0]), config=EF) == 2.0
        with pytest.raises(FormulaError, match="no jacobian"):
            eval_with_gradient(phi, Signal([2.0]), config=EF)


class TestGradientCsv:
    def test_round_trip(self, tmp_path):
        phi = parse("G[0,3] y0 >= 0 and F[0,3] y1 >= 1")
        sig = Signal(np.random.default_rng(75).uniform(-2, 2, size=(4, 2)))
        result = eval_with_gradient(phi, sig, config=EF)
        path = tmp_path / "grad.csv"
        save_gradient_csv(result, path)
        back = load_gradient_csv(path)
        assert (back == result.dsignal).all()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dy0\n0,1.0\n")
        with pytest.raises(SemanticsError, match="d_y0"):
            load_gradient_csv(path)
        path.write_text("t,d_y0,d_y1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(SemanticsError, match="bad.csv: row 3 has 2 fields"):
            load_gradient_csv(path)

    def test_non_finite_cell_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,d_y0\n0,nan\n1,inf\n")
        with pytest.raises(SemanticsError, match="bad.csv: row 2 has a non-finite number"):
            load_gradient_csv(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_a_non_finite_gradient(self, tmp_path, value):
        # load_gradient_csv refuses the cell it would write
        path = tmp_path / "grad.csv"
        grad = RobustnessGradient(value=0.0, dsignal=np.array([[1.0, value]]))
        with pytest.raises(ValueError, match="^d_y must be finite$"):
            save_gradient_csv(grad, path)
        assert not path.exists()
