"""Semantics tests: scalar soft operators, exact and smooth evaluation.

Exact evaluation is checked against the naive recursive oracle in
oracle.py on randomly generated formulas, in both until conventions.
Smooth evaluation is checked the same way against the oracle's explicit
soft recursion. Hand-derived values are frozen as literals.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import rand_formula, rand_signal
from oracle import ef_ops, lse_ops, naive_exact, naive_soft
from smoothstl.formula import LinearPredicate, Not, Pred, conj, to_nnf
from smoothstl.gradient import eval_with_gradient, finite_difference_gradient, grad_smooth_max
from smoothstl.parser import parse
from smoothstl.robustness import (
    EXACT,
    OperatorCounter,
    SemanticsConfig,
    SemanticsError,
    Signal,
    count_operator_evals,
    evaluate,
    load_signal_csv,
    lse_max,
    max_error_bound,
    min_error_bound,
    save_signal_csv,
    smooth_max,
    smooth_min,
)
from smoothstl.scenarios import build_problem, builtin_scenario


class TestSignal:
    def test_basic_shape(self):
        sig = Signal([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert sig.p == 2
        assert sig.T == 2
        assert len(sig) == 3
        assert_allclose(sig.sample(1), [3.0, 4.0])

    def test_one_dimensional_convenience(self):
        sig = Signal([1.0, 2.0, 3.0])
        assert sig.p == 1
        assert sig.values.shape == (3, 1)

    def test_read_only(self):
        sig = Signal([[1.0], [2.0]])
        with pytest.raises(ValueError):
            sig.values[0, 0] = 9.0

    def test_validation(self):
        with pytest.raises(SemanticsError, match="non-finite entry at t=1, dim=0"):
            Signal([[1.0], [float("nan")]])
        with pytest.raises(SemanticsError, match="2-D"):
            Signal(np.zeros((2, 2, 2)))
        with pytest.raises(SemanticsError, match="at least one sample"):
            Signal(np.zeros((0, 2)))

    def test_sample_time_must_be_a_sample(self):
        sig = Signal([[1.0], [2.0]])
        assert sig.sample(1.0) == 2.0
        for t in (-1, 2):
            with pytest.raises(SemanticsError, match=rf"^t must lie in 0\.\.1, got {t}$"):
                sig.sample(t)
        for t in (0.5, True, "1", None):
            with pytest.raises(SemanticsError, match="^t must be a whole number"):
                sig.sample(t)


class TestSemanticsConfig:
    def test_classmethod_validation(self):
        assert SemanticsConfig.ef(2, 0).k2 == 0.0
        with pytest.raises(SemanticsError, match="^k1: must be positive$"):
            SemanticsConfig.ef(0, 1)
        with pytest.raises(SemanticsError, match="^k2: must be nonnegative$"):
            SemanticsConfig.ef(1, -1)
        with pytest.raises(SemanticsError, match="^k: must be positive$"):
            SemanticsConfig.lse(0)
        with pytest.raises(SemanticsError, match="unknown semantics"):
            SemanticsConfig("fuzzy")
        with pytest.raises(SemanticsError, match="no sharpness"):
            SemanticsConfig("exact", k1=2.0)

    def test_bools_and_strings_are_not_sharpness(self):
        # float("2") and float(True) would both succeed
        with pytest.raises(SemanticsError, match="^k1: needs a number, got '2'"):
            SemanticsConfig.ef("2", True)
        with pytest.raises(SemanticsError, match="^k2: needs a number, got True"):
            SemanticsConfig.ef(2, True)
        with pytest.raises(SemanticsError, match="^k: needs a number, got '2'"):
            SemanticsConfig.lse("2")

    def test_non_finite_sharpness_rejected(self):
        inf = float("inf")
        with pytest.raises(SemanticsError, match="^k1: must be finite$"):
            SemanticsConfig.ef(inf, inf)
        with pytest.raises(SemanticsError, match="^k2: must be finite$"):
            SemanticsConfig.ef(1.0, inf)
        with pytest.raises(SemanticsError, match="^k: must be finite$"):
            SemanticsConfig.lse(float("nan"))
        for op in (smooth_min, smooth_max, lse_max):
            with pytest.raises(ValueError, match="finite"):
                op([1.0, 2.0], inf)

    def test_config_type_checked(self):
        with pytest.raises(SemanticsError, match="SemanticsConfig"):
            evaluate(parse("y0 >= 0", p=1), Signal([1.0]), config="ef")


class TestSoftOperators:
    def test_frozen_values(self):
        assert_allclose(smooth_min([0.0, 0.0], 1.0), -math.log(2.0), rtol=1e-15)
        assert_allclose(smooth_min([0.0, 1.0], 1.0), -0.3132616875182228, rtol=1e-15)
        assert smooth_max([1.0, 3.0], 0.0) == 2.0
        assert_allclose(smooth_max([0.0, 1.0], 1.0), 0.7310585786300049, rtol=1e-15)
        assert_allclose(lse_max([0.0, 1.0], 1.0), 1.3132616875182228, rtol=1e-15)

    def test_singletons_are_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            x = float(rng.uniform(-50, 50))
            k = float(rng.uniform(0.1, 50))
            assert smooth_min([x], k) == x
            assert smooth_max([x], k) == x
            assert lse_max([x], k) == x

    def test_one_sided_with_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            a = rng.uniform(-10, 10, m)
            k1 = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
            k2 = float(rng.choice([0.0, 0.5, 2.0, 10.0]))
            lo = smooth_min(a, k1)
            assert lo <= a.min()
            assert a.min() - lo <= min_error_bound(m, k1) + 1e-12
            hi = smooth_max(a, k2)
            assert hi <= a.max()
            if m >= 2:
                srt = np.sort(a)[::-1]
                assert a.max() - hi <= max_error_bound(srt, k2) + 1e-12
            assert lse_max(a, k2 + 0.5) >= a.max()

    def test_mean_degeneration(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            a = rng.uniform(-20, 20, int(rng.integers(1, 10)))
            assert_allclose(smooth_max(a, 0.0), a.mean(), rtol=1e-12)

    def test_shift_and_permutation_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            a = rng.uniform(-5, 5, 5)
            c = float(rng.uniform(-100, 100))
            assert_allclose(smooth_min(a + c, 2.0), smooth_min(a, 2.0) + c, atol=1e-10)
            assert_allclose(smooth_max(a + c, 2.0), smooth_max(a, 2.0) + c, atol=1e-10)
            perm = rng.permutation(a)
            assert_allclose(smooth_min(perm, 2.0), smooth_min(a, 2.0), atol=1e-12)
            assert_allclose(smooth_max(perm, 2.0), smooth_max(a, 2.0), atol=1e-12)

    def test_sharpness_tightens(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            a = rng.uniform(-5, 5, int(rng.integers(2, 7)))
            gaps_min = [a.min() - smooth_min(a, k) for k in (0.5, 1.0, 5.0, 20.0)]
            gaps_max = [a.max() - smooth_max(a, k) for k in (0.5, 1.0, 5.0, 20.0)]
            for wide, tight in zip(gaps_min, gaps_min[1:]):
                assert tight <= wide + 1e-12
            for wide, tight in zip(gaps_max, gaps_max[1:]):
                assert tight <= wide + 1e-12

    def test_smooth_min_argument_monotone(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            a = rng.uniform(-5, 5, 4)
            b = a + rng.uniform(0, 2, 4)
            assert smooth_min(a, 2.0) <= smooth_min(b, 2.0) + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            smooth_min([], 1.0)
        with pytest.raises(ValueError, match="finite"):
            smooth_max([1.0, float("inf")], 1.0)
        with pytest.raises(ValueError, match="vector"):
            smooth_min(np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="^k1: must be positive$"):
            smooth_min([1.0], 0.0)
        with pytest.raises(ValueError, match="^k2: must be nonnegative$"):
            smooth_max([1.0], -1.0)
        with pytest.raises(ValueError, match="^k: must be positive$"):
            lse_max([1.0], 0.0)

    def test_sharpness_is_not_a_bool_or_a_string(self):
        with pytest.raises(ValueError, match="^k1: needs a number, got '2'"):
            smooth_min([1.0, 2.0], "2")
        with pytest.raises(ValueError, match="^k2: needs a number, got True"):
            smooth_max([1.0, 2.0], True)
        with pytest.raises(ValueError, match="^k: needs a number, got '2'"):
            lse_max([1.0, 2.0], "2")


class TestOverflow:
    """Margins spread beyond the float range overflow the soft reducers'
    shifted differences a - m. No warning may escape (the suite turns
    every warning into an error), and every value stays finite and, for
    ef, no larger than the exact one. k = 0 is the mean, which used to
    give NaN; a subnormal k caps the differences at the largest float."""

    SPREAD = [1e308, -1e308]

    @pytest.mark.parametrize("k", [2.0, 1e-310])
    def test_soft_min_and_lse_max(self, k):
        assert -math.inf < smooth_min(self.SPREAD, k) <= -1e308
        assert 1e308 <= lse_max(self.SPREAD, k) < math.inf

    @pytest.mark.parametrize("k", [0.0, 1e-310, 2.0])
    def test_soft_max_and_its_weights(self, k):
        value = smooth_max(self.SPREAD, k)
        assert -math.inf < value <= 1e308
        weights = grad_smooth_max(self.SPREAD, k)
        assert np.isfinite(weights).all()
        if k == 0.0:
            assert weights.tolist() == [0.5, 0.5]

    def check(self, phi, y, classic_until=False):
        exact = evaluate(phi, y, 0, EXACT, classic_until)
        for cfg in (SemanticsConfig.ef(2.0, 2.0), SemanticsConfig.ef(2.0, 0.0)):
            value = evaluate(phi, y, 0, cfg, classic_until)
            assert -math.inf < value <= exact
            grad = eval_with_gradient(phi, y, 0, cfg, classic_until)
            assert grad.value == value
            assert np.isfinite(grad.dsignal).all()
        assert math.isfinite(evaluate(phi, y, 0, SemanticsConfig.lse(2.0), classic_until))

    def test_builtin_with_a_huge_coordinate(self):
        problem = build_problem(builtin_scenario("two_target"))
        y = np.zeros((problem.T + 1, 4))
        y[2, 2:] = 1e308
        self.check(problem.phi, y)

    @pytest.mark.parametrize("op", ["U", "R"])
    @pytest.mark.parametrize("classic_until", [False, True])
    def test_until_and_release_over_alternating_extremes(self, op, classic_until):
        phi = parse(f"(y0 >= 0) {op}[1,5] (-y0 >= 0)", p=1)
        y = np.array([1e308, -1e308] * 6)[:, None]
        self.check(phi, y, classic_until)
        self.check(phi, -y, classic_until)  # the held extreme jumps across the range

    @pytest.mark.parametrize("spec,samples", [
        ("G[0,1] y0 >= 0", 2),
        ("(y0 >= 0) U[0,2] (y0 >= 1)", 3),
        ("(y0 >= 0) R[0,2] (y0 >= 1)", 3),
    ])
    @pytest.mark.parametrize("classic_until", [False, True])
    def test_subnormal_sharpness(self, spec, samples, classic_until):
        # log(s)/k overflows at k1 = 1e-310, which used to give -inf, and
        # -inf - -inf inside an until; the soft minimums clamp instead
        assert -math.inf < smooth_min([0.0, 0.0], 1e-310) <= 0.0
        phi = parse(spec, p=1)
        y = np.zeros((samples, 1))
        exact = evaluate(phi, y, 0, EXACT, classic_until)
        cfg = SemanticsConfig.ef(1e-310, 1.0)
        value = evaluate(phi, y, 0, cfg, classic_until)
        assert -math.inf < value <= exact
        grad = eval_with_gradient(phi, y, 0, cfg, classic_until)
        assert grad.value == value
        assert np.isfinite(grad.dsignal).all()


class TestNonFiniteMargins:
    """An affine margin beyond the float range used to reach the reducers
    as an infinity: -inf exact and NaN for ef, with the matmul's overflow
    warning escaping. It is refused like a callable's non-finite margin."""

    PHI = "G[0,2] 2*y0 >= 0"

    @pytest.mark.parametrize("x", [-1e308, 1e308])
    def test_affine_overflow_is_refused(self, x):
        phi, y = parse(self.PHI, p=1), [[x], [1.0], [1.0]]
        for cfg in (EXACT, SemanticsConfig.ef(2.0, 2.0), SemanticsConfig.lse(2.0)):
            with pytest.raises(SemanticsError, match="^predicate produced a non-finite margin$"):
                evaluate(phi, y, 0, cfg)
        with pytest.raises(SemanticsError, match="non-finite margin"):
            eval_with_gradient(phi, y, 0, SemanticsConfig.ef(2.0, 2.0))

    def test_huge_finite_margins_pass(self):
        # squares past the float range take the full check, which passes them
        phi = parse("G[0,2] 2*y0 - 0.5*y1 >= 0", p=2)
        y = [[1e200, 0.0], [1.0, -1e300], [1.0, 0.0]]
        assert evaluate(phi, y) == 2.0
        grad = eval_with_gradient(phi, y, 0, SemanticsConfig.ef(2.0, 2.0))
        assert np.isfinite(grad.value) and np.isfinite(grad.dsignal).all()

    def test_only_margins_the_formula_reads_count(self):
        y = [[-1e308], [1.0], [1.0]]
        assert evaluate(parse("F[1,2] 2*y0 >= 0", p=1), y) == 2.0
        assert evaluate(parse("G[0,1] 2*y0 >= 0", p=1), y, 1) == 2.0
        with pytest.raises(SemanticsError, match="non-finite margin"):
            evaluate(parse("G[0,1] 2*y0 >= 0", p=1), y)


class TestUntilConventionFlag:
    # a string such as "false" is truthy, and used to select the classic until
    PHI, SIGNAL = "y0 >= 0 U[1,1] y1 >= 0", [[-9.0, 0.0], [5.0, 5.0]]

    @pytest.mark.parametrize("flag", ["false", "true", None, 2])
    def test_flag_must_be_true_or_false(self, flag):
        phi, cfg = parse(self.PHI, p=2), SemanticsConfig.ef(2.0, 2.0)
        message = f"^classic_until: needs true or false, got {flag!r}$"
        for call in (
            lambda: evaluate(phi, self.SIGNAL, classic_until=flag),
            lambda: eval_with_gradient(phi, self.SIGNAL, config=cfg, classic_until=flag),
            lambda: finite_difference_gradient(phi, self.SIGNAL, config=cfg, classic_until=flag),
        ):
            with pytest.raises(SemanticsError, match=message):
                call()

    @pytest.mark.parametrize("flag", [np.array([True, False]), np.array([True]), np.array(False)])
    def test_an_array_flag_is_refused(self, flag):
        # the truth of an array is ambiguous, or, for one element, easily unmeant
        phi, cfg = parse(self.PHI, p=2), SemanticsConfig.ef(2.0, 2.0)
        message = f"classic_until: needs true or false, got {flag!r}"
        for call in (
            lambda: evaluate(phi, self.SIGNAL, classic_until=flag),
            lambda: eval_with_gradient(phi, self.SIGNAL, config=cfg, classic_until=flag),
            lambda: finite_difference_gradient(phi, self.SIGNAL, config=cfg, classic_until=flag),
        ):
            with pytest.raises(SemanticsError) as info:
                call()
            assert str(info.value) == message

    def test_true_false_and_their_numbers_still_work(self):
        phi = parse(self.PHI, p=2)
        assert evaluate(phi, self.SIGNAL, classic_until=False) == 5.0
        for flag in (True, 1, np.True_):
            assert evaluate(phi, self.SIGNAL, classic_until=flag) == -9.0


class TestErrorBounds:
    def test_frozen_values(self):
        assert_allclose(min_error_bound(8, 2.0), 1.0397207708399179, rtol=1e-15)
        assert_allclose(max_error_bound([1.0, 0.0], 1.0), 0.2689414213699951, rtol=1e-15)

    def test_min_bound_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            min_error_bound(0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            min_error_bound(3, 0.0)

    def test_min_bound_count_must_be_whole(self):
        with pytest.raises(ValueError, match="m must be a whole number, got 2.7"):
            min_error_bound(2.7, 1.0)
        assert min_error_bound(3.0, 1.0) == min_error_bound(3, 1.0)

    def test_min_bound_count_is_not_a_bool_or_a_string(self):
        with pytest.raises(ValueError, match="^m must be a whole number, got True"):
            min_error_bound(True, 2.0)
        with pytest.raises(ValueError, match="^m must be a whole number, got '2'"):
            min_error_bound("2", 2.0)
        with pytest.raises(ValueError, match="^k1: needs a number, got True"):
            min_error_bound(2, True)

    def test_max_bound_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            max_error_bound([1.0], 1.0)
        with pytest.raises(ValueError, match="descending"):
            max_error_bound([0.0, 1.0], 1.0)

    def test_min_bound_refuses_a_sharpness_too_small_for_a_finite_bound(self):
        with pytest.raises(ValueError, match="^k1 is too small for a finite bound over 3 "):
            min_error_bound(3, 5e-324)
        assert min_error_bound(1, 5e-324) == 0.0

    @pytest.mark.parametrize("a", [
        [1e308, -1e308],
        [1e308, 1e308, -1e308],
        [1.5e308, 0.0, -2e307],  # (m - 1) times the spread overflows
        [1e308, 0.0, -1e308, -1e308],
    ])
    @pytest.mark.parametrize("k2", [0.0, 1e-300, 1e-3, 1.0, 1e300])
    def test_max_bound_past_the_float_range(self, a, k2):
        # the spread overflows; the bound stays finite and still bounds the gap
        bound = max_error_bound(a, k2)
        assert np.isfinite(bound)
        assert max(a) - smooth_max(a, k2) <= bound

    def test_asymptotic_branch(self):
        # top-two gap of 701 at k2=1 crosses the exp switchover; the bound
        # must stay a finite nonnegative upper bound for the (tiny) gap
        a = np.array([701.0, 0.0])
        bound = max_error_bound(a, 1.0)
        gap = a.max() - smooth_max(a, 1.0)
        assert 0.0 <= gap <= bound < 1e-300


class TestEvaluateExact:
    def test_always_hand_case(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        assert evaluate(phi, Signal([1.0, 2.0, 0.5])) == 0.5

    def test_eventually_hand_case(self):
        phi = parse("F[0,2] y0 >= 0", p=1)
        assert evaluate(phi, Signal([1.0, 2.0, 0.5])) == 2.0

    def test_until_hand_case_both_conventions(self):
        phi = parse("y0 >= 0 U[0,2] y0 >= 1", p=1)
        sig = Signal([2.0, 0.5, 3.0])
        assert evaluate(phi, sig) == 1.0
        assert evaluate(phi, sig, classic_until=True) == 1.0

    def test_until_conventions_differ(self):
        # the held operand's history starts at t+lo in the default
        # convention but at t in the classic one, so an early violation of
        # the left operand is only visible to classic
        phi = parse("y0 >= 0 U[1,1] y1 >= 0")
        sig = Signal([[-9.0, 0.0], [5.0, 5.0]])
        assert evaluate(phi, sig) == 5.0
        assert evaluate(phi, sig, classic_until=True) == -9.0

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            phi = rand_formula(rng, 2, 2, 6)
            sig = rand_signal(rng, phi, 2)
            assert evaluate(Not(phi), sig) == -evaluate(phi, sig)

    def test_release_is_the_until_dual(self):
        rng = np.random.default_rng(41)
        for _ in range(80):
            left = rand_formula(rng, 2, 1, 2)
            right = rand_formula(rng, 2, 1, 2)
            lo = int(rng.integers(0, 3))
            hi = lo + int(rng.integers(0, 3))
            rel = left.release(right, lo, hi)
            dual = Not(Not(left).until(Not(right), lo, hi))
            sig = rand_signal(rng, rel, 2, slack=1)
            for classic in (False, True):
                a = evaluate(rel, sig, classic_until=classic)
                b = evaluate(dual, sig, classic_until=classic)
                assert a == b

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            phi = rand_formula(rng, 2, 3, 8)
            sig = rand_signal(rng, phi, 2, slack=int(rng.integers(0, 3)))
            for classic in (False, True):
                got = evaluate(phi, sig, classic_until=classic)
                want = naive_exact(phi, sig.values, 0, classic)
                assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_evaluation_time_offset(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            phi = rand_formula(rng, 2, 2, 4)
            sig = rand_signal(rng, phi, 2, slack=3)
            for t in (1, 2, 3):
                got = evaluate(phi, sig, t=t)
                assert_allclose(got, naive_exact(phi, sig.values, t), rtol=0, atol=1e-9)

    def test_signal_length_checked(self):
        phi = parse("G[0,5] y0 >= 0", p=1)
        with pytest.raises(SemanticsError, match="signal too short"):
            evaluate(phi, Signal([1.0, 2.0, 3.0]))
        with pytest.raises(SemanticsError, match="nonnegative"):
            evaluate(phi, Signal(np.ones(6)), t=-1)

    def test_evaluation_time_is_not_a_bool_or_a_string(self):
        # int(True) is 1, so t=True used to evaluate at t = 1
        phi = parse("y0 >= 0", p=1)
        for t in (True, "1"):
            with pytest.raises(SemanticsError, match=f"time t must be a whole number, got {t!r}"):
                evaluate(phi, Signal([1.0, 2.0]), t=t)

    def test_predicate_dimension_checked(self):
        phi = parse("y1 >= 0", p=2)
        with pytest.raises(SemanticsError, match="dimensions"):
            evaluate(phi, Signal([1.0, 2.0]))


class TestEvaluateSmooth:
    def test_tied_minimum_hand_case(self):
        phi = parse("G[0,1] y0 >= 0", p=1)
        value = evaluate(phi, Signal([0.0, 0.0]), config=SemanticsConfig.ef(1, 1))
        assert_allclose(value, -math.log(2.0), rtol=1e-15)

    def test_requires_nnf(self):
        phi = Not(parse("G[0,1] y0 >= 0", p=1))
        with pytest.raises(SemanticsError, match="negation normal form"):
            evaluate(phi, Signal([1.0, 1.0]), config=SemanticsConfig.ef(2, 2))
        evaluate(to_nnf(phi), Signal([1.0, 1.0]), config=SemanticsConfig.ef(2, 2))

    def test_matches_soft_oracle_ef(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            phi = rand_formula(rng, 2, 3, 6)
            sig = rand_signal(rng, phi, 2)
            k1 = float(rng.choice([0.5, 2.0, 10.0]))
            k2 = float(rng.choice([0.0, 0.5, 2.0, 10.0]))
            min_op, max_op = ef_ops(k1, k2)
            for classic in (False, True):
                got = evaluate(phi, sig, config=SemanticsConfig.ef(k1, k2),
                               classic_until=classic)
                want = naive_soft(phi, sig.values, min_op, max_op, 0, classic)
                assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_matches_soft_oracle_lse(self):
        rng = np.random.default_rng(51)
        for _ in range(120):
            phi = rand_formula(rng, 2, 2, 6)
            sig = rand_signal(rng, phi, 2)
            k = float(rng.choice([1.0, 5.0]))
            min_op, max_op = lse_ops(k)
            got = evaluate(phi, sig, config=SemanticsConfig.lse(k))
            want = naive_soft(phi, sig.values, min_op, max_op)
            assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_soundness_spot_check(self):
        rng = np.random.default_rng(52)
        for _ in range(150):
            phi = rand_formula(rng, 2, 3, 6)
            sig = rand_signal(rng, phi, 2)
            exact = evaluate(phi, sig)
            for k in (0.5, 2.0, 10.0):
                smooth = evaluate(phi, sig, config=SemanticsConfig.ef(k, k))
                assert smooth <= exact + 1e-9
                if smooth > 0:
                    assert exact > 0

    def test_lse_overshoot_witness(self):
        # a disjunction of two falsified atoms: exact robustness is -0.1,
        # but the lse maximum adds log(2)/k on a tie and flips the sign
        phi = parse("y0 >= 0.1 or -y0 >= 0.1", p=1)
        sig = Signal([0.0])
        assert evaluate(phi, sig) == -0.1
        lse_val = evaluate(phi, sig, config=SemanticsConfig.lse(1.0))
        assert_allclose(lse_val, -0.1 + math.log(2.0), rtol=1e-12)
        assert lse_val > 0
        assert evaluate(phi, sig, config=SemanticsConfig.ef(1, 1)) < 0

    def test_disjunction_mean_at_zero_sharpness(self):
        phi = parse("F[0,2] y0 >= 0", p=1)
        value = evaluate(phi, Signal([1.0, 2.0, 6.0]), config=SemanticsConfig.ef(1, 0))
        assert value == 3.0


class TestOperatorCounting:
    def test_always_cost_is_window_width(self):
        phi = parse("G[0,10] y0 >= 0", p=1)
        with count_operator_evals() as c:
            evaluate(phi, Signal(np.ones(11)), config=SemanticsConfig.ef(2, 2))
        assert c.applications == 1
        assert c.scalars == 11
        assert c.forwards == 1

    def test_nested_cost_memoizes_shared_subterms(self):
        # G[0,3] is needed at offsets 1..10 and evaluated once per offset:
        # 10 applications of 4 scalars, plus the F over 10 slots
        phi = parse("F[1,10] G[0,3] y0 >= 0", p=1)
        with count_operator_evals() as c:
            evaluate(phi, Signal(np.ones(14)), config=SemanticsConfig.ef(2, 2))
        assert c.applications == 11
        assert c.scalars == 50
        assert c.forwards == 1

    def test_forwards_accumulate(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        sig = Signal(np.ones(3))
        with count_operator_evals() as c:
            evaluate(phi, sig, config=SemanticsConfig.ef(2, 2))
            evaluate(phi, sig, config=SemanticsConfig.ef(2, 2))
        assert c.forwards == 2
        assert c.scalars == 6

    def test_exact_evaluation_counts_nothing(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        with count_operator_evals() as c:
            evaluate(phi, Signal(np.ones(3)), config=EXACT)
        assert c.applications == 0 and c.scalars == 0 and c.forwards == 0

    def test_counter_blocks_nest_independently(self):
        phi = parse("G[0,2] y0 >= 0", p=1)
        sig = Signal(np.ones(3))
        with count_operator_evals() as outer:
            evaluate(phi, sig, config=SemanticsConfig.ef(2, 2))
            with count_operator_evals() as inner:
                evaluate(phi, sig, config=SemanticsConfig.ef(2, 2))
            assert inner.forwards == 1
        assert outer.forwards == 1

    def test_counter_starts_at_zero(self):
        c = OperatorCounter()
        assert (c.applications, c.scalars, c.forwards) == (0, 0, 0)


class TestSignalCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        sig = Signal(rng.uniform(-7, 7, size=(9, 3)))
        path = tmp_path / "sig.csv"
        save_signal_csv(sig, path)
        back = load_signal_csv(path)
        assert (back.values == sig.values).all()

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y0,z1\n0,1.0,2.0\n")
        with pytest.raises(SemanticsError, match="y1"):
            load_signal_csv(path)
        path.write_text("time,y0\n0,1.0\n")
        with pytest.raises(SemanticsError, match="header"):
            load_signal_csv(path)

    def test_timestep_gaps_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,y0\n0,1.0\n2,2.0\n")
        with pytest.raises(SemanticsError, match="without gaps"):
            load_signal_csv(path)

    def test_blank_first_line_is_a_bad_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\nt,y0\n0,1.0\n")
        with pytest.raises(SemanticsError, match="expected header"):
            load_signal_csv(path)

    def test_row_lengths_are_checked_before_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y0\n0,one\n1,1.0,2.0\n")
        with pytest.raises(SemanticsError, match="row 3 has 3 fields, expected 2"):
            load_signal_csv(path)
        path.write_text("t,y0\n0,1.0\n1,two\n")
        with pytest.raises(SemanticsError, match="row 3 has a malformed number"):
            load_signal_csv(path)

    def test_non_finite_cell_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y0\n0,1.0\n1,-inf\n")
        with pytest.raises(SemanticsError, match="bad.csv: row 3 has a non-finite number"):
            load_signal_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SemanticsError, match="empty"):
            load_signal_csv(path)
