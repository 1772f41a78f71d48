"""The compiled evaluation plan against the independent oracle.

A seeded differential fuzz: evaluate() under exact, ef and lse semantics
is compared with the naive recursions in oracle.py, and the analytic
gradient with central differences, over all eight node kinds, both until
conventions, evaluation times past zero, a callable predicate with a
jacobian, exact ties, magnitudes from 1e-150 to 1e150 and sharpness from
1e-3 to 1e6, plus fixed formulas that share subformula objects between
parents. Formulas with a 301-step outer window run the same checks on
the dense layout that large same-length segment blocks take, and single
untils and releases with windows up to 300 run them on the prefix scan of
their held history. Three more tests pin the operator counts, the
dense/scan/flat layout split and the reducer calls per forward pass on
the builtin scenarios and a long monitoring formula, and one checks that
charging's dense blocks move its values only by rounding. Two check that a
margin that is not finite is an outcome of its own row of a stack, named by
its sample, which changes no bit of the other rows. The last four pin a
plan's lifetime: a signal too short is refused before a compile, a plan
leaves with its formula, every live formula keeps its plan however many
are in use, and a formula that takes a dropped one's id gets its own plan.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import node_kinds, rand_formula
from oracle import ef_ops, lse_ops, naive_exact, naive_soft
from smoothstl import robustness
from smoothstl.formula import (
    Always,
    And,
    CallablePredicate,
    Eventually,
    Interval,
    LinearPredicate,
    Not,
    Or,
    Pred,
    Release,
    Until,
    conj,
    disj,
    horizon,
    to_nnf,
)
from smoothstl.gradient import eval_with_gradient, finite_difference_gradient
from smoothstl.parser import parse
from smoothstl.robustness import (
    EXACT,
    SemanticsConfig,
    SemanticsError,
    Signal,
    count_operator_evals,
    evaluate,
)
from smoothstl.scenarios import build_problem, builtin_scenario

ALL_KINDS = {"Pred", "Not", "And", "Or", "Always", "Eventually", "Until", "Release"}


def scaled(phi, s):
    """phi with every affine offset multiplied by s, so that margins on a
    signal of magnitude s have magnitude s too."""
    if isinstance(phi, Pred):
        pred = phi.predicate
        if isinstance(pred, LinearPredicate):
            return Pred(LinearPredicate(pred.coefficients, pred.offset * s))
        return phi
    if isinstance(phi, Not):
        return Not(scaled(phi.child, s))
    if isinstance(phi, (And, Or)):
        join = conj if isinstance(phi, And) else disj
        return join(*[scaled(c, s) for c in phi.children])
    if isinstance(phi, (Always, Eventually)):
        return type(phi)(phi.interval, scaled(phi.child, s))
    return type(phi)(phi.interval, scaled(phi.left, s), scaled(phi.right, s))


def disc(s):
    """Callable margin of a disc of radius s about the origin, with jacobian."""
    return CallablePredicate(
        fn=lambda y: s - float(y @ y) / s,
        dim=2,
        jacobian=lambda y: -2.0 * y / s,
        label="disc",
    )


def draw_case(rng, s):
    """A formula in NNF over 2-D signals of magnitude s, with the evaluation
    time and the signal; a third of the signals are tie-heavy."""
    phi = scaled(rand_formula(rng, 2, 3, 5), s)
    if rng.integers(3) == 0:
        atom = Pred(disc(s)).eventually(0, int(rng.integers(0, 3)))
        phi = conj(phi, atom) if rng.integers(2) else disj(phi, atom)
    t = int(rng.integers(0, 3))
    n = t + horizon(phi) + 1 + int(rng.integers(0, 2))
    if rng.integers(3) == 0:
        # few distinct values, so windows and connectives meet exact ties
        values = rng.choice([-1.0, 0.0, 1.0], size=(n, 2)) * s
    else:
        values = rng.uniform(-5.0, 5.0, size=(n, 2)) * s
    return phi, t, Signal(values)


def close(got, want, scale):
    """Relative agreement to 1e-12, measured against the larger of the value
    and the scale of the numbers that went into it."""
    return abs(got - want) <= 1e-12 * max(abs(want), scale)


def shared_cases():
    """(formula, time, signal) cases in which one node object has several
    parents, so its adjoint collects terms from several reductions; the
    signals are 2-D, with entries up to 5 in magnitude."""
    a = Pred(LinearPredicate((1.0, -0.5), 0.3))
    b = Not(Pred(LinearPredicate((0.2, 1.0), -0.1)))
    held = a.always(0, 2)
    formulas = [
        conj(a, disj(a.eventually(0, 1), b), held.eventually(0, 1), b.until(a, 0, 2)),
        disj(conj(held, b), held.until(b, 1, 2), b.release(held, 0, 1), a.until(a, 0, 1)),
    ]
    rng = np.random.default_rng(11)
    for phi in formulas:
        for t in (0, 2):
            yield phi, t, Signal(rng.uniform(-5.0, 5.0, size=(t + horizon(phi) + 2, 2)))


def check_values(phi, t, sig, s, k1, k2):
    for classic in (False, True):
        # the latest sample a leaf reads is the formula's horizon
        assert robustness._plan(phi, classic).horizon == horizon(phi)
        exact = evaluate(phi, sig, t, EXACT, classic)
        assert close(exact, naive_exact(phi, sig.values, t, classic), s)
        negated = evaluate(Not(phi), sig, t, EXACT, classic)
        assert negated == -exact
        # the soft minimum adds up to log(m)/k1 for m arguments
        scale = s + 10.0 / k1
        got = evaluate(phi, sig, t, SemanticsConfig.ef(k1, k2), classic)
        want = naive_soft(phi, sig.values, *ef_ops(k1, k2), t, classic)
        assert close(got, want, scale), (got, want, s, k1, k2)
        assert got <= exact + 1e-12 * max(abs(exact), scale)
        got = evaluate(phi, sig, t, SemanticsConfig.lse(k1), classic)
        want = naive_soft(phi, sig.values, *lse_ops(k1), t, classic)
        assert close(got, want, scale), (got, want, s, k1)


def test_values_match_the_oracle():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(300):
        s = 10.0 ** rng.uniform(-150, 150)
        phi, t, sig = draw_case(rng, s)
        seen |= node_kinds(phi)
        k1 = 10.0 ** rng.uniform(-3, 6)
        k2 = 0.0 if rng.integers(5) == 0 else 10.0 ** rng.uniform(-3, 6)
        check_values(phi, t, sig, s, k1, k2)
    assert seen == ALL_KINDS
    for phi, t, sig in shared_cases():
        for k1, k2 in ((0.5, 0.0), (2.0, 3.0), (1e4, 1e5)):
            check_values(phi, t, sig, 1.0, k1, k2)


def check_gradient(phi, t, sig, s, kappa1, kappa2, classic):
    config = SemanticsConfig.ef(kappa1 / s, kappa2 / s)
    got = eval_with_gradient(phi, sig, t, config, classic)
    assert got.value == evaluate(phi, sig, t, config, classic)
    want = finite_difference_gradient(phi, sig, t, config, h=1e-6 * s, classic_until=classic)
    assert_allclose(got.dsignal, want, rtol=1e-5, atol=1e-6)


def test_gradients_match_finite_differences():
    # the gradient is invariant under scaling the signal by s and the
    # sharpness by 1/s, so kappa = k * s sets how curved the value is
    rng = np.random.default_rng(2025)
    for _ in range(120):
        s = 10.0 ** rng.uniform(-150, 150)
        phi, t, sig = draw_case(rng, s)
        kappa1, kappa2 = 10.0 ** rng.uniform(-1, 1, size=2)
        classic = bool(rng.integers(2))
        check_gradient(phi, t, sig, s, kappa1, kappa2, classic)
    for phi, t, sig in shared_cases():
        for classic in (False, True):
            check_gradient(phi, t, sig, 1.0, 0.5, 2.0, classic)


def long_cases():
    """(formula, time, signal) cases whose outer window spans 301 times, so
    that their same-length segment blocks run on the dense path; each
    formula appears with a uniform and a tie-heavy 2-D signal."""
    a = Pred(LinearPredicate((1.0, -0.5), 0.3))
    b = Not(Pred(LinearPredicate((0.2, 1.0), -0.1)))
    c = Pred(disc(2.0))
    formulas = [
        disj(a.eventually(0, 4), b.always(1, 3)).always(0, 300),
        a.until(b, 0, 3).eventually(0, 300),
        b.release(a, 1, 3).always(0, 300),
        conj(c, a.eventually(0, 2)).eventually(0, 300),
        disj(a.until(b, 1, 2), a.release(c, 0, 2)).always(0, 300),
    ]
    rng = np.random.default_rng(12)
    for phi in formulas:
        n = 1 + horizon(phi) + 1
        yield phi, 1, Signal(rng.uniform(-3.0, 3.0, size=(n, 2)))
        yield phi, 1, Signal(rng.choice([-1.0, 0.0, 1.0], size=(n, 2)))


def layout(phi, classic):
    """Numbers of dense blocks, scans and flat groups in the plan."""
    segs = [seg for _, _, _, seg, _, _ in robustness._plan(phi, classic).groups]
    dense, scans = sum(seg is ... for seg in segs), sum(seg is None for seg in segs)
    return dense, scans, len(segs) - dense - scans


def test_dense_blocks_match_the_oracle():
    for phi, t, sig in long_cases():
        for classic in (False, True):
            assert layout(phi, classic)[0] > 0
        for k1, k2 in ((2.0, 0.0), (3.0, 4.0)):
            check_values(phi, t, sig, 3.0, k1, k2)
            config = SemanticsConfig.ef(k1, k2)
            for classic in (False, True):
                got = eval_with_gradient(phi, sig, t, config, classic).value
                assert got == evaluate(phi, sig, t, config, classic)


def test_dense_blocks_match_finite_differences():
    # the uniform signal of each formula; differences cost 1,200 evaluations
    for phi, t, sig in list(long_cases())[::2]:
        for classic in (False, True):
            check_gradient(phi, t, sig, 1.0, 0.5, 2.0, classic)


def scan_cases():
    """(formula, time, signal, magnitude) cases with one until or release,
    whose held history is one scan: both kinds, lo = 0 and lo > 0, windows
    up to 300, operands that are atoms or reductions, alone or under an
    outer window (so that the scan has several columns), on 2-D signals of
    magnitude 1e-150 to 1e150, every other one tie-heavy."""
    rng = np.random.default_rng(13)
    windows = [(0, 0), (2, 2), (0, 1), (0, 6), (3, 9), (1, 17), (0, 300), (40, 300)]
    for i, (lo, hi) in enumerate(windows * 2):
        s = 10.0 ** rng.uniform(-150, 150)
        x = scaled(Pred(LinearPredicate((1.0, -0.5), 0.3)), s)
        y = scaled(Not(Pred(LinearPredicate((0.2, 1.0), -0.1))), s)
        if i % 4 == 1:
            x, y = x.eventually(0, 1), y.always(0, 1)
        phi = x.until(y, lo, hi) if i < len(windows) else y.release(x, lo, hi)
        if hi < 300:
            phi = (phi, phi.always(0, 3), phi.eventually(1, 2))[i % 3]
        t = int(rng.integers(0, 3))
        n = t + horizon(phi) + 1
        if i % 2:
            values = rng.choice([-1.0, 0.0, 1.0], size=(n, 2)) * s
        else:
            values = rng.uniform(-5.0, 5.0, size=(n, 2)) * s
        yield phi, t, Signal(values), s


def test_scans_match_the_oracle():
    rng = np.random.default_rng(14)
    for phi, t, sig, s in scan_cases():
        for classic in (False, True):
            assert layout(phi, classic)[1] == 1
        k1 = 10.0 ** rng.uniform(-3, 6)
        k2 = 0.0 if rng.integers(4) == 0 else 10.0 ** rng.uniform(-3, 6)
        check_values(phi, t, sig, s, k1, k2)


def test_scans_match_finite_differences():
    rng = np.random.default_rng(15)
    for phi, t, sig, s in scan_cases():
        kappa1, kappa2 = 10.0 ** rng.uniform(-1, 1, size=2)
        for classic in (False, True):
            check_gradient(phi, t, sig, s, kappa1, kappa2, classic)


def test_callable_margin_must_be_finite():
    # undefined where y0 is zero; only the samples the formula reads count
    partial = CallablePredicate(fn=lambda y: float(y[0]) if y[0] else float("nan"), dim=1)
    phi = Pred(partial).always(0, 1)
    assert evaluate(phi, Signal([1.0, 2.0, 0.0])) == 1.0
    with pytest.raises(SemanticsError, match="non-finite margin"):
        evaluate(phi, Signal([1.0, 2.0, 0.0]), t=1)
    # a window that starts late never reads the samples before it
    late = Pred(partial).always(2, 3)
    assert evaluate(late, Signal([0.0, 0.0, 1.0, 2.0])) == 1.0
    with pytest.raises(SemanticsError, match="non-finite margin"):
        evaluate(late, Signal([0.0, 0.0, 1.0, 0.0]))


def window_cases():
    """(formula, its plan's first row, signal) cases whose every read starts
    late, so that the plan runs on a window from first > 0: the late goal
    window of synth_long_horizon over a box, an until and a release with
    lo > 0, and a callable predicate; 2-D signals with two samples to spare
    past the horizon of the latest evaluation time."""
    box = "y0 >= 18 and -y0 >= -20 and y1 >= 8 and -y1 >= -10"
    formulas = [
        (parse(f"F[140,150] ({box})", p=2), 140),
        (parse("(y0 - y1 >= 0.5) U[2,5] (y1 >= -2)", p=2), 2),
        (parse("(y0 >= 1) R[3,6] (-y1 >= -0.5)", p=2), 3),
        (conj(Pred(disc(2.0)).eventually(4, 7), parse("G[5,6] y0 >= -1", p=2)), 4),
    ]
    rng = np.random.default_rng(16)
    for phi, first in formulas:
        scale = 20.0 if first == 140 else 3.0
        values = rng.uniform(-scale, scale, size=(3 + horizon(phi) + 3, 2))
        yield phi, first, Signal(values)


@pytest.mark.parametrize("t", [0, 3])
def test_windows_match_the_oracle_and_finite_differences(t):
    # the plan reads only its window; values and gradients still match the
    # oracle and central differences, in both until conventions (the classic
    # one holds an until's left operand from t itself, so reads from row 0)
    config = SemanticsConfig.ef(2.0, 3.0)
    for phi, first, sig in window_cases():
        assert robustness._plan(phi, False).first == first
        check_values(phi, t, sig, 20.0, 2.0, 3.0)
        for classic in (False, True):
            got = eval_with_gradient(phi, sig, t, config, classic)
            assert got.value == evaluate(phi, sig, t, config, classic)
            want = finite_difference_gradient(phi, sig, t, config, h=1e-6, classic_until=classic)
            assert_allclose(got.dsignal, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("t", [0, 3])
def test_samples_outside_the_window_play_no_part(t):
    # dsignal is exactly 0 outside t + first .. t + horizon, and samples
    # before the window (here overwritten with other values) change no bit
    config = SemanticsConfig.ef(2.0, 3.0)
    for phi, first, sig in window_cases():
        got = eval_with_gradient(phi, sig, t, config)
        outside = np.ones(len(sig), dtype=bool)
        outside[t + first : t + horizon(phi) + 1] = False
        assert (got.dsignal[outside] == 0.0).all()
        before = sig.values.copy()
        before[: t + first] = -before[: t + first] + 0.25
        moved = eval_with_gradient(phi, Signal(before), t, config)
        assert moved.value == got.value and moved.dsignal.tobytes() == got.dsignal.tobytes()
        for semantics in (EXACT, config, SemanticsConfig.lse(2.0)):
            assert evaluate(phi, Signal(before), t, semantics) == evaluate(phi, sig, t, semantics)


def test_window_stack_equals_its_rows_bit_for_bit():
    config = SemanticsConfig.ef(2.0, 3.0)
    rng = np.random.default_rng(17)
    for phi, _, sig in window_cases():
        stack = sig.values + rng.normal(0.0, 0.5, size=(3,) + sig.values.shape)
        for t in (0, 3):
            for semantics, gradient in ((EXACT, False), (config, True)):
                values, dsignal = robustness._evaluate(phi, stack, t, semantics, False, gradient)
                for r, row in enumerate(stack):
                    want, want_d = robustness._evaluate(phi, row, t, semantics, False, gradient)
                    assert values[r] == want
                    if gradient:
                        assert dsignal[r].tobytes() == want_d.tobytes()


def bad_margin_case(seen):
    """A formula whose plan starts at sample 2, evaluated at t = 1, and a
    4-row stack: rows 0 and 2 are fine, row 1's callable margin is nan at
    sample 4 and inf at sample 6, and row 3's affine margin 2 y0 + 1
    overflows at sample 5. The callable's jacobian adds each sample it
    runs on to seen."""

    def margin(y):
        return 1.0 - y[0] if y[1] == 0.0 else (np.nan if y[1] > 0.0 else np.inf)

    def jacobian(y):
        seen.append(y.copy())
        return np.array([-1.0, 0.0])

    partial = CallablePredicate(fn=margin, dim=2, jacobian=jacobian)
    phi = conj(Pred(partial).eventually(2, 5), parse("G[3,4] 2*y0 >= -1", p=2))
    stack = np.zeros((4, 8, 2))
    stack[..., 0] = np.random.default_rng(18).uniform(-0.5, 0.5, size=(4, 8))
    stack[1, 4, 1], stack[1, 6, 1] = 1.0, -1.0
    stack[3, 5, 0] = 1e308
    return phi, stack


RUNS = ((EXACT, False), (SemanticsConfig.ef(2.0, 3.0), False), (SemanticsConfig.ef(2.0, 3.0), True))


def test_a_bad_row_is_reported_by_its_absolute_sample():
    phi, stack = bad_margin_case([])
    plan = robustness._plan(phi, False)
    assert plan.first == 2
    for config, gradient in RUNS:
        with count_operator_evals() as counter:
            *_, first_bad = plan.apply(stack, 1, config, gradient)
        assert first_bad == [None, 4, None, 5]
        assert counter.forwards == (2 if config.kind == "ef" else 0)
        # evaluation refuses the stack, and each bad signal on its own
        with pytest.raises(SemanticsError, match="^predicate produced a non-finite margin$"):
            robustness._evaluate(phi, stack, 1, config, False, gradient)
        for r in (1, 3):
            with pytest.raises(SemanticsError, match="non-finite margin"):
                plan.apply(stack[r], 1, config, gradient)
        robustness._evaluate(phi, stack[::2], 1, config, False, gradient)


def test_a_bad_row_leaves_the_others_bit_for_bit():
    # a nan and an inf margin in the middle row warn of nothing and change
    # no bit of the rows around it; no jacobian runs on the middle row
    seen = []
    phi, stack = bad_margin_case(seen)
    stack = stack[:3]
    plan = robustness._plan(phi, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for config, gradient in RUNS:
            values, dsignal, first_bad = plan.apply(stack, 1, config, gradient)
            assert first_bad == [None, 4, None]
            for r in (0, 2):
                want, want_d = robustness._evaluate(phi, stack[r], 1, config, False, gradient)
                assert values[r] == want
                if gradient:
                    assert dsignal[r].tobytes() == want_d.tobytes()
    assert seen and all(y[1] == 0.0 for y in seen)


MONITOR_SPEC = (
    "G[0,400] ((F[0,20] (y0 >= 1) or G[0,5] (-y1 >= -0.5))"
    " and ((y1 >= -2) U[0,10] (y0 - y1 >= 0.5)))"
)


def pinned_cases():
    """(name, formula, signal, ef config) of the builtins and the monitor."""
    cases = []
    for name in ("two_target", "tunnel", "charging", "table2_diffdrive"):
        problem = build_problem(builtin_scenario(name))
        y = np.zeros((problem.T + 1, problem.model.p))
        cases.append((name, problem.phi, Signal(y), problem.config))
    monitor = to_nnf(parse(MONITOR_SPEC, p=2))
    walk = np.random.default_rng(7).normal(0.0, 0.3, size=(421, 2)).cumsum(axis=0)
    cases.append(("monitor", monitor, Signal(walk), SemanticsConfig.ef(5.0, 5.0)))
    return cases


def test_operator_counts_are_pinned():
    # scalars and applications per smooth forward pass; a node reached at
    # a time is reduced once at that time
    cases = pinned_cases()
    pinned = {
        "two_target": (290, 71),
        "tunnel": (394, 99),
        "charging": (1959, 453),
        "table2_diffdrive": (255, 64),
        "monitor": (30476, 10828),
    }
    for name, phi, sig, config in cases:
        for classic in (False, True):
            assert robustness._plan(phi, classic).horizon == horizon(phi), name
        with count_operator_evals() as c:
            evaluate(phi, sig, 0, EXACT)
        assert (c.scalars, c.applications, c.forwards) == (0, 0, 0), name
        with count_operator_evals() as c:
            evaluate(phi, sig, 0, config)
        assert (c.scalars, c.applications, c.forwards) == (*pinned[name], 1), name
        # plain ints, so that the counts serialise as JSON
        assert type(c.scalars) is int and type(c.applications) is int, name
        with count_operator_evals() as c:
            eval_with_gradient(phi, sig, 0, config)
        assert (c.scalars, c.applications, c.forwards) == (*pinned[name], 1), name


def test_only_large_same_length_blocks_are_dense():
    # every block of the monitor formula has 401 or more segments, and its
    # until's held history is one scan; charging's two blocks of 186 and 174
    # segments go dense, while the other builtins' largest block has 44
    # segments and they have no until, so their plans stay flat
    for name, phi, _, _ in pinned_cases():
        flat = (0, 0, len(robustness._plan(phi, False).groups))
        want = {"monitor": (6, 1, 1), "charging": (2, 0, 5)}.get(name, flat)
        assert layout(phi, False) == want, name


def test_layout_changes_values_only_by_rounding(monkeypatch):
    # charging's blocks of 186 and 174 segments are flat at a threshold of
    # 256 and dense at the module's; exact values keep every bit, soft ones
    # and gradients move by rounding (a gradient's entries to 1e-15 of its
    # largest, as tiny entries sum weights that cancel), and the counts do
    # not move
    problem = build_problem(builtin_scenario("charging"))
    rng = np.random.default_rng(96)
    sigs = [Signal(rng.uniform(-3, 3, (problem.T + 1, problem.model.p))) for _ in range(3)]
    monkeypatch.setattr(robustness, "_plans", {})
    runs = []
    for threshold in (256, robustness._DENSE_SEGMENTS):
        monkeypatch.setattr(robustness, "_DENSE_SEGMENTS", threshold)
        robustness._plans.clear()
        plan = robustness._plan(problem.phi, False)
        exact = [evaluate(problem.phi, sig) for sig in sigs]
        smooth = [eval_with_gradient(problem.phi, sig, 0, problem.config) for sig in sigs]
        runs.append((layout(problem.phi, False), plan.scalars, plan.applications, exact, smooth))
    (flat, *counts, exact, smooth), (dense, *dense_counts, dense_exact, dense_smooth) = runs
    assert (flat, dense) == ((0, 0, 7), (2, 0, 5))
    assert counts == dense_counts and exact == dense_exact
    for got, want in zip(dense_smooth, smooth):
        assert_allclose(got.value, want.value, rtol=1e-15, atol=0)
        scale = np.abs(want.dsignal).max()
        assert_allclose(got.dsignal, want.dsignal, rtol=0, atol=1e-15 * scale)


def test_reducer_calls_are_pinned(monkeypatch):
    # reductions of one kind (min or max) at one dependency depth run as one
    # flat segmented reduction plus one per dense block, and every until or
    # release runs one scan, so a pass calls a reducer once per such group
    calls = []
    reducers = ("_exact_min", "_exact_max", "_soft_min", "_soft_max", "_lse_max")
    for name in reducers + tuple(f"_scan{name}" for name in reducers):
        fn = getattr(robustness, name)
        monkeypatch.setattr(robustness, name, lambda *args, fn=fn: calls.append(fn) or fn(*args))
    pinned = {"two_target": 6, "tunnel": 6, "charging": 7, "table2_diffdrive": 6, "monitor": 8}
    for name, phi, sig, config in pinned_cases():
        for run in (
            lambda: evaluate(phi, sig, 0, EXACT),
            lambda: evaluate(phi, sig, 0, config),
            lambda: eval_with_gradient(phi, sig, 0, config),
        ):
            calls.clear()
            run()
            assert len(calls) == pinned[name], name


def test_a_signal_too_short_is_refused_before_any_compile(monkeypatch):
    # a compile grows as the product of nested windows, so a signal too short
    # for the formula is refused without one, as is one too short for a plan
    # already compiled
    cached = parse("F[0,6] y0 >= 0", p=1)
    evaluate(cached, Signal(np.zeros((7, 1))))

    def compile_plan(*args):
        raise AssertionError("compiled")

    monkeypatch.setattr(robustness, "_Plan", compile_plan)
    phi = parse("G[0,2000] F[0,2000] y0 >= 0", p=1)
    for formula, need in ((phi, 4000), (cached, 6)):
        message = (f"^signal: too short: evaluation at t=0 needs samples through t={need} "
                   "but the signal ends at t=4$")
        with pytest.raises(SemanticsError, match=message):
            evaluate(formula, Signal(np.zeros((5, 1))))
        with pytest.raises(SemanticsError, match=message):
            eval_with_gradient(formula, Signal(np.zeros((5, 1))), 0, SemanticsConfig.ef(5.0, 5.0))


@pytest.mark.parametrize("classic", [False, True])
def test_a_plan_leaves_with_its_formula(classic):
    # a plan holds predicates, not nodes, so only its caller keeps the formula
    # alive, and its entry goes with it
    pred = CallablePredicate(fn=lambda y: float(y[0]), dim=1)
    phi = Until(Interval(1, 3), Pred(pred), Pred(LinearPredicate((1.0,), 0.5)))
    evaluate(phi, Signal(np.ones((4, 1))), classic_until=classic)
    key, alive = (id(phi), classic), weakref.ref(phi)
    assert key in robustness._plans
    del phi
    gc.collect()
    assert alive() is None
    assert key not in robustness._plans


def test_formulas_in_rotation_compile_once_each(monkeypatch):
    # every live formula keeps its plan, however many are in use
    compiled = []

    class Counting(robustness._Plan):
        def __init__(self, *args):
            compiled.append(args)
            super().__init__(*args)

    monkeypatch.setattr(robustness, "_Plan", Counting)
    phis = [parse(f"G[0,3] F[0,{k % 5}] y0 >= {k / 10}", p=1) for k in range(40)]
    y = np.random.default_rng(97).normal(size=(8, 1))
    for _ in range(3):
        for phi in phis:
            assert evaluate(phi, y) == naive_exact(phi, y)
    assert len(compiled) == 40


def test_a_reused_id_finds_no_plan_of_a_dropped_formula():
    # each formula is dropped as soon as it is evaluated, so the next one may
    # take its id; it must get its own plan, not the dropped one's
    y = np.random.default_rng(98).normal(size=(4, 1))
    for i in range(200):
        spec = ("F[0,3] y0 >= 0", "G[0,3] y0 >= 0")[i % 2]
        assert evaluate(parse(spec, p=1), y) == naive_exact(parse(spec, p=1), y), spec
