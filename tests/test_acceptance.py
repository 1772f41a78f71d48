"""Acceptance gate.

One test per acceptance criterion, in order, each printing a single
ACCEPTANCE NN <name>: PASS/FAIL line (run with -s to see them alongside
the pytest verdicts). Tolerances and sample counts are the contractual
ones; nothing here is tuned down to pass. Entries 8, 9 and 11 exercise
full synthesis runs and dominate the runtime of the suite.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import node_kinds, rand_formula, rand_signal
from smoothstl.cli import main
from smoothstl.dynamics import differential_drive, single_integrator_2d
from smoothstl.formula import to_nnf
from smoothstl.gradient import eval_with_gradient, grad_smooth_max, grad_smooth_min
from smoothstl.optimizer import SynthesisProblem, objective, synthesize
from smoothstl.parser import parse
from smoothstl.robustness import (
    EXACT,
    SemanticsConfig,
    Signal,
    evaluate,
    max_error_bound,
    smooth_max,
    smooth_min,
)
from smoothstl.scenarios import build_problem, builtin_scenario, run_scaling

ALL_KINDS = {"Pred", "Not", "And", "Or", "Always", "Eventually", "Until", "Release"}


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {tag}: FAIL")
        raise
    print(f"\nACCEPTANCE {tag}: PASS")


def test_01_smooth_min_error_band():
    with criterion("01 smooth min stays within log(m)/k1 of the true min"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(10_000):
            m = int(rng.integers(1, 9))
            a = rng.uniform(-10.0, 10.0, m)
            k1 = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
            gap = a.min() - smooth_min(a, k1)
            assert gap >= 0.0
            assert gap <= math.log(m) / k1 + 1e-12
        assert time.perf_counter() - start < 5.0


def test_02_smooth_max_error_band():
    with criterion("02 smooth max stays within its computable bound"):
        rng = np.random.default_rng(102)
        for _ in range(10_000):
            m = int(rng.integers(2, 9))
            a = np.sort(rng.uniform(-10.0, 10.0, m))[::-1]
            k2 = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
            gap = a.max() - smooth_max(a, k2)
            assert gap >= 0.0
            assert gap <= max_error_bound(a, k2) + 1e-12
        # the two-point average is the one case where the bound is met
        for _ in range(1_000):
            a = np.sort(rng.uniform(-10.0, 10.0, 2))[::-1]
            gap = a.max() - smooth_max(a, 0.0)
            assert abs(gap - max_error_bound(a, 0.0)) <= 1e-12


def test_03_soundness_fuzz():
    with criterion("03 smooth robustness never overclaims (1000 formulas)"):
        rng = np.random.default_rng(103)
        start = time.perf_counter()
        seen = set()
        for _ in range(1_000):
            p = int(rng.integers(1, 3))
            phi = rand_formula(rng, p=p, depth=3, budget=8)
            seen |= node_kinds(phi)
            y = rand_signal(rng, phi, p)
            rho = evaluate(phi, y, config=EXACT)
            for k in (0.5, 2.0, 10.0):
                soft = evaluate(phi, y, config=SemanticsConfig.ef(k, k))
                assert soft <= rho + 1e-9
                if soft > 0:
                    assert rho > 0
        assert seen == ALL_KINDS
        assert time.perf_counter() - start < 30.0


def test_04_completeness_in_the_sharpness_limit():
    with criterion("04 smooth value converges to exact as k grows"):
        rng = np.random.default_rng(104)
        for _ in range(100):
            p = int(rng.integers(1, 3))
            phi = rand_formula(rng, p=p, depth=3, budget=8)
            y = rand_signal(rng, phi, p)
            rho = evaluate(phi, y, config=EXACT)
            gaps = [
                abs(rho - evaluate(phi, y, config=SemanticsConfig.ef(k, k)))
                for k in (1.0, 10.0, 100.0, 1000.0)
            ]
            for wide, narrow in zip(gaps, gaps[1:]):
                assert narrow <= wide + 1e-9
            assert gaps[-1] <= 0.05


def test_05_zero_sharpness_max_is_the_mean():
    with criterion("05 smooth max at k2=0 averages its arguments"):
        rng = np.random.default_rng(105)
        for _ in range(1_000):
            m = int(rng.integers(1, 9))
            a = rng.uniform(-10.0, 10.0, m)
            assert abs(smooth_max(a, 0.0) - a.mean()) <= 1e-12


def _central_difference(phi, values, config, h=1e-5):
    fd = np.zeros_like(values)
    for ts in range(values.shape[0]):
        for j in range(values.shape[1]):
            up, dn = values.copy(), values.copy()
            up[ts, j] += h
            dn[ts, j] -= h
            fd[ts, j] = (
                evaluate(phi, Signal(up), config=config)
                - evaluate(phi, Signal(dn), config=config)
            ) / (2.0 * h)
    return fd


def test_06_signal_gradients_match_finite_differences():
    with criterion("06 analytic signal gradients agree with central differences"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            p = int(rng.integers(1, 3))
            phi = rand_formula(rng, p=p, depth=2, budget=5)
            y = rand_signal(rng, phi, p)
            k = float(rng.choice([0.5, 2.0, 10.0]))
            config = SemanticsConfig.ef(k, k)
            got = eval_with_gradient(phi, y, config=config).dsignal
            fd = _central_difference(phi, y.values, config)
            assert np.allclose(got, fd, rtol=1e-4, atol=1e-7)
        # operator weights are convex-combination coefficients
        for _ in range(100):
            m = int(rng.integers(1, 9))
            a = rng.uniform(-10.0, 10.0, m)
            k = float(rng.choice([0.5, 2.0, 10.0]))
            assert abs(grad_smooth_min(a, k).sum() - 1.0) <= 1e-10
            assert abs(grad_smooth_max(a, k).sum() - 1.0) <= 1e-10
            assert abs(grad_smooth_max(a, 0.0).sum() - 1.0) <= 1e-10
        # ties are exactly where nonsmooth semantics has no gradient
        for i in range(50):
            m = int(rng.integers(2, 9))
            base = float(rng.uniform(-10.0, 10.0))
            a = np.full(m, base)
            a[: m // 2] += float(rng.choice([0.0, 1e-15, 1e-12]))
            assert np.isfinite(grad_smooth_min(a, 10.0)).all()
            assert np.isfinite(grad_smooth_max(a, 10.0)).all()
        for i in range(50):
            p = int(rng.integers(1, 3))
            phi = rand_formula(rng, p=p, depth=2, budget=5)
            row = rng.uniform(-2.0, 2.0, p)
            y = Signal(np.tile(row, (9, 1)))
            res = eval_with_gradient(phi, y, config=SemanticsConfig.ef(10.0, 10.0))
            assert np.isfinite(res.value)
            assert np.isfinite(res.dsignal).all()


def test_07_control_gradients_match_finite_differences():
    with criterion("07 objective control gradients agree with finite differences"):
        rng = np.random.default_rng(107)
        for model_fn in (single_integrator_2d, differential_drive):
            model = model_fn()
            for _ in range(50):
                phi = rand_formula(rng, p=model.p, depth=2, budget=4)
                problem = SynthesisProblem(
                    model=model,
                    x0=rng.uniform(-1.0, 1.0, model.n),
                    phi=phi,
                    T=4,
                    k1=float(rng.choice([0.5, 2.0, 10.0])),
                    k2=float(rng.choice([0.5, 2.0, 10.0])),
                    control_weight=float(rng.choice([0.0, 0.05])),
                )
                u = rng.uniform(-1.0, 1.0, (5, model.m))
                _, dJ = objective(problem, u)
                fd = np.zeros_like(u)
                h = 1e-5
                for ts in range(u.shape[0]):
                    for j in range(u.shape[1]):
                        up, dn = u.copy(), u.copy()
                        up[ts, j] += h
                        dn[ts, j] -= h
                        fd[ts, j] = (
                            objective(problem, up)[0] - objective(problem, dn)[0]
                        ) / (2.0 * h)
                assert np.allclose(dJ, fd, rtol=1e-4, atol=1e-7)


def test_08_detour_synthesis_mostly_succeeds():
    with criterion("08 detour task: most restarts reach positive robustness"):
        config = builtin_scenario("two_target")
        assert config.k1 == 2.0 and config.k2 == 2.0
        result = synthesize(build_problem(config, restarts=20))
        seeded = result.restart_records[1:]
        assert len(seeded) == 20
        wins = sum(1 for r in seeded if not r.failed and r.rho_exact > 0)
        assert wins >= 10
        assert result.rho_exact > 0
        assert all(r.wall_ms < 60_000.0 for r in result.restart_records)


def test_09_corridor_sharpness_tradeoff():
    with criterion("09 corridor task: sharp beats blunt on the same seeds"):
        config = builtin_scenario("tunnel")
        sharp = synthesize(build_problem(config, k1=10.0, k2=10.0, restarts=10))
        blunt = synthesize(build_problem(config, k1=0.5, k2=0.5, restarts=10))

        def wins(result):
            return sum(
                1
                for r in result.restart_records[1:]
                if not r.failed and r.rho_exact > 0
            )

        n_sharp, n_blunt = wins(sharp), wins(blunt)
        print(f"\n  corridor successes: k=10 -> {n_sharp}/10, k=0.5 -> {n_blunt}/10")
        assert n_sharp >= 1
        assert n_blunt < n_sharp


def test_10_lse_overclaims_a_violated_disjunction():
    with criterion("10 stored lse instance is positive on a violated formula"):
        phi = to_nnf(parse("(y0 >= 0.1) or (-y0 >= 0.1)", p=1))
        y = Signal(np.array([[0.0]]))
        rho = evaluate(phi, y, config=EXACT)
        lse = evaluate(phi, y, config=SemanticsConfig.lse(1.0))
        soft = evaluate(phi, y, config=SemanticsConfig.ef(1.0, 1.0))
        assert rho == pytest.approx(-0.1)
        assert lse == pytest.approx(math.log(2.0) - 0.1)
        assert rho < 0 < lse
        assert soft <= rho + 1e-9


def test_11_operation_counts_scale_linearly():
    with criterion("11 per-call operation counts grow linearly with the horizon"):
        records = run_scaling(n_values=(10, 20, 30), p_values=(1, 2, 3))
        horizon_counts = [r.op_count for r in records if r.sweep == "N"]
        station_counts = [r.op_count for r in records if r.sweep == "P"]
        ratio = horizon_counts[2] / horizon_counts[0]
        assert 2.5 <= ratio <= 3.5
        increments = [b - a for a, b in zip(station_counts, station_counts[1:])]
        for wide, narrow in zip(increments, increments[1:]):
            assert narrow <= wide + 1e-9
        # wall time is informational only: per-iteration cost should grow
        # far slower than the square of the horizon
        per_iter = {
            r.value: r.wall_ms / max(r.iterations, 1)
            for r in records
            if r.sweep == "N"
        }
        print(
            f"\n  count ratio N=30/N=10: {ratio:.3f}; "
            f"time/iter ratio {per_iter[30] / per_iter[10]:.2f} (target < 9, informational)"
        )


def test_12_synthesis_is_byte_reproducible(tmp_path, capsys):
    with criterion("12 synth --seed 7 twice writes identical trajectories"):
        blobs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            code = main(
                [
                    "synth", "--scenario", "two_target", "--seed", "7",
                    "--restarts", "3", "--max-iters", "80", "--out", str(out),
                ]
            )
            assert code in (0, 1)
            blobs.append((out / "trajectory.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]
