"""Formula construction, normal form, horizon and region tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import node_kinds, rand_formula, rand_signal
from oracle import naive_exact
from smoothstl.formula import (
    Always,
    And,
    CallablePredicate,
    Eventually,
    FormulaError,
    Interval,
    LinearPredicate,
    Not,
    Or,
    Pred,
    RegionTable,
    Release,
    Until,
    conj,
    disj,
    format_formula,
    horizon,
    is_nnf,
    node_count,
    to_nnf,
)
from smoothstl.robustness import evaluate


def atoms(n=4):
    out = []
    for i in range(n):
        coeffs = (1.0, 0.0) if i % 2 == 0 else (0.0, 1.0)
        out.append(Pred(LinearPredicate(coeffs, float(i))))
    return out


class TestLinearPredicate:
    def test_margin_and_gradient(self):
        pred = LinearPredicate((2.0, -1.0), 3.0)
        assert pred.value([4.0, 1.0]) == 4.0
        assert_allclose(pred.gradient([4.0, 1.0]), [2.0, -1.0])

    def test_negated_flips_margin_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = LinearPredicate(tuple(rng.uniform(-2, 2, 3)), float(rng.uniform(-1, 1)))
            y = rng.uniform(-5, 5, 3)
            assert pred.negated().value(y) == -pred.value(y)

    def test_validation(self):
        with pytest.raises(FormulaError, match="at least one coefficient"):
            LinearPredicate((), 0.0)
        with pytest.raises(FormulaError, match="finite"):
            LinearPredicate((1.0,), float("nan"))
        with pytest.raises(FormulaError, match="finite"):
            LinearPredicate((float("inf"),), 0.0)
        # float() would take each of these
        for coeffs, offset in ((("1", 1.0), 0.5), ((1.0, True), 0.5), ((1.0,), "0.5")):
            with pytest.raises(FormulaError, match="^(coefficient|offset): needs a number, got"):
                LinearPredicate(coeffs, offset)

    def test_label_is_cosmetic(self):
        a = LinearPredicate((1.0,), 0.0, label="a")
        b = LinearPredicate((1.0,), 0.0, label="b")
        assert a == b


class TestCallablePredicate:
    def test_value_and_jacobian(self):
        pred = CallablePredicate(
            fn=lambda y: 1.0 - float(y @ y),
            dim=2,
            jacobian=lambda y: -2.0 * y,
        )
        assert pred.value([1.0, 0.0]) == 0.0
        assert_allclose(pred.gradient([0.5, 0.5]), [-1.0, -1.0])

    def test_missing_jacobian_is_an_error(self):
        pred = CallablePredicate(fn=lambda y: float(y[0]), dim=1, label="r")
        assert pred.value([2.0]) == 2.0
        with pytest.raises(FormulaError, match="no jacobian"):
            pred.gradient([2.0])

    def test_jacobian_shape_checked(self):
        pred = CallablePredicate(fn=lambda y: float(y[0]), dim=2, jacobian=lambda y: y[:1])
        with pytest.raises(FormulaError, match="shape"):
            pred.gradient([1.0, 2.0])

    @pytest.mark.parametrize("dim", [True, 1.0, "1"])
    def test_dim_must_be_a_whole_number(self, dim):
        # True used to pass as 1, and 1.0 and "1" raised a bare TypeError
        with pytest.raises(FormulaError, match=f"^dim: needs a whole number, got {dim!r}$"):
            CallablePredicate(fn=lambda y: float(y[0]), dim=dim)

    def test_dim_must_be_positive(self):
        with pytest.raises(FormulaError, match="^dim: must be positive$"):
            CallablePredicate(fn=lambda y: float(y[0]), dim=0)


class TestInterval:
    def test_width_and_str(self):
        w = Interval(2, 5)
        assert w.width == 3
        assert str(w) == "[2,5]"

    # operator.index would take True as 1
    @pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 1), (True, 3), (0, True)])
    def test_bad_bounds(self, lo, hi):
        with pytest.raises(FormulaError):
            Interval(lo, hi)

    def test_fractional_bounds_rejected(self):
        with pytest.raises(FormulaError, match="whole timesteps"):
            Interval(0.5, 2)


class TestConnectives:
    def test_operator_sugar(self):
        a, b, c, _ = atoms()
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)
        assert isinstance(a.until(b, 0, 3), Until)
        assert isinstance(a.release(b, 1, 2), Release)
        assert (a & b & c).children == (a, b, c)

    def test_conj_flattens_and_collapses(self):
        a, b, c, d = atoms()
        assert conj(a) is a
        assert conj(conj(a, b), c).children == (a, b, c)
        assert disj(a, disj(b, c), d).children == (a, b, c, d)

    def test_nested_same_connective_rejected_raw(self):
        a, b, c, _ = atoms()
        with pytest.raises(FormulaError, match="flattened"):
            And((And((a, b)), c))

    def test_arity_and_type_checks(self):
        a = atoms()[0]
        with pytest.raises(FormulaError, match="at least two"):
            Or((a,))
        with pytest.raises(FormulaError, match="must be a formula"):
            conj(a, "y0 >= 1")
        with pytest.raises(FormulaError, match="conjunction of nothing"):
            conj()


class TestNormalForm:
    def test_demorgan_and(self):
        a, b, _, _ = atoms()
        got = to_nnf(~(a & b))
        assert got == disj(Not(a), Not(b))

    def test_temporal_duals(self):
        a, b, _, _ = atoms()
        assert to_nnf(~a.always(0, 3)) == Not(a).eventually(0, 3)
        assert to_nnf(~a.eventually(1, 2)) == Not(a).always(1, 2)
        assert to_nnf(~a.until(b, 0, 4)) == Not(a).release(Not(b), 0, 4)
        assert to_nnf(~a.release(b, 2, 5)) == Not(a).until(Not(b), 2, 5)

    def test_double_negation(self):
        a = atoms()[0]
        assert to_nnf(~~a) == a
        assert to_nnf(~~~a) == Not(a)

    def messy(self, rng, p, depth, budget):
        # rand_formula only emits NNF, so stack negations on top of its
        # output to exercise the rewrite
        base = rand_formula(rng, p, depth, budget)
        style = rng.integers(4)
        if style == 0:
            return ~base
        if style == 1:
            return ~(base & rand_formula(rng, p, depth, budget))
        if style == 2:
            return ~(~base | rand_formula(rng, p, depth, budget))
        return ~base.until(~rand_formula(rng, p, depth, budget), 0, 2)

    def test_nnf_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = self.messy(rng, 2, 2, 5)
            flat = to_nnf(phi)
            assert is_nnf(flat)
            assert node_count(flat) <= 2 * node_count(phi)
            assert to_nnf(flat) == flat

    def test_nnf_preserves_exact_robustness(self):
        # two independent routes: the library evaluator and the naive one
        rng = np.random.default_rng(12)
        for _ in range(60):
            phi = self.messy(rng, 2, 2, 5)
            flat = to_nnf(phi)
            sig = rand_signal(rng, phi, 2, slack=int(rng.integers(0, 3)))
            for classic in (False, True):
                lhs = evaluate(phi, sig, classic_until=classic)
                rhs = evaluate(flat, sig, classic_until=classic)
                assert_allclose(rhs, lhs, rtol=0, atol=1e-12)
                ora = naive_exact(flat, sig.values, 0, classic)
                assert_allclose(ora, lhs, rtol=0, atol=1e-9)

    def test_generator_is_already_nnf(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert is_nnf(rand_formula(rng, 3, 3, 8))


class TestHorizon:
    def test_hand_cases(self):
        a, b, _, _ = atoms()
        assert horizon(a) == 0
        assert horizon(~a) == 0
        assert horizon(a.always(0, 10)) == 10
        assert horizon(a.always(0, 3).eventually(1, 10)) == 13
        assert horizon(a.until(b.always(0, 4), 2, 5)) == 9
        assert horizon(conj(a.always(0, 2), b.eventually(0, 7))) == 7

    def test_nnf_preserves_horizon(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            phi = rand_formula(rng, 2, 3, 9)
            assert horizon(to_nnf(~phi)) == horizon(phi)


class TestNodeCount:
    def test_hand_cases(self):
        a, b, c, _ = atoms()
        assert node_count(a) == 1
        assert node_count(a & b) == 3
        assert node_count(a.until(b | c, 0, 1)) == 5


@pytest.mark.parametrize("walk", [node_count, is_nnf, to_nnf, horizon, format_formula])
def test_traversals_reject_a_non_node(walk):
    with pytest.raises(FormulaError, match="^not a formula node: LinearPredicate$"):
        walk(atoms()[0].predicate)
    with pytest.raises(FormulaError, match="^not a formula node: str$"):
        walk("G[0,1] y0 >= 0")


class TestFormatFormula:
    def test_reads_like_the_grammar(self):
        table = RegionTable({"goal": {0: (2.5, 3.5)}})
        phi = conj(
            table.conjunction("goal", 2).eventually(0, 10),
            Pred(LinearPredicate((0.0, 1.0), -1.0)).always(0, 10),
        )
        text = format_formula(phi)
        assert "F[0,10]" in text and "G[0,10]" in text
        assert ">=" in text

    def test_precedence_parens(self):
        a, b, c, _ = atoms()
        text = format_formula(conj(disj(a, b), c))
        assert text.startswith("(")
        assert " or " in text and " and " in text

    def test_every_operator_keyword(self):
        a, b, c, d = atoms()
        phi = conj(disj(a, Not(b)).always(0, 4), c.eventually(1, 3).until(a.release(d, 0, 2), 2, 5))
        assert format_formula(phi) == (
            "G[0,4] (1.0*y0 >= 0.0 or not 1.0*y1 >= 1.0) and "
            "F[1,3] 1.0*y0 >= 2.0 U[2,5] (1.0*y0 >= 0.0 R[0,2] 1.0*y1 >= 3.0)"
        )

    def test_str_matches_format(self):
        a, b, _, _ = atoms()
        phi = a.until(b, 0, 2)
        assert str(phi) == format_formula(phi)

    def test_callable_predicates_do_not_print(self):
        pred = CallablePredicate(fn=lambda y: float(y[0]), dim=1)
        with pytest.raises(FormulaError, match="no textual form"):
            format_formula(Pred(pred))


class TestRegionTable:
    def table(self):
        return RegionTable({
            "obs": {0: (2.0, 4.0), 1: (2.0, 4.0)},
            "goal": {0: (2.5, 3.5), 1: (6.5, 7.5)},
            "ubox": {2: (-2.0, 2.0), 3: (-2.0, 2.0)},
        })

    def test_lookup(self):
        t = self.table()
        assert set(t.names()) == {"obs", "goal", "ubox"}
        assert "obs" in t and "lava" not in t
        assert len(t) == 3
        assert t["goal"] == {0: (2.5, 3.5), 1: (6.5, 7.5)}

    def test_membership_margin(self):
        t = self.table()
        phi = t.conjunction("obs", 4)
        assert isinstance(phi, And) and len(phi.children) == 4
        inside = np.array([3.0, 3.0, 0.0, 0.0])
        outside = np.array([5.0, 3.0, 0.0, 0.0])
        margin = min(c.predicate.value(inside) for c in phi.children)
        assert margin == 1.0
        assert max(c.predicate.value(outside) for c in phi.children) > 0
        assert min(c.predicate.value(outside) for c in phi.children) == -1.0

    def test_complement_is_exact_negation(self):
        t = self.table()
        member = t.conjunction("goal", 4)
        avoid = t.complement("goal", 4)
        assert is_nnf(avoid)
        rng = np.random.default_rng(15)
        for _ in range(100):
            y = rng.uniform(-1, 9, 4)
            inside = min(c.predicate.value(y) for c in member.children)
            outside = max(c.predicate.value(y) for c in avoid.children)
            assert outside == -inside

    def test_dimension_bound_checked(self):
        t = self.table()
        with pytest.raises(FormulaError, match="dimension 2"):
            t.conjunction("ubox", 2)
        with pytest.raises(FormulaError, match="unknown region"):
            t.conjunction("lava", 4)

    def test_name_validation(self):
        with pytest.raises(FormulaError, match="collides"):
            RegionTable({"not": {0: (0, 1)}})
        with pytest.raises(FormulaError, match="collides"):
            RegionTable({"y3": {0: (0, 1)}})
        with pytest.raises(FormulaError, match="identifier"):
            RegionTable({"bad name": {0: (0, 1)}})

    def test_bounds_validation(self):
        with pytest.raises(FormulaError, match="no dimensions"):
            RegionTable({"empty": {}})
        with pytest.raises(FormulaError, match="lower < upper"):
            RegionTable({"flat": {0: (1.0, 1.0)}})
        with pytest.raises(FormulaError, match="nonnegative"):
            RegionTable({"neg": {-1: (0.0, 1.0)}})

    def test_inflated(self):
        t = self.table()
        grown = t.inflated(0.25, names={"obs"})
        assert grown["obs"] == {0: (1.75, 4.25), 1: (1.75, 4.25)}
        assert grown["goal"] == t["goal"]
        everything = t.inflated(0.5)
        assert everything["goal"][0] == (2.0, 4.0)
        with pytest.raises(FormulaError, match="nonnegative"):
            t.inflated(-0.1)

    def test_json_round_trip(self):
        t = self.table()
        data = t.to_json_dict()
        assert data["obs"] == {"0": [2.0, 4.0], "1": [2.0, 4.0]}
        assert RegionTable.from_json_dict(data) == t

    def test_malformed_json(self):
        with pytest.raises(FormulaError, match="malformed bounds"):
            RegionTable.from_json_dict({"obs": {"0": 3.5}})
        # a region that is not an object, a pair that is too short, a bound
        # that is not a number: each error names the region
        for faces in (5, [1, 2], {"0": [1]}, {"0": ["a", 2]}, {"0": ["1", "2"]}, {"0": [True, 2]}):
            with pytest.raises(FormulaError, match="region 'obs': malformed bounds"):
                RegionTable.from_json_dict({"obs": faces})
        with pytest.raises(FormulaError, match="regions must map region names"):
            RegionTable.from_json_dict([1, 2])

    # the constructor checks the same shapes, so each error names the region

    def test_region_that_is_not_a_mapping(self):
        with pytest.raises(FormulaError, match="region 'obs': malformed bounds.*got int"):
            RegionTable({"obs": 5})

    def test_bounds_that_are_not_a_pair(self):
        with pytest.raises(FormulaError, match=r"region 'obs': malformed bounds.*\(1,\)"):
            RegionTable({"obs": {0: (1,)}})

    def test_dimension_that_is_not_an_integer(self):
        with pytest.raises(FormulaError, match="region 'obs': malformed bounds: dimension 'x'"):
            RegionTable({"obs": {"x": (1, 2)}})
        with pytest.raises(FormulaError, match="region 'obs': malformed bounds: dimension True"):
            RegionTable({"obs": {True: (1, 2)}})
