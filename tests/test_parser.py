"""Grammar tests: shapes, precedence, regions, errors, print round-trips."""

import numpy as np
import pytest

from conftest import rand_formula
from smoothstl.formula import (
    Always,
    And,
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
)
from smoothstl.parser import ParseError, parse


class TestPredicates:
    def test_simple_atom(self):
        phi = parse("y0 >= 1.5")
        assert phi == Pred(LinearPredicate((1.0, 0.0), 1.5))

    def test_arithmetic(self):
        phi = parse("2*y0 - 1.5*y1 >= 3")
        assert phi == Pred(LinearPredicate((2.0, -1.5), 3.0))

    def test_leading_minus_and_subtraction(self):
        phi = parse("-y0 - 2*y1 >= -1")
        assert phi == Pred(LinearPredicate((-1.0, -2.0), -1.0))

    def test_bare_numbers_fold_into_threshold(self):
        # 1 + y0 >= 3  is the same half-space as  y0 >= 2
        assert parse("1 + y0 >= 3") == parse("y0 >= 2")

    def test_repeated_variable_accumulates(self):
        assert parse("y0 + y0 >= 0") == Pred(LinearPredicate((2.0, 0.0), 0.0))

    def test_signal_dimension_checked(self):
        with pytest.raises(ParseError, match="dimension"):
            parse("y5 >= 0", p=2)
        parse("y5 >= 0", p=6)

    def test_scientific_notation(self):
        phi = parse("1e2*y0 >= 2.5e-1", p=1)
        assert phi == Pred(LinearPredicate((100.0,), 0.25))


class TestOperators:
    def test_precedence_or_below_and(self):
        phi = parse("y0 >= 1 and y1 >= 2 or y0 >= 3")
        assert isinstance(phi, Or)
        assert isinstance(phi.children[0], And)

    def test_parens_override(self):
        phi = parse("y0 >= 1 and (y1 >= 2 or y0 >= 3)")
        assert isinstance(phi, And)
        assert isinstance(phi.children[1], Or)

    def test_connectives_flatten(self):
        phi = parse("y0 >= 0 and y0 >= 1 and y0 >= 2")
        assert isinstance(phi, And) and len(phi.children) == 3

    def test_unary_binds_tight(self):
        phi = parse("G[0,2] y0 >= 1 and y1 >= 0")
        assert isinstance(phi, And)
        assert isinstance(phi.children[0], Always)
        assert phi.children[0].interval.hi == 2

    def test_nested_temporal(self):
        phi = parse("F[1,10] G[0,3] y0 >= 1")
        assert isinstance(phi, Eventually)
        assert isinstance(phi.child, Always)

    def test_not_unary(self):
        phi = parse("not not y0 >= 1")
        assert phi == Not(Not(parse("y0 >= 1")))

    def test_until_and_release(self):
        phi = parse("y0 >= 0 U[2,5] y1 >= 1")
        assert isinstance(phi, Until)
        assert (phi.interval.lo, phi.interval.hi) == (2, 5)
        phi = parse("y0 >= 0 R[0,3] y1 >= 1")
        assert isinstance(phi, Release)

    def test_until_chains_left(self):
        phi = parse("y0 >= 0 U[0,1] y0 >= 1 U[0,2] y0 >= 2")
        assert isinstance(phi, Until)
        assert isinstance(phi.left, Until)
        assert phi.interval.hi == 2

    def test_until_binds_above_and(self):
        phi = parse("y0 >= 0 U[0,1] y0 >= 1 and y1 >= 0")
        assert isinstance(phi, And)
        assert isinstance(phi.children[0], Until)


class TestRegions:
    def table(self):
        return RegionTable({"goal": {0: (2.0, 3.0), 1: (6.0, 7.0)}})

    def test_bare_region_is_membership(self):
        phi = parse("goal", regions=self.table(), p=2)
        assert phi == self.table().conjunction("goal", 2)

    def test_not_region_is_complement(self):
        phi = parse("not goal", regions=self.table(), p=2)
        assert phi == self.table().complement("goal", 2)

    def test_region_inside_temporal(self):
        phi = parse("G[0,5] not goal", regions=self.table(), p=2)
        assert isinstance(phi, Always) and isinstance(phi.child, Or)

    def test_unknown_region_named_in_error(self):
        with pytest.raises(ParseError, match="unknown region 'lava'"):
            parse("lava", regions=self.table(), p=2)

    def test_region_without_table(self):
        with pytest.raises(ParseError, match="unknown region"):
            parse("goal")

    def test_region_dimension_against_p(self):
        with pytest.raises(ParseError, match="dimension"):
            parse("goal", regions=self.table(), p=1)


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("y0 >= 1 and\ny1 >= ")
        assert err.value.line == 2
        assert err.value.col >= 6

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("y0 >= 1 ; y1 >= 0")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse("y0 >= 1 y1 >= 0")

    def test_reversed_window(self):
        with pytest.raises(ParseError, match="reversed window"):
            parse("G[3,1] y0 >= 0")

    def test_fractional_window(self):
        with pytest.raises(ParseError):
            parse("G[0.5,2] y0 >= 0")

    def test_missing_comparison(self):
        with pytest.raises(ParseError):
            parse("y0 + y1")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   # only a comment")

    def test_bad_p(self):
        with pytest.raises(FormulaError, match="at least 1"):
            parse("y0 >= 0", p=0)

    @pytest.mark.parametrize("p", ["1", 2.0, np.array([2, 3]), True])
    def test_p_must_be_a_whole_number(self, p):
        # read as interval bounds are: "1" used to fail comparing with 1,
        # 2.0 building the coefficient list, and True passed as 1
        with pytest.raises(FormulaError, match="^signal dimension p: needs a whole number"):
            parse("y0 >= 0", p=p)
        with pytest.raises(FormulaError, match="^signal dimension p: needs a whole number"):
            RegionTable({"box": {0: (0.0, 1.0)}}).conjunction("box", p)


class TestWhitespaceAndComments:
    def test_comments_and_newlines(self):
        text = """
        # reach the goal eventually
        F[0,10] y0 >= 1   # pointwise
        and G[0,10] y1 >= 0
        """
        phi = parse(text)
        assert isinstance(phi, And)

    def test_whitespace_insensitive(self):
        a = parse("G[0,2]y0>=1")
        b = parse("G [ 0 , 2 ]   y0   >=   1")
        assert a == b


class TestPrintRoundTrip:
    def test_random_formulas_reparse_identically(self):
        # format_formula emits repr() floats, so the round trip is exact
        rng = np.random.default_rng(21)
        for _ in range(150):
            phi = rand_formula(rng, 3, 3, 8)
            text = format_formula(phi)
            assert parse(text, p=3) == phi

    def test_region_formula_round_trip(self):
        table = RegionTable({"goal": {0: (2.0, 3.0)}, "obs": {0: (0.5, 1.5)}})
        phi = parse("G[0,8] not obs and F[0,8] goal", regions=table, p=1)
        assert parse(format_formula(phi), p=1) == phi

    @pytest.mark.parametrize("kind", [Always, Eventually, Until, Release])
    def test_every_operator_round_trips_in_every_context(self, kind):
        a, b = Pred(LinearPredicate((1.0, 0.0), 1.0)), Pred(LinearPredicate((-1.0, 2.0), 0.5))

        def under(kind, lo, hi):
            """Each way to put a formula x under a node of this kind."""
            window = Interval(lo, hi)
            if kind in (Always, Eventually):
                return [lambda x: kind(window, x)]
            return [lambda x: kind(window, x, b), lambda x: kind(window, b, x)]

        # not, and, or and every temporal operator, on either side
        contexts = [Not, lambda x: conj(x, b), lambda x: conj(b, x),
                    lambda x: disj(x, b), lambda x: disj(b, x)]
        for outer in (Always, Eventually, Until, Release):
            contexts += under(outer, 0, 2)
        for op in under(kind, 1, 3):
            for context in contexts:
                for phi in (context(op(a)), op(context(a))):
                    assert parse(format_formula(phi)) == phi, format_formula(phi)
