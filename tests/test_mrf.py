"""Belief propagation checked against brute-force enumeration."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldtruth.mrf import MarkovField, loopy_bp

from oracles import enum_marginals, random_loopy_field, random_tree_field


class TestFieldValidation:

    def test_rejects_nonpositive_unary(self):
        with pytest.raises(ValueError, match="unary"):
            MarkovField(unary=[(0.0, 1.0)], edges=[])
        with pytest.raises(ValueError, match="unary"):
            MarkovField(unary=[(1.0, -2.0)], edges=[])

    def test_rejects_bad_endpoints(self):
        psi = ((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="endpoints"):
            MarkovField(unary=[(1.0, 1.0), (1.0, 1.0)], edges=[(1, 1, psi)])
        with pytest.raises(ValueError, match="endpoints"):
            MarkovField(unary=[(1.0, 1.0), (1.0, 1.0)], edges=[(1, 0, psi)])
        with pytest.raises(ValueError, match="endpoints"):
            MarkovField(unary=[(1.0, 1.0), (1.0, 1.0)], edges=[(0, 2, psi)])

    def test_rejects_nonpositive_edge_entry(self):
        psi = ((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="edge potentials"):
            MarkovField(unary=[(1.0, 1.0), (1.0, 1.0)], edges=[(0, 1, psi)])

    def test_size(self):
        field = MarkovField(unary=[(1.0, 1.0), (2.0, 3.0), (1.0, 2.0)],
                            edges=[])
        assert len(field.unary) == 3


class TestTwoNodeField:

    def test_hand_worked_marginals(self):
        # joint weights: (0,0)=2 (0,1)=1 (1,0)=2 (1,1)=4, so Z=9
        field = MarkovField(unary=[(1.0, 2.0), (1.0, 1.0)],
                            edges=[(0, 1, ((2.0, 1.0), (1.0, 2.0)))])
        result = loopy_bp(field, damping=0.0, tol=1e-14, max_rounds=50)
        assert result.converged
        assert result.marginals[0] == pytest.approx(6.0 / 9.0, abs=1e-12)
        assert result.marginals[1] == pytest.approx(5.0 / 9.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                    min_size=8, max_size=8))
    def test_closed_form_is_exact_and_takes_no_rounds(self, xs):
        unary = [(xs[0], xs[1]), (xs[2], xs[3])]
        edges = [(0, 1, ((xs[4], xs[5]), (xs[6], xs[7])))]
        result = loopy_bp(MarkovField(unary=unary, edges=edges))
        assert result.converged
        assert result.rounds == 0
        for got, want in zip(result.marginals, enum_marginals(unary, edges)):
            assert abs(got - want) <= 1e-12


class TestTreeExactness:

    def test_matches_enumeration(self):
        rng = random.Random(4821)
        for trial in range(40):
            size = rng.randrange(2, 13)
            unary, edges = random_tree_field(rng, size)
            field = MarkovField(unary=unary, edges=edges)
            result = loopy_bp(field, damping=0.0, tol=1e-12, max_rounds=500)
            exact = enum_marginals(unary, edges)
            assert result.converged
            for got, want in zip(result.marginals, exact):
                assert got == pytest.approx(want, abs=1e-9)

    def test_damping_reaches_same_fixed_point(self):
        rng = random.Random(77)
        unary, edges = random_tree_field(rng, 8)
        field = MarkovField(unary=unary, edges=edges)
        plain = loopy_bp(field, damping=0.0, tol=1e-12, max_rounds=500)
        damped = loopy_bp(field, damping=0.3, tol=1e-11, max_rounds=2000)
        assert damped.converged
        for a, b in zip(plain.marginals, damped.marginals):
            assert a == pytest.approx(b, abs=1e-6)


class TestLoopyApproximation:

    def test_close_to_enumeration_on_cyclic_fields(self):
        rng = random.Random(9035)
        for trial in range(25):
            size = rng.randrange(3, 11)
            unary, edges = random_loopy_field(rng, size)
            field = MarkovField(unary=unary, edges=edges)
            result = loopy_bp(field)
            exact = enum_marginals(unary, edges)
            for got, want in zip(result.marginals, exact):
                assert abs(got - want) <= 0.05


class TestWarmStart:

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=3, max_value=10))
    def test_converged_messages_restart_converged(self, seed, size):
        unary, edges = random_loopy_field(random.Random(seed), size)
        field = MarkovField(unary=unary, edges=edges)
        tol = 1e-6
        cold = loopy_bp(field, tol=tol)
        assume(cold.converged)
        warm = loopy_bp(field, tol=tol, messages=cold.messages)
        assert warm.converged
        assert warm.rounds <= 1
        for a, b in zip(cold.marginals, warm.marginals):
            assert abs(a - b) <= 10 * tol

    def test_new_unary_converges_in_fewer_rounds(self):
        unary, edges = random_loopy_field(random.Random(8), 9)
        field = MarkovField(unary=unary, edges=edges)
        first = loopy_bp(field, tol=1e-10, max_rounds=1000)
        field.unary = [(p0 * 1.01, p1) for p0, p1 in unary]
        cold = loopy_bp(field, tol=1e-10, max_rounds=1000)
        warm = loopy_bp(field, tol=1e-10, max_rounds=1000,
                        messages=first.messages)
        assert cold.converged and warm.converged
        assert warm.rounds < cold.rounds
        for a, b in zip(cold.marginals, warm.marginals):
            assert abs(a - b) <= 1e-8


class TestDegenerateShapes:

    def test_edgeless_field_is_exact_and_instant(self):
        field = MarkovField(unary=[(1.0, 3.0), (2.0, 2.0), (5.0, 1.0)],
                            edges=[])
        result = loopy_bp(field)
        assert result.converged
        assert result.rounds == 0
        assert result.marginals[0] == pytest.approx(0.75, abs=1e-15)
        assert result.marginals[1] == pytest.approx(0.5, abs=1e-15)
        assert result.marginals[2] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_single_node(self):
        result = loopy_bp(MarkovField(unary=[(1.0, 4.0)], edges=[]))
        assert result.marginals == [pytest.approx(0.8)]

    def test_potential_scale_invariance(self):
        rng = random.Random(311)
        unary, edges = random_tree_field(rng, 6)
        base = loopy_bp(MarkovField(unary=unary, edges=edges),
                        damping=0.0, tol=1e-12, max_rounds=500)
        bigger = [(7.0 * p0, 7.0 * p1) for p0, p1 in unary]
        rescaled = [(i, j, tuple(tuple(3.0 * x for x in row) for row in psi))
                    for i, j, psi in edges]
        scaled = loopy_bp(MarkovField(unary=bigger, edges=rescaled),
                          damping=0.0, tol=1e-12, max_rounds=500)
        for a, b in zip(base.marginals, scaled.marginals):
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_bad_damping(self):
        field = MarkovField(unary=[(1.0, 1.0)], edges=[])
        with pytest.raises(ValueError):
            loopy_bp(field, damping=1.0)
        with pytest.raises(ValueError):
            loopy_bp(field, damping=-0.1)
