"""Exact sums and belief propagation checked against brute-force
enumeration."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldtruth.mrf import EXACT_NODES, MarkovField, loopy_bp

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


positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def small_forests(draw):
    """Any field the exact path takes: 1..EXACT_NODES nodes, arbitrary
    positive potentials, any node pairs as edges that close no cycle."""
    size = draw(st.integers(min_value=1, max_value=EXACT_NODES))
    unary = [(draw(positive), draw(positive)) for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    tree = list(range(size))
    edges = []
    for i, j in draw(st.permutations(pairs)) if pairs else []:
        if tree[i] != tree[j] and draw(st.booleans()):
            old = tree[j]
            tree = [tree[i] if t == old else t for t in tree]
            edges.append((i, j, ((draw(positive), draw(positive)),
                                 (draw(positive), draw(positive)))))
    return unary, sorted(edges)


class TestExactFields:

    @settings(max_examples=200, deadline=None)
    @given(small_forests())
    def test_matches_enumeration_in_zero_rounds(self, spec):
        unary, edges = spec
        result = loopy_bp(MarkovField(unary=unary, edges=edges))
        assert result.converged
        assert result.rounds == 0
        for got, want in zip(result.marginals, enum_marginals(unary, edges)):
            assert abs(got - want) <= 1e-12

    def test_new_unary_reuses_the_compiled_field(self):
        unary, edges = random_tree_field(random.Random(8), EXACT_NODES)
        field = MarkovField(unary=unary, edges=edges)
        field.unary = [(p0 * 1.01, p1) for p0, p1 in unary]
        result = loopy_bp(field)
        for got, want in zip(result.marginals,
                             enum_marginals(field.unary, edges)):
            assert abs(got - want) <= 1e-12

    def test_strong_couplings_do_not_overflow(self):
        # the plain product of eight tables of about 1e200 is far past
        # the largest float
        psi = ((3e199, 1e199), (1e199, 1e200))
        unary = [(0.6, 0.4)] * EXACT_NODES
        edges = [(i, i + 1, psi) for i in range(EXACT_NODES - 1)]
        result = loopy_bp(MarkovField(unary=unary, edges=edges))
        assert result.rounds == 0
        for got, want in zip(result.marginals, enum_marginals(unary, edges)):
            assert abs(got - want) <= 1e-12

    def test_cycles_keep_propagation(self):
        # a triangle is small enough to enumerate, but runs propagation so
        # its marginals stay the loopy fixed point
        psi = ((0.8, 0.5), (0.5, 2.0))
        field = MarkovField(unary=[(0.4, 0.6)] * 3,
                            edges=[(0, 1, psi), (0, 2, psi), (1, 2, psi)])
        result = loopy_bp(field)
        assert result.converged and result.rounds > 0
        assert result.messages is not None


class TestTreeExactness:

    def test_matches_enumeration(self):
        rng = random.Random(4821)
        for trial in range(40):
            # above the exact path, so propagation itself is checked
            size = rng.randrange(EXACT_NODES + 1, EXACT_NODES + 5)
            unary, edges = random_tree_field(rng, size)
            field = MarkovField(unary=unary, edges=edges)
            result = loopy_bp(field, damping=0.0, tol=1e-12, max_rounds=500)
            exact = enum_marginals(unary, edges)
            assert result.converged
            for got, want in zip(result.marginals, exact):
                assert got == pytest.approx(want, abs=1e-9)

    def test_damping_reaches_same_fixed_point(self):
        rng = random.Random(77)
        unary, edges = random_tree_field(rng, EXACT_NODES + 2)
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
            assert result.rounds > 0
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
