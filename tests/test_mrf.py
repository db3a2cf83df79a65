"""Exact sums and belief propagation checked against brute-force
enumeration."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldtruth.mrf import EXACT_NODES, MarkovField, _fold, loopy_bp
from ldtruth.truth_engine import EngineConfig, pairwise_tables
from ldtruth.values import NormalizedValue

from oracles import (enum_marginals, fold_ref, fraction_marginals,
                     joint_sum_marginals, random_loopy_field,
                     random_tree_field)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_unary(self, bad):
        with pytest.raises(ValueError, match="unary"):
            MarkovField(unary=[(1.0, 1.0), (bad, 1.0)], edges=[])
        with pytest.raises(ValueError, match="unary"):
            MarkovField(unary=[(1.0, bad)], edges=[])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("at", range(4))
    def test_rejects_nonfinite_edge_entry(self, bad, at):
        flat = [1.0, 2.0, 3.0, 4.0]
        flat[at] = bad
        psi = (tuple(flat[:2]), tuple(flat[2:]))
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
def small_fields(draw):
    """Any field the exact path takes: 1..EXACT_NODES nodes, arbitrary
    positive potentials, any set of node pairs as edges, cycles included."""
    size = draw(st.integers(min_value=1, max_value=EXACT_NODES))
    unary = [(draw(positive), draw(positive)) for _ in range(size)]
    edges = [(i, j, ((draw(positive), draw(positive)),
                     (draw(positive), draw(positive))))
             for i in range(size) for j in range(i + 1, size)
             if draw(st.booleans())]
    return unary, edges


class TestExactFields:

    @settings(max_examples=200, deadline=None)
    @given(small_fields())
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
        # the largest float; so is that of the 28 tables of a complete
        # field of near-equal numbers at the largest coupling allowed
        psi = ((3e199, 1e199), (1e199, 1e200))
        path = [(i, i + 1, psi) for i in range(EXACT_NODES - 1)]
        complete = pairwise_tables(
            [NormalizedValue.from_number(1_000_000 + i)
             for i in range(EXACT_NODES)], EngineConfig(coupling=709.0))
        assert len(complete) == EXACT_NODES * (EXACT_NODES - 1) // 2
        # frustrated tables: no state escapes several entries of 1e-300,
        # so every plain product of tables scaled to at most 1 underflows
        # to 0.  A star whose leaves pull the centre both ways, and a
        # complete field whose every edge prefers disagreement.
        lo = 1e-300
        star = [(0, j, ((1.0, 1.0), (lo, lo)) if j % 2 else
                 ((lo, lo), (1.0, 1.0))) for j in range(1, EXACT_NODES)]
        apart = [(i, j, ((lo, 1.0), (1.0, lo))) for i, j, _ in complete]
        unary = [(0.6, 0.4)] * EXACT_NODES
        for edges in (path, complete, star, apart):
            result = loopy_bp(MarkovField(unary=unary, edges=edges))
            assert result.rounds == 0
            for got, want in zip(result.marginals,
                                 enum_marginals(unary, edges)):
                assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("pair, want", [((1e-300, 1e-300), 0.5),
                                            ((1e-300, 3e-300), 0.75),
                                            ((1e300, 1e300), 0.5),
                                            ((1e300, 3e300), 0.75)])
    def test_extreme_unaries_stay_finite(self, pair, want):
        # every joint state's product of eight such potentials underflows
        # to 0 or overflows to inf
        result = loopy_bp(MarkovField([pair] * EXACT_NODES, []))
        assert result.rounds == 0
        for got in result.marginals:
            assert abs(got - want) <= 1e-12

    def test_span_past_the_float_range(self):
        # the winning state, (0, 1), weighs lo; the runner-up, (1, 0),
        # weighs lo * lo * 1e308; (0, 0) and (1, 1) weigh lo * lo.  Over
        # lo, with r = lo * 1e308, the marginals are (r + lo) / (1 + 2 lo
        # + r) and (1 + lo) / (1 + 2 lo + r), which are r / (1 + r) and
        # 1 / (1 + r) to far below a float's precision.  lo * lo is 0 as
        # a float, so scaling the unaries or the weights alone cannot
        # keep the runner-up
        lo = 5e-324
        field = MarkovField([(1.0, lo), (lo, 1.0)],
                            [(0, 1, ((lo, lo), (1e308, lo)))])
        r = lo * 1e308
        assert 4.9e-16 < r < 5e-16
        got = loopy_bp(field).marginals
        assert got[0] == pytest.approx(r / (1 + r), rel=1e-12)
        assert got[1] == pytest.approx(1 / (1 + r), rel=1e-15)

    def test_overflow_and_underflow_in_one_field(self):
        # all ones weighs about 3e1400 and all zeros about 1e-1400, past
        # both ends of the float range; node 0 alone is undecided
        unary = [(1.0, 3.0)] + [(1e-200, 1e200)] * (EXACT_NODES - 1)
        psi = ((2.0, 1.0), (1.0, 2.0))
        edges = [(i, i + 1, psi) for i in range(EXACT_NODES - 1)]
        edges.append((0, EXACT_NODES - 1, psi))
        got = loopy_bp(MarkovField(unary, edges)).marginals
        want = fraction_marginals(unary, edges)
        assert abs(want[0] - 12 / 13) <= 1e-12
        for g, w in zip(got, want):
            assert math.isfinite(g)
            assert abs(g - w) <= 1e-12


class TestGeneratedSum:

    @pytest.mark.parametrize("size", range(EXACT_NODES + 1))
    def test_matches_the_formula_bit_for_bit(self, size):
        rng = random.Random(size)
        for kind in (int, float):
            unary = [(kind(rng.uniform(1, 9)), kind(rng.uniform(1, 9)))
                     for _ in range(size)]
            for shape in ("edgeless", "tree", "cyclic"):
                edges = ([] if shape == "edgeless" or not size else
                         random_tree_field(rng, size)[1] if shape == "tree"
                         else random_loopy_field(rng, size)[1])
                field = MarkovField(unary=unary, edges=edges)
                assert field.exact
                assert (loopy_bp(field).marginals
                        == joint_sum_marginals(unary, field.coupling))

    def test_one_function_per_node_count(self):
        one = MarkovField(unary=[(1.0, 2.0)] * 3, edges=[])
        other = MarkovField(unary=[(3.0, 1.0)] * 3,
                            edges=[(0, 2, ((1.0, 2.0), (2.0, 1.0)))])
        assert one.kernel is other.kernel
        assert one.kernel is not MarkovField([(1.0, 1.0)] * 2, []).kernel


class TestFold:
    """The fold behind an exact field's weights and the overflow rescue
    must give the per-cell reference's mantissas and exponents bit for
    bit, each state's bits taken from their definition."""

    @staticmethod
    def tables(rng, size):
        """Random, frustrated and largest-allowed tables on ``size`` nodes."""
        lo = 1e-300
        numbers = [NormalizedValue.from_number(1_000_000 + i)
                   for i in range(size)]
        return [random_tree_field(rng, size)[1],
                random_loopy_field(rng, size, extra_edges=size)[1],
                [(i, j, ((lo, 1.0), (1.0, lo)))
                 for i in range(size) for j in range(i + 1, size)],
                [(0, j, ((1.0, 1.0), (lo, lo)) if j % 2 else
                  ((lo, lo), (1.0, 1.0))) for j in range(1, size)],
                # coupling * |dissimilar_false_factor| at the bound of 709
                pairwise_tables(numbers, EngineConfig(coupling=709.0)),
                pairwise_tables(numbers, EngineConfig(
                    coupling=354.5, dissimilar_false_factor=-2.0))]

    @pytest.mark.parametrize("size", range(EXACT_NODES + 1))
    def test_matches_the_per_cell_fold_bit_for_bit(self, size):
        rng = random.Random(size)
        for edges in self.tables(rng, size):
            field = MarkovField([(0.6, 0.4)] * size, edges)
            assert field.coupling == [
                math.ldexp(m, e) for m, e in zip(*fold_ref(size, edges))]
            # the rescue's factors: the edges, then each node's unary pair
            # as a table from the node to itself
            unary = [(rng.uniform(1e299, 1e300), rng.uniform(1e299, 1e300))
                     for _ in range(size)]
            factors = [*edges, *((i, i, (p, p)) for i, p in enumerate(unary))]
            mant, expo = _fold(size, factors)
            assert (mant, expo) == fold_ref(size, factors)
            if size >= 2:   # every state's unary product overflows
                field.unary = unary
                assert loopy_bp(field).marginals == joint_sum_marginals(
                    [(1.0, 1.0)] * size, list(map(math.ldexp, mant, expo)))


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
        # a fresh field, so the damped run starts cold too
        damped = loopy_bp(MarkovField(unary=unary, edges=edges),
                          damping=0.3, tol=1e-11, max_rounds=2000)
        assert damped.converged
        for a, b in zip(plain.marginals, damped.marginals):
            assert a == pytest.approx(b, abs=1e-6)


class TestLoopyApproximation:

    def test_close_to_enumeration_on_cyclic_fields(self):
        rng = random.Random(9035)
        for trial in range(25):
            # above the exact path, so propagation itself is checked
            size = rng.randrange(EXACT_NODES + 1, EXACT_NODES + 5)
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
           st.integers(min_value=EXACT_NODES + 1, max_value=EXACT_NODES + 4))
    def test_converged_messages_restart_converged(self, seed, size):
        unary, edges = random_loopy_field(random.Random(seed), size)
        field = MarkovField(unary=unary, edges=edges)
        tol = 1e-6
        cold = loopy_bp(field, tol=tol)
        assume(cold.converged)
        warm = loopy_bp(field, tol=tol)     # resumes from cold's messages
        assert warm.converged
        assert warm.rounds <= 1
        for a, b in zip(cold.marginals, warm.marginals):
            assert abs(a - b) <= 10 * tol

    def test_new_unary_converges_in_fewer_rounds(self):
        unary, edges = random_loopy_field(random.Random(8), 9)
        field = MarkovField(unary=unary, edges=edges)
        loopy_bp(field, tol=1e-10, max_rounds=1000)
        field.unary = [(p0 * 1.01, p1) for p0, p1 in unary]
        cold = loopy_bp(MarkovField(unary=field.unary, edges=edges),
                        tol=1e-10, max_rounds=1000)
        warm = loopy_bp(field, tol=1e-10, max_rounds=1000)
        assert cold.converged and warm.converged
        assert warm.rounds < cold.rounds
        for a, b in zip(cold.marginals, warm.marginals):
            assert abs(a - b) <= 1e-8


class TestStopRule:

    @pytest.mark.parametrize("size", [EXACT_NODES + 1, EXACT_NODES + 2])
    def test_nan_message_is_not_convergence(self, size):
        # a ring with near-hard couplings converges cold; one huge unary
        # then drives some messages to NaN (inf / inf), and never the
        # first one
        psi = ((1e10, 1.0), (1.0, 1e10))
        edges = sorted((min(i, (i + 1) % size), max(i, (i + 1) % size), psi)
                       for i in range(size))
        field = MarkovField([(1.0, 1.0)] * size, edges)
        assert not field.exact
        cold = loopy_bp(field)
        assert cold.converged
        field.unary = [(1.0, 1.0), (1e300, 1e299)] + [(1.0, 1.0)] * (size - 2)
        warm = loopy_bp(field)
        # the first message is a number, so a max over the changes,
        # which starts from it, would skip every NaN after it
        assert any(map(math.isnan, field.messages))
        assert not math.isnan(field.messages[0])
        assert not warm.converged
        assert warm.rounds == 100


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
