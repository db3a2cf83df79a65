"""Joint estimation of source trust and object truth.

The loop alternates two views of the same evidence.  Holding source
trust fixed, every conflict set becomes a small binary field whose unary
potentials come from the mean smoothed trust of each candidate's
supporters and whose couplings come from value similarity; its
marginals are the truth probability of each candidate.  Holding those
probabilities fixed, each source is scored by the mean probability of
the candidates it backed, then blended half and half with its
structural prior.  Iteration stops when no candidate's probability
moves by more than the outer threshold.

Each set's field is built once and only its unary potentials change per
sweep.  A set of at most ``mrf.EXACT_NODES`` candidates is summed
exactly; above that, propagation resumes from its field's messages.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, sub
from typing import NamedTuple

from .mrf import MarkovField, loopy_bp
from .prior_belief import PriorBeliefs
from .rdf_ingest import ClaimStore, ConflictSet
from .similarity import sim


class _EngineFields(NamedTuple):
    t0: float = 0.5
    outer_threshold: float = 1e-3
    outer_max: int = 20
    bp_damping: float = 0.3
    bp_tol: float = 1e-6
    bp_max: int = 100
    edge_threshold: float = 0.1
    coupling: float = 1.0
    dissimilar_false_factor: float = -0.5


class EngineConfig(_EngineFields):
    __slots__ = ()
    _make = classmethod(lambda cls, row: cls(*row))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.t0 < 1.0:
            raise ValueError("t0 must be strictly between 0 and 1")
        # written so that NaN fails the check
        if not (self.outer_threshold > 0 and self.bp_tol > 0):
            raise ValueError("thresholds must be positive")
        if not all(isinstance(cap, int) and cap >= 1
                   for cap in (self.outer_max, self.bp_max)):
            raise ValueError("iteration caps must be integers of at least 1")
        if not 0.0 <= self.bp_damping < 1.0:
            raise ValueError("bp_damping must be in [0, 1)")
        if not 0.0 <= self.edge_threshold <= 1.0:
            raise ValueError("edge_threshold must be in [0, 1]")
        if not self.coupling > 0:
            raise ValueError("coupling must be positive")
        # pairwise_tables' largest exponent; math.exp overflows past 709
        if not self.coupling * max(abs(self.dissimilar_false_factor), 1.0) <= 709:
            raise ValueError("coupling * max(1, |dissimilar_false_factor|) "
                             "must be at most 709")
        return self


DEFAULT_ENGINE = EngineConfig()


class TrustState(NamedTuple):
    t: dict
    t_smoothed: dict


class Decision(NamedTuple):
    """The value one method chose for one conflict set.

    ``scores`` holds one number per candidate, in object order: the truth
    probability for the engine, the support count for vote, and the
    confidence for truthfinder.
    """

    entity: str
    predicate: str
    chosen: object
    scores: tuple


class ResolutionResult(NamedTuple):
    decisions: list
    trust: TrustState
    trace: list         # (iteration, mean delta tau, max delta tau) per sweep
    iterations: int
    converged: bool
    bp_converged: bool
    bp_rounds: int      # BP rounds summed over every set and sweep


def source_trustworthiness(store: ClaimStore, tau: dict,
                           t0: float = 0.5) -> dict:
    """Mean truth probability of the conflict-set claims of each source.

    A source with no claim inside any conflict set keeps the starting
    trust; unanimous claims carry no signal about reliability here.
    """
    trust = {}
    for source, hits in store.incidence.items():
        total = 0.0
        for key, slot in hits:
            total += tau[key][slot]
        trust[source] = total / len(hits) if hits else t0
    return trust


def smooth_trust(t: dict, nbr: dict) -> dict:
    """Equal-weight blend of claim-driven trust and the structural prior."""
    return {s: (nbr.get(s, 0.5) + t[s]) / 2.0 for s in t}


def object_base_trust(cs: ConflictSet, t_smoothed: dict) -> list:
    """Mean smoothed supporter trust per candidate, in object order."""
    base = []
    for obj in cs.objects:
        total = 0.0
        for source in obj.sources:
            total += t_smoothed[source]
        base.append(total / len(obj.sources))
    return base


def pairwise_tables(values, cfg: EngineConfig = DEFAULT_ENGINE) -> list:
    """Coupling tables for every value pair above the similarity cutoff.

    Both-true is rewarded, mixed states are penalized, and both-false is
    damped by the dissimilar-false factor, so a pair of similar values
    pulls at least one of its members toward true.
    """
    edges = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            s = sim(values[i], values[j])
            if s < cfg.edge_threshold:
                continue
            agree = math.exp(cfg.coupling * s)
            both_false = math.exp(cfg.coupling * s * cfg.dissimilar_false_factor)
            mixed = math.exp(-cfg.coupling * s)
            edges.append((i, j, ((both_false, mixed), (mixed, agree))))
    return edges


def select_truth(cs: ConflictSet, tau: list, t_smoothed: dict) -> int:
    """Index of the winning candidate, the least under ``rank``.

    Highest truth probability wins; exact ties fall back to broader
    support, then to larger summed supporter trust, then to the smallest
    value in canonical order so the outcome never depends on input
    order.  Sums here fold left to right: from Python 3.12 ``sum``
    compensates float sums, which would make the bits version-dependent.
    """
    def rank(i):
        obj = cs.objects[i]
        trust = reduce(add, (t_smoothed.get(s, 0.5) for s in obj.sources), 0.0)
        return (-tau[i], -len(obj.sources), -trust, obj.value.sort_key())
    return min(range(len(cs.objects)), key=rank)


def decide(cs: ConflictSet, scores, trust: dict) -> Decision:
    """The record of the candidate ``select_truth`` picks by ``scores``."""
    winner = select_truth(cs, scores, trust)
    return Decision(cs.entity, cs.predicate, cs.objects[winner].value,
                    tuple(scores))


def resolve_all(store: ClaimStore, priors: PriorBeliefs,
                cfg: EngineConfig = DEFAULT_ENGINE) -> ResolutionResult:
    """Run the alternating estimation over every conflict set.

    A source with claims but no place in the endorsement graph sits at
    the neutral 0.5 prior, as every source does under the empty prior.
    """
    sets = store.conflict_sets
    fields = [MarkovField([(0.5, 0.5)] * len(cs.objects), pairwise_tables(
        [obj.value for obj in cs.objects], cfg)) for cs in sets.values()]

    t = {s: cfg.t0 for s in store.incidence}
    t_smoothed = smooth_trust(t, priors.nbr)
    tau = {k: [0.5] * len(cs.objects) for k, cs in sets.items()}

    trace = []
    converged = False
    bp_converged = True
    bp_rounds = 0
    for iteration in range(1, cfg.outer_max + 1):
        deltas = []
        for (k, cs), fld in zip(sets.items(), fields):
            # keeps both potentials positive when every supporter sits at 0 or 1
            unary = []
            for p in object_base_trust(cs, t_smoothed):
                if p < 1e-6:
                    p = 1e-6
                elif p > 1.0 - 1e-6:
                    p = 1.0 - 1e-6
                unary.append((1.0 - p, p))
            fld.unary = unary
            result = loopy_bp(fld, cfg.bp_damping, cfg.bp_tol, cfg.bp_max)
            bp_converged = bp_converged and result.converged
            bp_rounds += result.rounds
            deltas += map(abs, map(sub, result.marginals, tau[k]))
            tau[k] = result.marginals
        # a left fold, the same bits on every Python (see select_truth)
        mean = reduce(add, deltas) / len(deltas) if deltas else 0.0
        peak = max(deltas, default=0.0)
        trace.append((iteration, mean, peak))
        t = source_trustworthiness(store, tau, cfg.t0)
        t_smoothed = smooth_trust(t, priors.nbr)
        if peak < cfg.outer_threshold:
            converged = True
            break

    decisions = [decide(cs, tau[k], t_smoothed) for k, cs in sets.items()]
    state = TrustState(t=t, t_smoothed=t_smoothed)
    return ResolutionResult(decisions=decisions, trust=state, trace=trace,
                            iterations=iteration, converged=converged,
                            bp_converged=bp_converged, bp_rounds=bp_rounds)
