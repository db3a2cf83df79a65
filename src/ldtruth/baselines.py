"""Reference resolution methods to compare the engine against.

Counting votes needs no state at all.  The score-propagation baseline
follows the classic web-source scheme: supporter trust accumulates in
log space per candidate, similar candidates lend each other a weighted
share of their score, a damped sigmoid maps scores back to confidences,
and source trust becomes the mean confidence of what the source said.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rdf_ingest import ClaimStore, ConflictSet
from .similarity import sim
from .truth_engine import Decision, select_truth, source_trustworthiness

METHOD_VOTE = "vote"
METHOD_TRUTHFINDER = "truthfinder"


@dataclass(frozen=True)
class TruthFinderParams:
    initial_trust: float = 0.9
    dampening: float = 0.3
    base_sim: float = 0.5
    tol: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not 0.0 < self.initial_trust < 1.0:
            raise ValueError("initial_trust must be strictly inside (0, 1)")
        if self.dampening <= 0 or self.tol <= 0:
            raise ValueError("dampening and tol must be positive")
        if self.base_sim < 0:
            raise ValueError("base_sim must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TRUTHFINDER = TruthFinderParams()


def vote(cs: ConflictSet) -> Decision:
    """Widest support wins; ties resolve exactly like the engine's."""
    counts = [float(len(obj.sources)) for obj in cs.objects]
    winner = select_truth(cs, counts, {})
    return Decision(cs.entity, cs.predicate, cs.objects[winner].value,
                    tuple(counts))


def vote_all(store: ClaimStore) -> list:
    return [vote(store.conflict_sets[key])
            for key in sorted(store.conflict_sets)]


def _confidences(cs: ConflictSet, trust: dict, sims, params) -> list:
    scores = []
    for obj in cs.objects:
        score = 0.0
        for source in obj.sources:
            clipped = min(trust[source], 1.0 - 1e-12)
            score += -math.log1p(-clipped)
        scores.append(score)
    m = len(scores)
    adjusted = []
    for i in range(m):
        boost = 0.0
        for j in range(m):
            if j != i and sims[i][j] > 0.0:
                boost += sims[i][j] * scores[j]
        adjusted.append(scores[i] + params.base_sim * boost)
    return [1.0 / (1.0 + math.exp(-params.dampening * a)) for a in adjusted]


def truthfinder(store: ClaimStore,
                params: TruthFinderParams = DEFAULT_TRUTHFINDER):
    """Iterate trust and confidence to a fixed point, then decide.

    Returns (decisions, source trust, iterations, converged).
    """
    keys = sorted(store.conflict_sets)
    sets = [store.conflict_sets[k] for k in keys]
    sim_tables = []
    for cs in sets:
        values = [obj.value for obj in cs.objects]
        table = [[0.0] * len(values) for _ in values]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                table[i][j] = table[j][i] = sim(values[i], values[j])
        sim_tables.append(table)

    trust = {s: params.initial_trust for s in store.incidence}
    confidences = {k: [0.0] * len(cs.objects) for k, cs in zip(keys, sets)}
    converged = False
    iterations = 0
    for iterations in range(1, params.max_iter + 1):
        for k, cs, sims in zip(keys, sets, sim_tables):
            confidences[k] = _confidences(cs, trust, sims, params)
        # a source with no claim in any conflict set keeps its initial trust
        fresh = source_trustworthiness(store, confidences,
                                       params.initial_trust)
        shift = max(abs(fresh[s] - trust[s]) for s in trust) if trust else 0.0
        trust = fresh
        if shift < params.tol:
            converged = True
            break

    decisions = []
    for k, cs in zip(keys, sets):
        winner = select_truth(cs, confidences[k], trust)
        decisions.append(Decision(cs.entity, cs.predicate,
                                  cs.objects[winner].value,
                                  tuple(confidences[k])))
    return decisions, trust, iterations, converged
