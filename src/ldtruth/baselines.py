"""Reference resolution methods to compare the engine against.

Counting votes needs no state at all.  The score-propagation baseline
follows the classic web-source scheme: supporter trust accumulates in
log space per candidate, similar candidates lend each other a weighted
share of their score, a damped sigmoid maps scores back to confidences,
and source trust becomes the mean confidence of what the source said.
"""

from __future__ import annotations

import math

from .rdf_ingest import ClaimStore, ConflictSet
from .similarity import sim
from .truth_engine import Decision, decide, source_trustworthiness

METHOD_ENGINE = "ldtruth"
METHOD_VOTE = "vote"
METHOD_TRUTHFINDER = "truthfinder"

# truthfinder's starting trust, sigmoid dampening, weight of similar
# candidates' scores, and its stopping rule
INITIAL_TRUST = 0.9
DAMPENING = 0.3
BASE_SIM = 0.5
TOL = 1e-4
MAX_ITER = 50


def vote(cs: ConflictSet) -> Decision:
    """Widest support wins; ties resolve exactly like the engine's."""
    return decide(cs, [float(len(obj.sources)) for obj in cs.objects], {})


def vote_all(store: ClaimStore) -> list:
    return [vote(cs) for cs in store.conflict_sets.values()]


def _confidences(cs: ConflictSet, trust: dict, sims) -> list:
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
        adjusted.append(scores[i] + BASE_SIM * boost)
    return [1.0 / (1.0 + math.exp(-DAMPENING * a)) for a in adjusted]


def truthfinder(store: ClaimStore):
    """Iterate trust and confidence to a fixed point, then decide.

    Returns (decisions, source trust, iterations, converged).
    """
    sets = store.conflict_sets
    sim_tables = []
    for cs in sets.values():
        values = [obj.value for obj in cs.objects]
        table = [[0.0] * len(values) for _ in values]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                table[i][j] = table[j][i] = sim(values[i], values[j])
        sim_tables.append(table)

    trust = {s: INITIAL_TRUST for s in store.incidence}
    confidences = {}
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        for (k, cs), sims in zip(sets.items(), sim_tables):
            confidences[k] = _confidences(cs, trust, sims)
        # a source with no claim in any conflict set keeps its initial trust
        fresh = source_trustworthiness(store, confidences, INITIAL_TRUST)
        shift = max(abs(fresh[s] - trust[s]) for s in trust) if trust else 0.0
        trust = fresh
        if shift < TOL:
            converged = True
            break

    decisions = [decide(cs, confidences[k], trust) for k, cs in sets.items()]
    return decisions, trust, iterations, converged
