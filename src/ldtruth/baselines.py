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
from .truth_engine import (DEFAULT_ENGINE, Decision, EngineConfig, decide,
                           resolve_all, source_trustworthiness)

METHOD_ENGINE = "ldtruth"
METHOD_VOTE = "vote"
METHOD_TRUTHFINDER = "truthfinder"
METHODS = (METHOD_ENGINE, METHOD_VOTE, METHOD_TRUTHFINDER)

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


def _confidences(cs: ConflictSet, trust: dict, pairs) -> list:
    scores = []
    for obj in cs.objects:
        score = 0.0
        for source in obj.sources:
            clipped = min(trust[source], 1.0 - 1e-12)
            score += -math.log1p(-clipped)
        scores.append(score)
    # pairs ascend by (i, j): each boost adds its partners in ascending order
    boost = [0.0] * len(scores)
    for i, j, s in pairs:
        boost[i] += s * scores[j]
        boost[j] += s * scores[i]
    return [1.0 / (1.0 + math.exp(-DAMPENING * (score + BASE_SIM * b)))
            for score, b in zip(scores, boost)]


def truthfinder(store: ClaimStore):
    """Iterate trust and confidence to a fixed point, then decide.

    Returns (decisions, source trust, iterations, converged).
    """
    sets = store.conflict_sets
    # per set, (i, j, similarity) for each similar pair with i < j
    similar = []
    for cs in sets.values():
        values = [obj.value for obj in cs.objects]
        similar.append([(i, j, s) for i, a in enumerate(values)
                        for j in range(i + 1, len(values))
                        if (s := sim(a, values[j])) > 0.0])

    trust = {s: INITIAL_TRUST for s in store.incidence}
    confidences = {}
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        for (k, cs), pairs in zip(sets.items(), similar):
            confidences[k] = _confidences(cs, trust, pairs)
        # a source with no claim in any conflict set keeps its initial trust
        fresh = source_trustworthiness(store, confidences, INITIAL_TRUST)
        shift = max(abs(fresh[s] - trust[s]) for s in trust) if trust else 0.0
        trust = fresh
        if shift < TOL:
            converged = True
            break

    decisions = [decide(cs, confidences[k], trust) for k, cs in sets.items()]
    return decisions, trust, iterations, converged


def run_method(method: str, store: ClaimStore, priors,
               engine_cfg: EngineConfig = DEFAULT_ENGINE):
    """Decide every conflict set of ``store`` with the named method.

    Returns (decisions, iterations, converged, trace), each of the last
    three None where the method has none; only the engine reads ``priors``.
    """
    if method == METHOD_ENGINE:
        result = resolve_all(store, priors, engine_cfg)
        return (result.decisions, result.iterations, result.converged,
                result.trace)
    if method == METHOD_VOTE:
        return vote_all(store), None, None, None
    if method == METHOD_TRUTHFINDER:
        decisions, _, iterations, converged = truthfinder(store)
        return decisions, iterations, converged, None
    raise ValueError(f"unknown method: {method!r}")
