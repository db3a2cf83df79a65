"""Reliability prior over sources from endorsement structure.

A source pointed at by many well-endorsed sources earns a higher score,
in the damped PageRank style, except that the raw recurrence is kept
verbatim: no teleportation mass split across the graph and no
redistribution from sinks.  Scores are then min-max normalized so the
trust update can mix them with claim-level evidence on a shared scale.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph_model import SourceBeliefGraph


class _PriorFields(NamedTuple):
    damping: float = 0.85
    tolerance: float = 1e-9
    max_sweeps: int = 200


class PriorConfig(_PriorFields):
    __slots__ = ()
    _make = classmethod(lambda cls, row: cls(*row))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        # written so that NaN fails the check
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        return self


DEFAULT_PRIOR = PriorConfig()


class PriorBeliefs(NamedTuple):
    br: dict
    nbr: dict
    sweeps_used: int
    residual: float
    converged: bool


def compute_prior(sbg: SourceBeliefGraph,
                  cfg: PriorConfig = DEFAULT_PRIOR) -> PriorBeliefs:
    """Iterate the endorsement recurrence to its fixed point.

    Synchronous sweeps from a unit start vector, stopping when the
    largest per-source change drops under the tolerance.  Hitting the
    sweep cap still returns the last vector, flagged as not converged.
    A graph with no vertices has the empty prior.
    """
    if not sbg.multiplicity:
        return PriorBeliefs({}, {}, 0, 0.0, True)
    order = sorted(sbg.vertices)
    index = {s: i for i, s in enumerate(order)}
    out_degree = dict.fromkeys(order, 0)
    for (a, _), count in sbg.multiplicity.items():
        out_degree[a] += count
    # incoming[j] holds (i, weight) with weight = multiplicity / out-degree
    incoming = [[] for _ in order]
    for (a, b), count in sbg.multiplicity.items():
        incoming[index[b]].append((index[a], count / out_degree[a]))
    for rows in incoming:
        rows.sort()

    d = cfg.damping
    base = 1.0 - d
    br = [1.0] * len(order)
    converged = False
    for sweeps in range(1, cfg.max_sweeps + 1):
        nxt = []
        for j in range(len(order)):
            total = 0.0
            for i, weight in incoming[j]:
                total += br[i] * weight
            nxt.append(base + d * total)
        residual = max(abs(a - b) for a, b in zip(nxt, br))
        br = nxt
        if residual < cfg.tolerance:
            converged = True
            break
    scores = {s: br[index[s]] for s in order}
    return PriorBeliefs(br=scores, nbr=normalize_prior(scores),
                        sweeps_used=sweeps, residual=residual,
                        converged=converged)


def normalize_prior(br: dict) -> dict:
    """Min-max rescale to [0, 1]; a constant vector flattens to 0.5."""
    if not br:
        return {}
    low = min(br.values())
    high = max(br.values())
    spread = high - low
    if spread == 0.0:
        return {s: 0.5 for s in br}
    return {s: (v - low) / spread for s, v in br.items()}
