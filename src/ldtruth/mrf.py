"""Binary pairwise fields and loopy belief propagation.

Nodes carry a two-state potential, edges carry a 2x2 table stored once
from the lower-indexed endpoint's perspective.  A field compiles its
message plan once, so new unary potentials can be solved without redoing
it.  Two nodes on one edge are solved exactly; anything else runs
synchronous flooding with damping: every directed message is recomputed
from the previous round, normalized, then blended with its old value.
On a cycle-free field the fixed point is the exact marginal; with cycles
the usual loopy approximation applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub


@dataclass
class MarkovField:
    """``unary[i]`` is (phi(0), phi(1)); ``edges`` holds (i, j, psi) with
    i < j and ``psi[a][b]`` scoring state a at i against state b at j.
    ``unary`` may be replaced by positive pairs of the same length."""

    unary: list
    edges: list

    def __post_init__(self):
        n = len(self.unary)
        for p0, p1 in self.unary:
            if p0 <= 0.0 or p1 <= 0.0:
                raise ValueError("unary potentials must be positive")
        # messages are flat (m0, m1) pairs: i -> j on edge e starts at 4e,
        # j -> i at 4e + 2; local[i] holds (offset in, offset out, c) with
        # i's outgoing message out_b = p0 * c[2b] + p1 * c[2b + 1]
        local = [[] for _ in range(n)]
        for e, (i, j, psi) in enumerate(self.edges):
            if not 0 <= i < j < n:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            (a, b), (c, d) = psi
            if min(a, b, c, d) <= 0.0:
                raise ValueError("edge potentials must be positive")
            local[i].append((4 * e + 2, 4 * e, (a, c, b, d)))
            local[j].append((4 * e, 4 * e + 2, (a, b, c, d)))
        self.in_slots = [tuple(s for s, _, _ in node) for node in local]
        # per message: sender, offset out, c0..c3, offsets of the sender's
        # other incoming messages (all but the reverse of this one)
        self.plan = [(i, out, *cols, tuple(s for s, o, _ in node if o != out))
                     for i, node in enumerate(local) for _, out, cols in node]


@dataclass
class BpResult:
    marginals: list
    converged: bool
    rounds: int
    messages: list | None = None  # final messages, flat; None if exact


def loopy_bp(field: MarkovField, damping: float = 0.3, tol: float = 1e-6,
             max_rounds: int = 100, messages: list | None = None) -> BpResult:
    """Marginal probability of state 1 for every node.

    Two nodes joined by one edge are summed over their four joint states
    exactly, in zero rounds.  Otherwise messages start from ``messages``,
    the ``messages`` of an earlier result on the same field (a warm
    start), or uniform when that is None.  A round recomputes all of them
    from the previous round's values; convergence is the largest
    componentwise message change falling under ``tol``.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    unary = field.unary
    if len(unary) == 2 and len(field.edges) == 1:
        (a0, a1), (b0, b1) = unary
        (w00, w01), (w10, w11) = field.edges[0][2]
        w00, w01, w10, w11 = a0*b0*w00, a0*b1*w01, a1*b0*w10, a1*b1*w11
        z = w00 + w01 + w10 + w11
        return BpResult([(w10 + w11) / z, (w01 + w11) / z], True, 0)

    width = 4 * len(field.edges)
    if messages is None:
        messages = [0.5] * width
    keep = 1.0 - damping
    rounds = 0
    converged = not width
    while rounds < max_rounds and not converged:
        rounds += 1
        fresh = [0.0] * width
        for i, out, c0, c1, c2, c3, others in field.plan:
            p0, p1 = unary[i]
            for at in others:
                p0 *= messages[at]
                p1 *= messages[at + 1]
            out0 = p0 * c0 + p1 * c1
            out1 = p0 * c2 + p1 * c3
            total = out0 + out1
            if total > 0.0:
                out0 /= total
                out1 /= total
            else:
                out0 = out1 = 0.5
            fresh[out] = keep * out0 + damping * messages[out]
            fresh[out + 1] = keep * out1 + damping * messages[out + 1]
        converged = max(map(abs, map(sub, fresh, messages))) < tol
        messages = fresh

    marginals = []
    for (b0, b1), ins in zip(unary, field.in_slots):
        for at in ins:
            b0 *= messages[at]
            b1 *= messages[at + 1]
        total = b0 + b1
        marginals.append(b1 / total if total > 0.0 else 0.5)
    return BpResult(marginals, converged, rounds, messages)
