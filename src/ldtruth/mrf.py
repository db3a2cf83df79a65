"""Binary pairwise fields, summed exactly or by loopy belief propagation.

Nodes carry a two-state potential, edges carry a 2x2 table stored once
from the lower-indexed endpoint's perspective.  A field compiles once, so
new unary potentials can be solved without redoing it: a cycle-free field
of at most ``EXACT_NODES`` nodes into the coupling weight of each of its
2^n joint states, which are summed exactly; any other field into a message
plan for synchronous flooding with damping, where every directed message
is recomputed from the previous round, normalized, then blended with its
old value.  With cycles this is the usual loopy approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import frexp, ldexp, prod
from operator import mul, sub

# largest forest summed exactly: up to here enumeration beats cold
# propagation on trees of similarity tables (cost table in CHANGES.md)
EXACT_NODES = 8
# _BITS[n][i][s]: state of node i in joint state s of an n-node field
_BITS = [[bytes(s >> n - 1 - i & 1 for s in range(1 << n)) for i in range(n)]
         for n in range(EXACT_NODES + 1)]


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
        linked = [{i} for i in range(n)]   # nodes joined to i by edges so far
        cyclic = False
        for i, j, psi in self.edges:
            if not 0 <= i < j < n:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            if min(*psi[0], *psi[1]) <= 0.0:
                raise ValueError("edge potentials must be positive")
            cyclic = cyclic or linked[i] is linked[j]
            tree = linked[i] | linked[j]
            for k in tree:
                linked[k] = tree
        self.exact = n <= EXACT_NODES and not cyclic
        if self.exact:
            # scaling a table by a power of two is exact; every product
            # of scaled tables stays at most 1, so none overflows
            tables = [(_BITS[n][i], _BITS[n][j],
                       [[ldexp(w, -frexp(max(*psi[0], *psi[1]))[1])
                         for w in row] for row in psi])
                      for i, j, psi in self.edges]
            self.coupling = [prod(psi[a[s]][b[s]] for a, b, psi in tables)
                             for s in range(1 << n)]
            return
        # messages are flat (m0, m1) pairs: i -> j on edge e starts at 4e,
        # j -> i at 4e + 2; local[i] holds (offset in, offset out, c) with
        # i's outgoing message out_b = p0 * c[2b] + p1 * c[2b + 1]
        local = [[] for _ in range(n)]
        for e, (i, j, ((a, b), (c, d))) in enumerate(self.edges):
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

    A cycle-free field of at most ``EXACT_NODES`` nodes is summed over its
    joint states exactly, in zero rounds.  Otherwise messages start from
    ``messages``, the ``messages`` of an earlier result on the same field
    (a warm start), or uniform when that is None.  A round recomputes all
    of them from the previous round's values; convergence is the largest
    componentwise message change falling under ``tol``.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    unary = field.unary
    if field.exact:
        joint = list(map(mul, map(prod, product(*unary)), field.coupling))
        z = sum(joint)
        return BpResult([sum(compress(joint, bits)) / z
                         for bits in _BITS[len(unary)]], True, 0)

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
