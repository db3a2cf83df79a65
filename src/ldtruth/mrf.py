"""Binary pairwise fields, summed exactly or by loopy belief propagation.

Nodes carry a two-state potential, edges carry a 2x2 table stored once
from the lower-indexed endpoint's perspective.  A field compiles once, so
new unary potentials can be solved without redoing it: a field of at
most ``EXACT_NODES`` nodes, cyclic or not, into the coupling weight of
each of its 2^n joint states, which are summed exactly; a larger field
into a message plan for synchronous flooding with damping, where every
directed message is recomputed from the previous round, normalized, then
blended with its old value.  With cycles this is the usual loopy
approximation.  A larger field keeps the messages its last solve ended
with, so the next solve starts from them; a fresh field starts uniform.

The exact sum runs generated straight-line code, one function per node
count, compiled once per process, whose text holds only integers.  It
takes each product of the first k nodes' potentials once, for all the
states that share it, and the fold behind its coupling weights takes
each table's ``frexp`` once and looks each state's cell up by index.
Neither moves a bit: the same multiplications happen in the same left to
right order, and ``1 * x`` and ``0 + e`` are exact.  It gives finite
marginals for any positive finite potentials: a sum that leaves the
float range is redone by folding the field's own tables, its edges and
its unary pairs, into mantissas and exponents.
"""

from functools import cache
from math import frexp, inf, ldexp
from typing import NamedTuple

# largest field summed exactly: up to here enumeration beats cold
# propagation on trees of similarity tables (cost table in CHANGES.md),
# and a cycle adds nothing to its cost
EXACT_NODES = 8


class MarkovField:
    """``unary[i]`` is (phi(0), phi(1)); ``edges`` holds (i, j, psi) with
    i < j and ``psi[a][b]`` scoring state a at i against state b at j.
    Every potential is positive and finite.  ``unary`` may be replaced by
    such pairs of the same length.  ``coupling`` holds an exact field's
    per-state edge weights, and ``messages`` a larger field's messages
    from its last solve."""

    def __init__(self, unary: list, edges: list):
        self.unary = unary
        self.edges = edges
        n = len(unary)
        for p0, p1 in unary:
            if not (0.0 < p0 < inf and 0.0 < p1 < inf):
                raise ValueError("unary potentials must be positive and finite")
        for i, j, ((a, b), (c, d)) in edges:
            if not 0 <= i < j < n:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            if not (0.0 < a < inf and 0.0 < b < inf
                    and 0.0 < c < inf and 0.0 < d < inf):
                raise ValueError("edge potentials must be positive and finite")
        self.exact = n <= EXACT_NODES
        if self.exact:
            self.coupling = list(map(ldexp, *_fold(n, edges)))
            self.kernel = _joint_sum(n)
            return
        # messages are flat (m0, m1) pairs, i -> j on edge e at offset 4e
        # and j -> i at 4e + 2.  Per node: (incoming offset, outgoing
        # offset, psi as c0..c3 with out_b = p0 * c[2b] + p1 * c[2b + 1]),
        # so i -> j reads psi by columns and j -> i by rows
        local = [[] for _ in range(n)]
        for e, (i, j, ((a, b), (c, d))) in enumerate(edges):
            local[i].append((4 * e + 2, 4 * e, (a, c, b, d)))
            local[j].append((4 * e, 4 * e + 2, (a, b, c, d)))
        self.in_slots = [tuple(at for at, _, _ in node) for node in local]
        # per message: sender, offset out, c0..c3, offsets of the
        # sender's other incoming messages
        self.plan = [(i, out, *c, tuple(at for at, o, _ in node if o != out))
                     for i, node in enumerate(local) for _, out, c in node]
        self.messages = [0.5] * (4 * len(edges))


def _fold(n, factors):
    """Per-state mantissas and exponents, from unit weights, of the product
    of the tables (i, j, psi), each scoring state a at node i against b at
    node j, shifted so the largest exponent is 0.  That keeps the marginals'
    bits; no weight then exceeds 1, and after k tables one is at least 2^-k."""
    mant, expo = [1.0] * (1 << n), [0] * (1 << n)
    for i, j, psi in factors:
        m, e = zip(*map(frexp, (*psi[0], *psi[1])))
        at = _cells(n)[i][j]
        mant = [x * m[c] for x, c in zip(mant, at)]
        expo = [x + e[c] for x, c in zip(expo, at)]
    top = max(expo)
    return mant, [e - top for e in expo]


@cache
def _cells(n):
    """``_cells(n)[i][j][s]`` is 2a + b, the cell of a flat 2x2 table for
    state a of node i and b of node j in joint state s (bit n - 1 - i)."""
    bits = [[s >> n - 1 - i & 1 for s in range(1 << n)] for i in range(n)]
    return [[bytes(2*x + y for x, y in zip(a, b)) for b in bits] for a in bits]


@cache
def _joint_sum(n):
    """``joint(unary, coupling)``: P(state 1) of every node of an n-node
    field whose 2^n joint states have the given coupling weights.  A
    state's weight is ``1 * phi_0 * ... * phi_n-1 * coupling``, as ``prod``
    multiplies, from shared prefix products ``p<bits>``; sums add left to
    right from 0, and a total of 0 or not finite raises ArithmeticError."""
    states = range(1 << n)
    names = [""]
    lines = ["def joint(unary, coupling):",
             " " + "".join(f"w{s}, " for s in states) + "= coupling", " p = 1"]
    if n:
        lines.append(" " + "".join(f"(u{i}, v{i}), " for i in range(n))
                     + "= unary")
    for i in range(n):
        names = [f"{name}{b}" for name in names for b in "01"]
        lines += (f" p{name} = p{name[:-1]} * {'uv'[int(name[-1])]}{i}"
                  for name in names)
    lines += (f" j{s} = p{name} * w{s}" for s, name in zip(states, names))
    lines.append(" z = 0" + "".join(f" + j{s}" for s in states))
    lines.append(" if not 0 < z < inf: raise ArithmeticError")
    lines.append(" return [" + ", ".join(
        "(0" + "".join(f" + j{s}" for s in states if s >> n - 1 - i & 1)
        + ") / z" for i in range(n)) + "]")
    space = {"inf": inf}
    exec(compile("\n".join(lines), "<ldtruth.mrf.joint>", "exec"), space)
    return space["joint"]


class BpResult(NamedTuple):
    marginals: list
    converged: bool
    rounds: int


def loopy_bp(field: MarkovField, damping: float = 0.3, tol: float = 1e-6,
             max_rounds: int = 100) -> BpResult:
    """Marginal probability of state 1 for every node.

    A field of at most ``EXACT_NODES`` nodes is summed over its joint
    states exactly, in zero rounds.  Otherwise propagation starts from
    ``field.messages`` and stores the messages it ends with there.  A
    round recomputes all of them from the previous round's values, and
    the run has converged once every component moved by less than
    ``tol``; a NaN never has.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    unary = field.unary
    if field.exact:
        try:
            return BpResult(field.kernel(unary, field.coupling), True, 0)
        except ArithmeticError:
            # a product left the float range: sum again with unit unaries,
            # each pair refolded with the edges as its node's own table
            mant, expo = _fold(len(unary), [
                *field.edges, *((i, i, (p, p)) for i, p in enumerate(unary))])
            return BpResult(field.kernel([(1.0, 1.0)] * len(unary), [
                ldexp(m, e) for m, e in zip(mant, expo)]), True, 0)

    width = 4 * len(field.edges)
    messages = field.messages
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
        converged = all(abs(f - m) < tol for f, m in zip(fresh, messages))
        messages = fresh

    marginals = []
    for (b0, b1), ins in zip(unary, field.in_slots):
        for at in ins:
            b0 *= messages[at]
            b1 *= messages[at + 1]
        total = b0 + b1
        marginals.append(b1 / total if total > 0.0 else 0.5)
    field.messages = messages
    return BpResult(marginals, converged, rounds)
