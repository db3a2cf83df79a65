"""Binary pairwise fields, summed exactly or by loopy belief propagation.

Nodes carry a two-state potential, edges carry a 2x2 table stored once
from the lower-indexed endpoint's perspective.  A field compiles once, so
new unary potentials can be solved without redoing it: a cycle-free field
of at most ``EXACT_NODES`` nodes into the coupling weight of each of its
2^n joint states, which are summed exactly; any other field into a message
plan for synchronous flooding with damping, where every directed message
is recomputed from the previous round, normalized, then blended with its
old value.  With cycles this is the usual loopy approximation.

Both small cases run generated straight-line code: one joint-state sum
per node count, and one flooding function per topology of a cyclic field
of at most ``KERNEL_NODES`` nodes.  Each is compiled the first time it is
needed and kept for the life of the process.  Its text holds only
integers (node counts, indices and message offsets), never an input
value, and it does the arithmetic of the interpreted loop in the same
order, so the results are the same to the bit.  Larger cyclic fields run
the interpreted loop.
"""

from __future__ import annotations

from functools import cache
from math import frexp, inf, ldexp, prod
from typing import NamedTuple

# largest forest summed exactly: up to here enumeration beats cold
# propagation on trees of similarity tables (cost table in CHANGES.md)
EXACT_NODES = 8
# largest cyclic field given a generated flood: a kernel takes as long to
# build as a few hundred interpreted rounds (CHANGES.md), so it pays only
# when its topology repeats, and up to 5 nodes there are at most
# 2^3 + 2^6 + 2^10 topologies
KERNEL_NODES = 5
# _BITS[n][i][s]: state of node i in joint state s of an n-node field
_BITS = [[bytes(s >> n - 1 - i & 1 for s in range(1 << n)) for i in range(n)]
         for n in range(EXACT_NODES + 1)]


class MarkovField:
    """``unary[i]`` is (phi(0), phi(1)); ``edges`` holds (i, j, psi) with
    i < j and ``psi[a][b]`` scoring state a at i against state b at j.
    Every potential is positive and finite.  ``unary`` may be replaced by
    such pairs of the same length."""

    def __init__(self, unary: list, edges: list):
        self.unary = unary
        self.edges = edges
        n = len(unary)
        for p0, p1 in unary:
            if not (0.0 < p0 < inf and 0.0 < p1 < inf):
                raise ValueError("unary potentials must be positive and finite")
        linked = [{i} for i in range(n)]   # nodes joined to i by edges so far
        cyclic = False
        for i, j, psi in edges:
            if not 0 <= i < j < n:
                raise ValueError(f"bad edge endpoints ({i}, {j})")
            if not all(0.0 < w < inf for w in (*psi[0], *psi[1])):
                raise ValueError("edge potentials must be positive and finite")
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
            self.kernel = _joint_sum(n)
            return
        pairs = tuple((i, j) for i, j, _ in self.edges)
        tables = tuple(w for _, _, psi in self.edges
                       for row in psi for w in row)
        if n <= KERNEL_NODES:
            self.kernel, self.tables = _flood(n, pairs), tables
            return
        self.kernel = None
        self.in_slots, sends = _layout(n, pairs)
        # per message: sender, offset out, c0..c3 with the outgoing
        # out_b = p0 * c[2b] + p1 * c[2b + 1], offsets of the sender's
        # other incoming messages
        self.plan = [(i, out, *(tables[k] for k in cols), others)
                     for i, out, cols, others in sends]


def _layout(n, pairs):
    """Where each message lives: messages are flat (m0, m1) pairs, i -> j
    on edge e at offset 4e and j -> i at 4e + 2, and edge e's psi is
    flat from 4e, row by row.  Returns the offsets of each node's
    incoming messages, and per message (sender, offset out, offsets of
    the psi entries c0..c3 it reads, offsets of the sender's incoming
    messages but the reverse one)."""
    local = [[] for _ in range(n)]
    for e, (i, j) in enumerate(pairs):
        to_j, to_i = 4 * e, 4 * e + 2
        # i -> j reads psi by columns, j -> i by rows
        local[i].append((to_i, to_j, (to_j, to_j + 2, to_j + 1, to_j + 3)))
        local[j].append((to_j, to_i, (to_j, to_j + 1, to_j + 2, to_j + 3)))
    in_slots = [tuple(s for s, _, _ in node) for node in local]
    sends = [(i, out, cols, tuple(s for s, o, _ in node if o != out))
             for i, node in enumerate(local) for _, out, cols in node]
    return in_slots, sends


def _build(lines, name):
    space = {}
    exec(compile("\n".join(lines), f"<ldtruth.mrf.{name}>", "exec"), space)
    return space[name]


@cache
def _joint_sum(n):
    """``joint(unary, coupling)``: P(state 1) of every node of an n-node
    field whose 2^n joint states have the given coupling weights.  A
    state's weight is ``1 * phi_0 * ... * phi_n-1 * coupling``, as ``prod``
    multiplies, and every sum adds left to right from 0."""
    states = range(1 << n)
    bits = _BITS[n]
    lines = ["def joint(unary, coupling):",
             " " + "".join(f"w{s}, " for s in states) + "= coupling"]
    if n:
        lines.append(" " + "".join(f"(u{i}, v{i}), " for i in range(n))
                     + "= unary")
    for s in states:
        lines.append(f" j{s} = 1" + "".join(
            f" * {'uv'[bits[i][s]]}{i}" for i in range(n))
            + f" * w{s}")
    lines.append(" z = 0" + "".join(f" + j{s}" for s in states))
    lines.append(" return [" + ", ".join(
        "(0" + "".join(f" + j{s}" for s in states if bits[i][s])
        + ") / z" for i in range(n)) + "]")
    return _build(lines, "joint")


@cache
def _flood(n, pairs):
    """``flood(unary, tables, messages, keep, damping, tol, max_rounds)``
    for the field of n nodes with edges at ``pairs``: every round of the
    interpreted loop in ``loopy_bp`` written out, returning (marginals,
    converged, rounds, messages).  ``tables`` is each edge's psi, flat:
    four entries per edge, as many as message slots."""
    in_slots, sends = _layout(n, pairs)
    width = 4 * len(pairs)
    m = [f"m{k}" for k in range(width)]
    f = [f"f{k}" for k in range(width)]
    lines = ["def flood(unary, tables, messages, keep, damping, tol,"
             " max_rounds):",
             " " + "".join(f"(u{i}, v{i}), " for i in range(n)) + "= unary",
             " " + "".join(f"c{k}, " for k in range(width)) + "= tables",
             " " + "".join(f"{x}, " for x in m) + "= messages",
             " rounds = 0",
             " converged = False",
             " while rounds < max_rounds:",
             "  rounds += 1"]
    for i, out, c, others in sends:
        lines += [f"  p0 = u{i}" + "".join(f" * m{a}" for a in others),
                  f"  p1 = v{i}" + "".join(f" * m{a + 1}" for a in others),
                  f"  o0 = p0 * c{c[0]} + p1 * c{c[1]}",
                  f"  o1 = p0 * c{c[2]} + p1 * c{c[3]}",
                  "  t = o0 + o1",
                  "  if t > 0.0:",
                  f"   f{out} = keep * (o0 / t) + damping * m{out}",
                  f"   f{out + 1} = keep * (o1 / t) + damping * m{out + 1}",
                  "  else:",
                  f"   f{out} = keep * 0.5 + damping * m{out}",
                  f"   f{out + 1} = keep * 0.5 + damping * m{out + 1}"]
    lines += ["  converged = " + " and ".join(
                  f"abs({a} - {b}) < tol" for a, b in zip(f, m)),
              "  " + ", ".join(m) + " = " + ", ".join(f),
              "  if converged:",
              "   break"]
    for i, ins in enumerate(in_slots):
        lines += [f" b = u{i}" + "".join(f" * m{a}" for a in ins),
                  f" d = v{i}" + "".join(f" * m{a + 1}" for a in ins),
                  " t = b + d",
                  f" r{i} = d / t if t > 0.0 else 0.5"]
    lines.append(" return [" + ", ".join(f"r{i}" for i in range(n))
                 + "], converged, rounds, [" + ", ".join(m) + "]")
    return _build(lines, "flood")


class BpResult(NamedTuple):
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
    of them from the previous round's values, and the run has converged
    once every component moved by less than ``tol``; a NaN never has.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    unary = field.unary
    if field.exact:
        return BpResult(field.kernel(unary, field.coupling), True, 0)

    width = 4 * len(field.edges)
    if messages is None:
        messages = [0.5] * width
    keep = 1.0 - damping
    if field.kernel is not None:
        return BpResult(*field.kernel(unary, field.tables, messages, keep,
                                      damping, tol, max_rounds))
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
    return BpResult(marginals, converged, rounds, messages)
