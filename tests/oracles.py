"""Independent reference implementations the tests check the package against.

Everything here is written from the mathematical definitions directly,
trading speed for obviousness, so a disagreement points at the package.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import frexp, prod
from operator import add, mul
from urllib.parse import urlsplit

import numpy as np

from ldtruth.graph_model import SourceBeliefGraph
from ldtruth.mrf import MarkovField, loopy_bp
from ldtruth.public_suffix import (_EXCEPTION_RULES, _PLAIN_RULES,
                                   _WILDCARD_RULES)
from ldtruth.rdf_ingest import (OWL_SAMEAS, ClaimStore, ConflictSet,
                                ObjectSupport, statement_source)
from ldtruth.truth_engine import (DEFAULT_ENGINE, pairwise_tables,
                                  select_truth, smooth_trust)
from ldtruth.values import (_DATE_SHAPES, NormalizedValue, _checked,
                            _component, normalize_object)


def enum_marginals(unary, edges):
    """P(state 1) per node by summing the factorized joint over all states."""
    n = len(unary)
    states = np.array(list(itertools.product((0, 1), repeat=n)))
    log_w = np.zeros(len(states))
    for i, (p0, p1) in enumerate(unary):
        log_w += np.where(states[:, i] == 1, np.log(p1), np.log(p0))
    for i, j, psi in edges:
        table = np.log(np.array(psi))
        log_w += table[states[:, i], states[:, j]]
    weights = np.exp(log_w - log_w.max())
    z = weights.sum()
    return [float(weights[states[:, i] == 1].sum() / z) for i in range(n)]


def joint_sum_marginals(unary, coupling):
    """P(state 1) per node from the unary pairs and the coupling weight of
    every joint state, state s giving node i bit n - 1 - i of s: the exact
    sum ``loopy_bp`` ran on small forests before its sum was generated.
    The sums fold left to right from 0, which is the builtin ``sum`` up to
    Python 3.11 (3.12 compensates float sums)."""
    n = len(unary)
    joint = list(map(mul, map(prod, itertools.product(*unary)), coupling))
    z = reduce(add, joint, 0)
    return [reduce(add, itertools.compress(
                joint, [s >> n - 1 - i & 1 for s in range(1 << n)]), 0) / z
            for i in range(n)]


def fold_ref(n, factors):
    """Per-state (mantissas, exponents) of the product of the tables
    (i, j, psi), state s giving node i bit n - 1 - i of s, shifted so the
    largest exponent is 0: each state looks its cell up in the table of
    ``frexp`` pairs and multiplies, in factor order from 1.0 and 0."""
    mant, expo = [1.0] * (1 << n), [0] * (1 << n)
    for i, j, psi in factors:
        table = [[frexp(w) for w in row] for row in psi]
        cells = [table[s >> n - 1 - i & 1][s >> n - 1 - j & 1]
                 for s in range(1 << n)]
        mant = [m * c[0] for m, c in zip(mant, cells)]
        expo = [e + c[1] for e, c in zip(expo, cells)]
    top = max(expo)
    return mant, [e - top for e in expo]


def unary_from_base(tau_base):
    """(1 - p, p) per candidate, p its base trust clamped into
    [1e-6, 1 - 1e-6] so both potentials stay positive."""
    margin = 1e-6
    return [(1.0 - p, p)
            for p in (min(max(v, margin), 1.0 - margin) for v in tau_base)]


def fraction_marginals(unary, edges):
    """P(state 1) per node, every joint weight an exact ``Fraction``, so
    no product can overflow or underflow before the one final division."""
    n = len(unary)
    joint = {}
    for states in itertools.product((0, 1), repeat=n):
        weight = prod(Fraction(p[x]) for p, x in zip(unary, states))
        for i, j, psi in edges:
            weight *= Fraction(psi[states[i]][states[j]])
        joint[states] = weight
    z = sum(joint.values())
    return [float(sum(w for s, w in joint.items() if s[i]) / z)
            for i in range(n)]


def reference_public_suffix(host):
    """Longest suffix of ``host`` that a snapshot rule covers, the last
    label by default; an exception rule anywhere returns its base."""
    labels = host.split(".")
    best = labels[-1]
    best_len = 1
    for start in range(len(labels)):
        candidate = ".".join(labels[start:])
        length = len(labels) - start
        if candidate in _EXCEPTION_RULES:
            return ".".join(labels[start + 1:])
        if candidate in _PLAIN_RULES and length > best_len:
            best, best_len = candidate, length
        if start + 1 < len(labels):
            rest = ".".join(labels[start + 1:])
            if rest in _WILDCARD_RULES and length > best_len:
                best, best_len = candidate, length
    return best


def reference_pay_level_domain(host):
    """The public suffix plus one label; the host itself if none is left."""
    suffix_len = len(reference_public_suffix(host).split("."))
    labels = host.split(".")
    if len(labels) <= suffix_len:
        return host
    return ".".join(labels[-(suffix_len + 1):])


def statement_source_ref(subject, graph, policy):
    """The source of a statement about ``subject`` in ``graph`` as README
    words the rule: the host urlsplit reads from the graph IRI under the
    graph policy, else from the subject, less one trailing root dot; under
    ``pld`` its pay-level domain, unless its last label is all digits, as
    an IP literal's is.  (source, None), or (None, reason) for none."""
    if policy == "graph":
        if graph is None:
            return None, "missing_graph"
        subject = graph
    try:
        host = urlsplit(subject).hostname
    except ValueError:
        host = None
    host = host and host.removesuffix(".")
    if host and policy == "pld" and not host.split(".")[-1].isdigit():
        host = reference_pay_level_domain(host)
    return (host, None) if host else (None, "no_source")


def _out_degrees(sbg):
    """Each source's summed outgoing multiplicity, 0 for a pure sink,
    counted here rather than read from the graph under test."""
    out = {}
    for (l, k), count in sbg.multiplicity.items():
        out[l] = out.get(l, 0) + count
        out.setdefault(k, 0)
    return out


def prior_rhs(sbg, br, damping=0.85):
    """Right-hand side of the endorsement recurrence, recomputed from scratch."""
    out_degree = _out_degrees(sbg)
    senders = {}
    for (l, k), count in sbg.multiplicity.items():
        senders.setdefault(k, []).append((l, count))
    rhs = {}
    for j in out_degree:
        incoming = 0.0
        for l, count in senders.get(j, ()):
            incoming += br[l] * count / out_degree[l]
        rhs[j] = (1.0 - damping) + damping * incoming
    return rhs


def prior_linear_solve(sbg, damping=0.85):
    """Exact fixed point of the endorsement recurrence via a linear system."""
    out_degree = _out_degrees(sbg)
    order = sorted(out_degree)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    for (l, j), mult in sbg.multiplicity.items():
        m[index[j], index[l]] += mult / out_degree[l]
    solution = np.linalg.solve(np.eye(n) - damping * m,
                               np.full(n, 1.0 - damping))
    return {v: float(solution[index[v]]) for v in order}


def bfs_components(vertices, edges):
    """Connected components of an undirected graph, as frozensets."""
    adjacency = {v: set() for v in vertices}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen = set()
    components = []
    for start in adjacency:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        group = []
        while queue:
            node = queue.pop()
            group.append(node)
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append(frozenset(group))
    return set(components)


def lev_ref(a, b):
    """Plain full-matrix edit distance."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[-1][-1]


def store_from_claims(rows):
    """Build a ClaimStore from (entity, predicate, value, source) tuples.

    Grouping and ordering are redone here from the documented contract:
    claims deduplicated in first-seen order; an object's support is the
    sorted sources asserting that exact value; only slots with at least
    two distinct values become conflict sets, candidates in value order;
    every source maps to its (slot key, candidate slot) pairs, ascending.
    """
    claims = list(dict.fromkeys(tuple(row) for row in rows))
    by_slot = {}
    for e, p, v, s in claims:
        by_slot.setdefault((e, p), {}).setdefault(v, set()).add(s)
    conflict_sets = {}
    for key in sorted(by_slot):
        support = by_slot[key]
        if len(support) < 2:
            continue
        objects = tuple(ObjectSupport(value, tuple(sorted(support[value])))
                        for value in sorted(support, key=lambda v: v.sort_key()))
        conflict_sets[key] = ConflictSet(key[0], key[1], objects)
    incidence = {}
    for e, p, v, s in sorted(claims, key=lambda c: c[3]):
        hits = incidence.setdefault(s, [])
        cs = conflict_sets.get((e, p))
        if cs is not None:
            slot = [obj.value for obj in cs.objects].index(v)
            hits.append(((e, p), slot))
    for hits in incidence.values():
        hits.sort()
    return ClaimStore(claims=claims, conflict_sets=conflict_sets,
                      incidence=incidence, drop_counts={})


def parse_date_ref(text):
    """A date shape's (year, month, day), each shape tried in turn with no
    screen in front: ``values._parse_date_lexical`` before its screen."""
    for pattern, *groups in _DATE_SHAPES:
        match = pattern.match(text)
        if match:
            return _checked(*(None if g is None else _component(match[g])
                              for g in groups))
    return None


def build_claims_ref(statements, clusters, alignment=None, policy="host"):
    """The claim build one statement at a time, every field read by name,
    the source through the checked ``statement_source`` and each slot's
    containers made by ``setdefault``: ``rdf_ingest.build_claims`` before
    its loop was made lean."""
    alignment = alignment or {}
    drop_counts = Counter()
    claims, by_slot, normalized = [], {}, {}
    for st in statements:
        if st.predicate == OWL_SAMEAS:
            drop_counts["sameas" if not st.is_literal
                        else "literal_sameas"] += 1
            continue
        source, err = statement_source(st.subject, st.graph, policy)
        if err is not None:
            drop_counts[err] += 1
            continue
        raw = (st.object, st.datatype) if st.is_literal else st.object
        if raw not in normalized:
            normalized[raw] = normalize_object(st.object, st.datatype,
                                               is_iri=not st.is_literal)
        value = normalized[raw]
        if value is None:
            drop_counts["null_object"] += 1
            continue
        predicate = alignment.get(st.predicate, st.predicate)
        entity = clusters.cluster(st.subject)
        backers = by_slot.setdefault((entity, predicate), {}) \
                         .setdefault(value, set())
        if source in backers:
            drop_counts["duplicate"] += 1
            continue
        backers.add(source)
        claims.append((entity, predicate, value, source))
    incidence = {source: [] for source in sorted({c[3] for c in claims})}
    conflict_sets = {}
    for key in sorted(k for k, support in by_slot.items() if len(support) > 1):
        support = by_slot[key]
        objects = []
        for slot, value in enumerate(sorted(support,
                                            key=NormalizedValue.sort_key)):
            sources = tuple(sorted(support[value]))
            objects.append(ObjectSupport(value, sources))
            for source in sources:
                incidence[source].append((key, slot))
        conflict_sets[key] = ConflictSet(key[0], key[1], tuple(objects))
    return ClaimStore(claims=claims, conflict_sets=conflict_sets,
                      incidence=incidence, drop_counts=drop_counts)


def _escape_literal(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")


def format_statement(st) -> str:
    """Serialize one ``RdfStatement`` back to its N-Triples / N-Quads line."""
    if st.is_literal:
        rendered = f'"{_escape_literal(st.object)}"'
        if st.datatype:
            rendered += f"^^<{st.datatype}>"
        elif st.lang:
            rendered += f"@{st.lang}"
    else:
        rendered = f"<{st.object}>"
    parts = [f"<{st.subject}>", f"<{st.predicate}>", rendered]
    if st.graph is not None:
        parts.append(f"<{st.graph}>")
    return " ".join(parts) + " ."


def random_tree_field(rng, size, low=0.1, high=3.0):
    """Random tree-shaped potentials: each node past the first hangs off
    a uniformly chosen earlier node."""
    unary = [(rng.uniform(low, high), rng.uniform(low, high))
             for _ in range(size)]
    edges = []
    for j in range(1, size):
        i = rng.randrange(j)
        psi = ((rng.uniform(low, high), rng.uniform(low, high)),
               (rng.uniform(low, high), rng.uniform(low, high)))
        edges.append((i, j, psi))
    return unary, edges


def random_loopy_field(rng, size, coupling=1.0, extra_edges=3):
    """Cyclic fields shaped like the engine's own conflict-set fields:
    complementary unary pairs and agreement-style couplings of bounded
    strength, over a random tree plus a few chords."""
    unary = [(1.0 - c, c)
             for c in (rng.uniform(0.2, 0.8) for _ in range(size))]

    def agreement_table():
        lam = coupling * rng.uniform(0.1, 0.7)
        return ((np.exp(-0.5 * lam), np.exp(-lam)),
                (np.exp(-lam), np.exp(lam)))

    edges = []
    present = set()
    for j in range(1, size):
        i = rng.randrange(j)
        present.add((i, j))
        edges.append((i, j, agreement_table()))
    tries = 0
    while len(edges) < size - 1 + extra_edges and tries < 50:
        tries += 1
        a, b = rng.randrange(size), rng.randrange(size)
        if a == b:
            continue
        i, j = min(a, b), max(a, b)
        if (i, j) in present:
            continue
        present.add((i, j))
        edges.append((i, j, agreement_table()))
    return unary, edges


def random_sbg(rng, n_vertices, n_edges):
    """Random directed multigraph over string vertex names."""
    names = [f"v{i:04d}" for i in range(n_vertices)]
    sbg = SourceBeliefGraph()
    for _ in range(n_edges):
        a = names[rng.randrange(n_vertices)]
        b = names[rng.randrange(n_vertices)]
        sbg.add_edge(a, b)
    return sbg


def rescan_trust(store, tau, t0=0.5):
    """Mean conflict-claim probability per source, found by one scan over
    every claim of the store, in slot and value order."""
    position = {}
    for key, cs in store.conflict_sets.items():
        position[key] = {obj.value: i for i, obj in enumerate(cs.objects)}
    sums = {source: [0.0, 0] for source in claim_sources(store)}
    for entity, predicate, value, source in sorted(
            store.claims, key=lambda c: (c[0], c[1], c[2].sort_key())):
        key = (entity, predicate)
        slots = position.get(key)
        if slots is not None:
            sums[source][0] += tau[key][slots[value]]
            sums[source][1] += 1
    return {source: total / count if count else t0
            for source, (total, count) in sums.items()}


def claim_sources(store):
    """Every source with at least one claim, sorted."""
    return sorted({claim[3] for claim in store.claims})


def reference_resolve(store, priors=None, cfg=DEFAULT_ENGINE):
    """The alternating loop with nothing carried between sweeps: a fresh
    field and a cold-start propagation per set per sweep, and a full claim
    rescan for the trust update.  Returns (chosen value per conflict key,
    tau per key, raw trust, sweeps, converged, BP rounds summed)."""
    keys = sorted(store.conflict_sets)
    sets = [store.conflict_sets[k] for k in keys]
    edges = [pairwise_tables([obj.value for obj in cs.objects], cfg)
             for cs in sets]
    nbr_map = priors.nbr if priors is not None else {}
    sources = claim_sources(store)
    nbr = {s: nbr_map.get(s, 0.5) for s in sources}
    t = {s: cfg.t0 for s in sources}
    t_smoothed = smooth_trust(t, nbr)
    tau = {k: [0.5] * len(cs.objects) for k, cs in zip(keys, sets)}
    converged = False
    iteration = rounds = 0
    for iteration in range(1, cfg.outer_max + 1):
        max_delta = 0.0
        for k, cs, set_edges in zip(keys, sets, edges):
            base = []
            for obj in cs.objects:
                total = 0.0
                for source in sorted(obj.sources):
                    total += t_smoothed[source]
                base.append(total / len(obj.sources))
            field = MarkovField(unary=unary_from_base(base),
                                edges=set_edges)
            result = loopy_bp(field, cfg.bp_damping, cfg.bp_tol, cfg.bp_max)
            rounds += result.rounds
            for old, new in zip(tau[k], result.marginals):
                max_delta = max(max_delta, abs(new - old))
            tau[k] = result.marginals
        t = rescan_trust(store, tau, cfg.t0)
        t_smoothed = smooth_trust(t, nbr)
        if max_delta < cfg.outer_threshold:
            converged = True
            break
    chosen = {k: cs.objects[select_truth(cs, tau[k], t_smoothed)].value
              for k, cs in zip(keys, sets)}
    return chosen, tau, t, iteration, converged, rounds
