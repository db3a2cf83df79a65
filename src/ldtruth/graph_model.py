"""Identity graph and its projection onto sources.

Two structures come out of the sameAs statements.  The undirected view
clusters resource IRIs into entities, each named by its smallest IRI.
The directed view keeps each link as an endorsement, with multiplicity,
from the source that states it to the source of its object, and
that multigraph is what the reliability prior runs on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .rdf_ingest import (NoAuthorityError, extract_source, is_identity_link,
                         statement_source)


@dataclass
class SameAsGraph:
    vertices: set
    edges: list     # (subject, object, graph or None) per identity link

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_sameas_graph(statements) -> SameAsGraph:
    """Collect directed identity links whose object is an IRI."""
    vertices = set()
    edges = []
    for st in statements:
        if not is_identity_link(st):
            continue
        u, v = st.subject, st.object
        vertices.add(u)
        vertices.add(v)
        edges.append((u, v, st.graph))
    return SameAsGraph(vertices, edges)


@dataclass
class EntityClusterMap:
    """Total map from IRIs to entity ids.

    An IRI never touched by an identity link is its own singleton
    cluster; a linked component is named by its smallest member IRI so
    the id does not depend on statement order.
    """

    cluster_of: dict
    members: dict

    def cluster(self, iri: str) -> str:
        return self.cluster_of.get(iri, iri)


def sameas_closure(graph: SameAsGraph) -> EntityClusterMap:
    """Connected components of the undirected identity graph.  Each union
    hangs the larger root under the smaller, so a root is the smallest
    IRI of its component."""
    parent = {v: v for v in graph.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # path halving
        return x

    for u, v, _ in graph.edges:
        low, high = sorted((find(u), find(v)))
        parent[high] = low
    # point every vertex at its root: the parent dict is the cluster map
    members = {}
    for v in sorted(parent):
        parent[v] = root = find(v)
        members.setdefault(root, []).append(v)
    return EntityClusterMap(parent, members)


@dataclass
class SourceBeliefGraph:
    """Directed endorsement multigraph over sources.

    ``multiplicity[(a, b)]`` counts parallel links from a to b, and
    ``out_degree[a]`` sums every outgoing multiplicity.  Links left out
    are counted in ``drop_counts`` by reason: ``self_loop``,
    ``no_source`` or ``missing_graph``.
    """

    vertices: set = field(default_factory=set)
    multiplicity: dict = field(default_factory=dict)
    out_degree: dict = field(default_factory=dict)
    drop_counts: Counter = field(default_factory=Counter)

    def add_edge(self, a: str, b: str):
        if a == b:
            self.drop_counts["self_loop"] += 1
            return
        self.vertices.add(a)
        self.vertices.add(b)
        key = (a, b)
        self.multiplicity[key] = self.multiplicity.get(key, 0) + 1
        self.out_degree[a] = self.out_degree.get(a, 0) + 1


def project_to_sbg(graph: SameAsGraph, policy: str = "host") -> SourceBeliefGraph:
    """Map each identity link ``<u> owl:sameAs <v> [g]`` to an edge from
    the source of the statement, by the same rule as a claim, to the
    source of the IRI ``v``.  The result is invariant under reordering
    of the input edges.
    """
    sbg = SourceBeliefGraph()
    for u, v, g in graph.edges:
        endorser, reason = statement_source(u, g, policy)
        if reason is None:
            try:
                endorsee = extract_source(v, policy)
            except NoAuthorityError:
                reason = "no_source"
            else:
                sbg.add_edge(endorser, endorsee)
                continue
        sbg.drop_counts[reason] += 1
    return sbg


def sbg_to_tsv(sbg: SourceBeliefGraph) -> str:
    """Stable ``from<TAB>to<TAB>multiplicity`` dump, sorted by endpoint."""
    lines = ["from\tto\tmultiplicity"]
    for (a, b) in sorted(sbg.multiplicity):
        lines.append(f"{a}\t{b}\t{sbg.multiplicity[(a, b)]}")
    return "\n".join(lines) + "\n"
