"""Identity graph and its projection onto sources.

Two structures come out of the sameAs statements.  The undirected view
clusters resource IRIs into entities, each named by its smallest IRI.
The directed view keeps each link as an endorsement, with multiplicity,
from the source that states it to the source of its object, and
that multigraph is what the reliability prior runs on.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .rdf_ingest import extract_source, is_identity_link, statement_source


class SameAsGraph(NamedTuple):
    edges: list     # (subject, object, graph or None) per identity link

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_sameas_graph(statements) -> SameAsGraph:
    """Collect directed identity links whose object is an IRI."""
    return SameAsGraph([(st.subject, st.object, st.graph)
                        for st in statements if is_identity_link(st)])


class EntityClusterMap(NamedTuple):
    """Total map from IRIs to entity ids.

    An IRI never touched by an identity link is its own singleton
    cluster; a linked component is named by its smallest member IRI so
    the id does not depend on statement order.
    """

    cluster_of: dict

    def cluster(self, iri: str) -> str:
        return self.cluster_of.get(iri, iri)

    @property
    def members(self) -> dict:
        """Each linked component's IRIs, sorted, by root; grouped when read."""
        members = {}
        for iri in sorted(self.cluster_of):
            members.setdefault(self.cluster_of[iri], []).append(iri)
        return members


def sameas_closure(graph: SameAsGraph) -> EntityClusterMap:
    """Connected components of the undirected identity graph.  Each union
    hangs the larger root under the smaller, so a root is the smallest
    IRI of its component."""
    parent = {}
    for u, v, _ in graph.edges:
        parent[u] = u
        parent[v] = v

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # path halving
        return x

    for u, v, _ in graph.edges:
        root_u, root_v = find(u), find(v)
        low, high = (root_u, root_v) if root_u < root_v else (root_v, root_u)
        parent[high] = low
    # point every vertex at its root: the parent dict is the cluster map
    for v in parent:
        parent[v] = find(v)
    return EntityClusterMap(parent)


class SourceBeliefGraph:
    """Directed endorsement multigraph over sources, empty when made.

    ``multiplicity[(a, b)]`` counts parallel links from a to b; a
    source's out-degree is the sum of its outgoing multiplicities.
    Links left out are counted in ``drop_counts`` by reason:
    ``self_loop``, ``no_source`` or ``missing_graph``.
    """

    def __init__(self):
        self.multiplicity = Counter()
        self.drop_counts = Counter()

    @property
    def vertices(self) -> set:
        return {v for edge in self.multiplicity for v in edge}

    def add_edge(self, a: str, b: str):
        if a == b:
            self.drop_counts["self_loop"] += 1
        else:
            self.multiplicity[(a, b)] += 1


def project_to_sbg(graph: SameAsGraph, policy: str = "host") -> SourceBeliefGraph:
    """Map each identity link ``<u> owl:sameAs <v> [g]`` to an edge from
    the source of the statement, by the same rule as a claim, to the
    source of the IRI ``v``.  The result is invariant under reordering
    of the input edges.
    """
    sbg = SourceBeliefGraph()
    for u, v, g in graph.edges:
        endorser, reason = statement_source(u, g, policy)
        endorsee = None if reason else extract_source(v, policy)
        if endorsee:
            sbg.add_edge(endorser, endorsee)
        else:
            sbg.drop_counts[reason or "no_source"] += 1
    return sbg
