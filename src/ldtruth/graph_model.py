"""Identity graph and its projection onto sources.

Two structures come out of the sameAs statements.  The undirected view
clusters resource IRIs into entities, each named by its smallest IRI.
The directed view keeps each link as an endorsement between the sources
hosting its endpoints, with multiplicity, and that multigraph is what
the reliability prior runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rdf_ingest import NoAuthorityError, OWL_SAMEAS, extract_source


@dataclass
class SameAsGraph:
    vertices: set
    edges: list

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_sameas_graph(statements) -> SameAsGraph:
    """Collect directed identity links whose object is an IRI."""
    vertices = set()
    edges = []
    for st in statements:
        if st.predicate != OWL_SAMEAS or st.object.is_literal:
            continue
        u, v = st.subject, st.object.text
        vertices.add(u)
        vertices.add(v)
        edges.append((u, v))
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

    for u, v in graph.edges:
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
    ``out_degree[a]`` sums every outgoing multiplicity.  Self loops,
    and links with an endpoint that names no source, are dropped before
    anything is counted; each kind keeps its own drop count.
    """

    vertices: set = field(default_factory=set)
    multiplicity: dict = field(default_factory=dict)
    out_degree: dict = field(default_factory=dict)
    self_loops_dropped: int = 0
    no_source_dropped: int = 0

    def add_edge(self, a: str, b: str, count: int = 1):
        if a == b:
            self.self_loops_dropped += count
            return
        self.vertices.add(a)
        self.vertices.add(b)
        key = (a, b)
        self.multiplicity[key] = self.multiplicity.get(key, 0) + count
        self.out_degree[a] = self.out_degree.get(a, 0) + count


def project_to_sbg(graph: SameAsGraph, policy: str = "host") -> SourceBeliefGraph:
    """Map each identity link to an edge between its endpoint sources.

    Links with an endpoint that yields no source are counted in
    ``no_source_dropped``; links staying inside one source become dropped
    self loops.  The result is invariant under reordering of the input edges.
    """
    sbg = SourceBeliefGraph()
    for u, v in graph.edges:
        try:
            su, sv = extract_source(u, policy), extract_source(v, policy)
        except NoAuthorityError:
            sbg.no_source_dropped += 1
            continue
        sbg.add_edge(su, sv)
    return sbg


def sbg_to_tsv(sbg: SourceBeliefGraph) -> str:
    """Stable ``from<TAB>to<TAB>multiplicity`` dump, sorted by endpoint."""
    lines = ["from\tto\tmultiplicity"]
    for (a, b) in sorted(sbg.multiplicity):
        lines.append(f"{a}\t{b}\t{sbg.multiplicity[(a, b)]}")
    return "\n".join(lines) + "\n"
