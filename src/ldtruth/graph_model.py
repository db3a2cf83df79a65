"""Identity graph and its projection onto sources.

Two structures come out of the sameAs statements.  The undirected view
clusters resource IRIs into entities.  The directed view keeps each link
as an endorsement between the sources hosting its endpoints, with
multiplicity, and that multigraph is what the reliability prior runs on.
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


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            self.size[x] = 1
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


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
    """Connected components of the undirected identity graph."""
    uf = UnionFind()
    for u, v in graph.edges:
        uf.union(u, v)
    groups = {}
    for v in graph.vertices:
        groups.setdefault(uf.find(v), []).append(v)
    cluster_of = {}
    members = {}
    for group in groups.values():
        name = min(group)
        members[name] = sorted(group)
        for v in group:
            cluster_of[v] = name
    return EntityClusterMap(cluster_of, members)


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
