"""Identity clustering and source endorsement graph tests."""

import random

from oracles import bfs_components
from ldtruth.graph_model import (
    EntityClusterMap,
    SameAsGraph,
    build_sameas_graph,
    project_to_sbg,
    sameas_closure,
)
from ldtruth.rdf_ingest import (FORMAT_NQUADS, POLICY_NAMED_GRAPH,
                                 POLICY_PLD, build_claims, parse_triples)


def identity_corpus():
    return list(parse_triples(
        '<http://a.org/x> <http://www.w3.org/2002/07/owl#sameAs> <http://b.org/x> .\n'
        '<http://b.org/x> <http://www.w3.org/2002/07/owl#sameAs> <http://c.org/x> .\n'
        '<http://a.org/x> <http://www.w3.org/2002/07/owl#sameAs> "not an iri" .\n'
        '<http://a.org/y> <http://other.org/p> <http://b.org/y> .\n'
        '<http://d.org/z> <http://www.w3.org/2002/07/owl#sameAs> <http://d.org/z2> .\n'))


class TestSameAsGraph:
    def test_only_identity_links_with_iri_objects(self):
        graph = build_sameas_graph(identity_corpus())
        assert graph.edge_count == 3
        assert ("http://a.org/x", "http://b.org/x", None) in graph.edges
        assert all("y" not in u and "y" not in v for u, v, _ in graph.edges)

    def test_links_keep_their_graph(self):
        graph = build_sameas_graph(parse_triples(
            '<http://a.org/x> <http://www.w3.org/2002/07/owl#sameAs> '
            '<http://b.org/x> <http://g.org/1> .\n'
            '<http://b.org/x> <http://www.w3.org/2002/07/owl#sameAs> '
            '<http://c.org/x> .\n', FORMAT_NQUADS))
        assert graph.edges == [
            ("http://a.org/x", "http://b.org/x", "http://g.org/1"),
            ("http://b.org/x", "http://c.org/x", None)]


class TestClosure:
    def test_components_and_naming(self):
        clusters = sameas_closure(build_sameas_graph(identity_corpus()))
        assert clusters.cluster("http://b.org/x") == "http://a.org/x"
        assert clusters.cluster("http://c.org/x") == "http://a.org/x"
        assert clusters.cluster("http://d.org/z2") == "http://d.org/z"
        assert clusters.members["http://a.org/x"] == [
            "http://a.org/x", "http://b.org/x", "http://c.org/x"]

    def test_relative_link_target_joins_nothing(self):
        # <foo> names no resource, so it cannot make a.org's x and
        # b.org's y one entity, nor key a.org's claims to "foo"
        diagnostics = []
        statements = list(parse_triples(
            '<http://a.org/x> <http://www.w3.org/2002/07/owl#sameAs> <foo> .\n'
            '<http://b.org/y> <http://www.w3.org/2002/07/owl#sameAs> <foo> .\n'
            '<http://a.org/x> <http://v.org/p> "1" .\n',
            diagnostics=diagnostics))
        assert diagnostics == [(1, "malformed", "relative IRI"),
                               (2, "malformed", "relative IRI")]
        clusters = sameas_closure(build_sameas_graph(statements))
        assert clusters.cluster_of == {}
        assert [claim[0] for claim in build_claims(statements,
                                                   clusters).claims] == \
            ["http://a.org/x"]

    def test_claims_name_entities_by_the_cluster_method(self):
        class Tagged(EntityClusterMap):
            def cluster(self, iri):
                return "entity:" + iri

        statements = parse_triples('<http://a.org/x> <http://v.org/p> "1" .')
        assert build_claims(statements, Tagged({})).claims[0][0] == \
            "entity:http://a.org/x"

    def test_untouched_iri_is_its_own_cluster(self):
        clusters = sameas_closure(build_sameas_graph(identity_corpus()))
        assert clusters.cluster("http://never-seen.org/q") == "http://never-seen.org/q"

    def test_matches_breadth_first_oracle(self):
        rng = random.Random(90125)
        for _ in range(30):
            n = rng.randint(2, 60)
            vertices = [f"http://v{i}.org/r" for i in range(n)]
            edges = [(vertices[rng.randrange(n)], vertices[rng.randrange(n)])
                     for _ in range(rng.randint(1, 2 * n))]
            clusters = sameas_closure(SameAsGraph(
                [(u, v, None) for u, v in edges]))
            linked = {v for edge in edges for v in edge}
            expected = bfs_components(linked, edges)
            got = {frozenset(group) for group in clusters.members.values()}
            assert got == expected
            for group in expected:
                assert clusters.cluster(next(iter(group))) == min(group)
            # an IRI on no link is its own cluster without an entry
            for v in set(vertices) - linked:
                assert clusters.cluster(v) == v
            assert clusters.cluster_of.keys() == linked

    def test_order_invariance(self):
        rng = random.Random(777)
        vertices = [f"http://v{i}.org/r" for i in range(25)]
        edges = [(vertices[rng.randrange(25)], vertices[rng.randrange(25)],
                  None) for _ in range(40)]
        base = sameas_closure(SameAsGraph(list(edges)))
        rng.shuffle(edges)
        shuffled = sameas_closure(SameAsGraph(edges))
        assert base.cluster_of == shuffled.cluster_of


class TestProjection:
    def test_multiplicity_and_degrees(self):
        graph = SameAsGraph([
            ("http://a.org/1", "http://b.org/1", None),
            ("http://a.org/2", "http://b.org/2", None),
            ("http://a.org/3", "http://c.org/1", None),
            ("http://b.org/9", "http://a.org/9", None),
        ])
        sbg = project_to_sbg(graph)
        assert sbg.multiplicity == {("a.org", "b.org"): 2,
                                    ("a.org", "c.org"): 1,
                                    ("b.org", "a.org"): 1}
        # an out-degree is a sum over the multiplicities, not stored apart
        assert sum(count for (a, _), count in sbg.multiplicity.items()
                   if a == "a.org") == 3
        assert sum(sbg.multiplicity.values()) == 4
        assert vars(sbg).keys() == {"multiplicity", "drop_counts"}

    def test_self_loops_dropped(self):
        graph = SameAsGraph([
            ("http://a.org/1", "http://a.org/2", None),
            ("http://a.org/1", "http://b.org/1", None),
        ])
        sbg = project_to_sbg(graph)
        assert sbg.drop_counts == {"self_loop": 1}
        assert sbg.vertices == {"a.org", "b.org"}

    def test_pld_policy_collapses_subdomains(self):
        graph = SameAsGraph([
            ("http://data.example.com/1", "http://www.example.com/1", None),
            ("http://data.example.com/2", "http://other.org/2", None),
        ])
        sbg = project_to_sbg(graph, POLICY_PLD)
        # first link now stays inside one pay-level source
        assert sbg.drop_counts == {"self_loop": 1}
        assert sbg.multiplicity == {("example.com", "other.org"): 1}

    def test_unattributable_endpoint_skipped(self):
        graph = SameAsGraph([
            ("urn:isbn:123", "http://b.org/1", None),
            ("http://a.org/1", "http://b.org/1", None),
            ("http://a.org/2", "urn:isbn:456", None),
            # hostless at both ends, or where urlsplit fails: one drop each
            ("urn:isbn:7", "urn:isbn:8", None),
            ("http://[::1/x", "http://b.org/1", None),
            ("http://a.org/3", "http://[::1/x", None),
            ("http:///x", "http://b.org/1", None),
        ])
        sbg = project_to_sbg(graph)
        assert sum(sbg.multiplicity.values()) == 1
        assert sbg.drop_counts == {"no_source": 6}

    def test_vertices_only_from_retained_edges(self):
        graph = SameAsGraph([
            ("http://a.org/1", "http://a.org/2", None),
        ])
        sbg = project_to_sbg(graph)
        assert sbg.vertices == set()

    def test_graph_policy_endorser_is_the_stating_graph(self):
        # the graph states the link, as it states a claim; the object
        # names no graph of its own, so its host is the endorsee
        graph = SameAsGraph([
            ("http://a.org/1", "http://b.org/1", "http://g.org/x"),
            ("http://a.org/2", "http://g.org/2", "http://g.org/x"),
            ("http://a.org/3", "http://b.org/3", None),
            ("http://a.org/4", "http://b.org/4", "urn:graph:4"),
        ])
        sbg = project_to_sbg(graph, POLICY_NAMED_GRAPH)
        assert sbg.multiplicity == {("g.org", "b.org"): 1}
        assert sbg.drop_counts == {"self_loop": 1, "missing_graph": 1,
                                   "no_source": 1}

    def test_host_policy_ignores_the_graph(self):
        graph = SameAsGraph([
            ("http://a.org/1", "http://b.org/1", "http://g.org/x"),
            ("http://a.org/2", "http://b.org/2", None),
        ])
        sbg = project_to_sbg(graph)
        assert sbg.multiplicity == {("a.org", "b.org"): 2}
