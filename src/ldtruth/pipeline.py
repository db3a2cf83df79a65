"""End-to-end assembly: files to statements to store, graphs and priors."""

from __future__ import annotations

import gzip
import io
from typing import NamedTuple

from .graph_model import build_sameas_graph, project_to_sbg, sameas_closure
from .prior_belief import DEFAULT_PRIOR, PriorConfig, compute_prior
from .rdf_ingest import (FORMAT_NQUADS, FORMAT_NTRIPLES, build_claims,
                         parse_triples)


class Assembled(NamedTuple):
    store: object
    priors: object
    link_drops: dict    # identity links left out of the source graph, by reason


def format_for_path(path: str, fmt: str | None = None) -> str:
    if fmt:
        return fmt
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith((".nq", ".nquads")):
        return FORMAT_NQUADS
    return FORMAT_NTRIPLES


def parse_files(paths, fmt: str | None = None, mode: str = "lenient",
                diagnostics: list | None = None) -> list:
    """Parse several files one after another, in the order given.

    ``diagnostics``, when given, collects ``(path, diagnostic)`` pairs;
    without it a line set aside raises, as in ``parse_triples``.
    """
    statements = []
    for path in paths:
        found = [] if diagnostics is not None else None
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rb") as handle:
            buffered = io.BufferedReader(handle) if not isinstance(
                handle, io.BufferedReader) else handle
            statements.extend(parse_triples(
                buffered, format_for_path(path, fmt), mode, found))
        if found:
            diagnostics.extend((path, d) for d in found)
    return statements


def assemble(statements, policy: str = "host", alignment: dict | None = None,
             prior_cfg: PriorConfig = DEFAULT_PRIOR) -> Assembled:
    """Build every derived structure a resolution run needs."""
    graph = build_sameas_graph(statements)
    clusters = sameas_closure(graph)
    sbg = project_to_sbg(graph, policy)
    priors = compute_prior(sbg, prior_cfg)
    store = build_claims(statements, clusters, alignment, policy)
    return Assembled(store=store, priors=priors, link_drops=sbg.drop_counts)
