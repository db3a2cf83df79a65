"""End-to-end assembly: files to statements to store, graphs and priors."""

from __future__ import annotations

import gzip
import zlib
from contextlib import ExitStack
from typing import NamedTuple

from .graph_model import build_sameas_graph, project_to_sbg, sameas_closure
from .prior_belief import DEFAULT_PRIOR, PriorConfig, compute_prior
from .rdf_ingest import (FORMAT_NQUADS, FORMAT_NTRIPLES, MalformedLineError,
                         build_claims, parse_triples)


class Assembled(NamedTuple):
    store: object
    priors: object
    link_drops: dict    # identity links left out of the source graph, by reason


def format_for_path(path: str) -> str:
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith((".nq", ".nquads")):
        return FORMAT_NQUADS
    return FORMAT_NTRIPLES


def parse_files(paths, fmt: str | None = None, mode: str = "lenient",
                diagnostics: list | None = None) -> list:
    """Parse several files in the order given, after opening every one.

    ``diagnostics``, when given, collects ``(path, diagnostic)`` pairs;
    without it a line set aside raises, as in ``parse_triples``.  Errors
    name the file, and a ``.gz`` that does not decompress raises OSError.
    """
    statements = []
    with ExitStack() as stack:
        handles = [stack.enter_context(
            gzip.open(path) if path.endswith(".gz") else open(path, "rb"))
            for path in paths]
        try:
            for path, handle in zip(paths, handles):
                found = [] if diagnostics is not None else None
                statements.extend(parse_triples(
                    handle, fmt or format_for_path(path), mode, found))
                if found:
                    diagnostics.extend((path, d) for d in found)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise OSError(f"{path}: not a readable gzip file: {exc}") from exc
        except MalformedLineError as exc:
            raise type(exc)(exc.line, exc.reason, path) from None
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
