"""Conflict resolution for Linked Data claims.

The package splits into ingestion (statements, sources, normalized
values, conflict sets), graph structure (identity clusters, the
endorsement multigraph and its reliability prior), inference (pairwise
fields over candidates, trust iteration), baselines, and a synthetic
evaluation harness.  The ``ldtruth`` command wires it together.
"""

__version__ = "0.1.0"
