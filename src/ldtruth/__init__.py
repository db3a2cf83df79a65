"""Conflict resolution for Linked Data claims.

The package splits into ingestion (statements, sources, normalized
values, conflict sets), graph structure (identity clusters, the
endorsement multigraph and its reliability prior), inference (pairwise
fields over candidates, trust iteration), baselines, and a synthetic
evaluation harness.  The ``ldtruth`` command wires it together.
"""

from .baselines import truthfinder, vote, vote_all
from .eval_harness import (GoldStandard, SynthConfig, SynthResult, accuracy,
                           generate, run_benchmark, run_method)
from .graph_model import (EntityClusterMap, SameAsGraph, SourceBeliefGraph,
                          build_sameas_graph, project_to_sbg, sameas_closure)
from .mrf import BpResult, MarkovField, loopy_bp
from .prior_belief import (EmptyGraphError, PriorBeliefs, PriorConfig,
                           compute_prior, normalize_prior)
from .rdf_ingest import (ClaimStore, ConflictSet, Diagnostic, NormalizedValue,
                         ObjectSupport, RdfStatement, Term, build_claims,
                         extract_source, parse_triples)
from .similarity import sim
from .truth_engine import (Decision, EngineConfig, ResolutionResult,
                           TrustState, object_base_trust,
                           resolve_all, select_truth, smooth_trust,
                           source_trustworthiness)
from .values import normalize_object

__version__ = "0.1.0"
