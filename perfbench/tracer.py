"""Outside-in tracer: per-layer spans and counts without touching `src/`.

The tracer replaces module-level names at the place their caller looks
them up (``truth_engine.loopy_bp``, not ``mrf.loopy_bp``) with wrappers
that time each call and count what it did.  Spans of stage-level calls
are kept in memory and written out by the caller at exit; hot leaf
calls (value normalization, similarity, BP) are only aggregated.  Each
thread keeps its own call stack and shared counts change under a lock,
so calls made from worker threads are counted too.

It fails safe: a name that no longer exists is reported as ``gone``, a
name that was never called leaves its metrics ``missing`` (never 0), and
an observer that no longer understands a result marks only the metrics
built from it as missing.  The untraced benchmark runs never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# what an observer may raise when a traced call changed its signature or
# result type; only the metrics built from that observer go missing
_OBSERVER_ERRORS = (AttributeError, TypeError, KeyError, ValueError,
                    IndexError)


@dataclass(frozen=True)
class Target:
    site: str               # "module.attr" inside ldtruth, where callers look it up
    name: str               # layer-qualified name the metrics use
    span: bool = False      # keep one span per call (stage-level calls only)
    observe: Callable | None = None  # (counts, args, kwargs, result) -> None
    distinct: bool = False  # track distinct argument tuples


class Stat:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}
        self.distinct = set()
        self.broken = None  # first observer error, if any
        self.last = None    # the latest result, kept in memory only

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "counts": self.counts,
                "distinct": len(self.distinct), "broken": self.broken}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _obs_parse(counts, args, kwargs, result):
    counts["statements"] = counts.get("statements", 0) + len(result)
    diagnostics = kwargs.get("diagnostics")
    counts["diagnostics"] = counts.get("diagnostics", 0) + len(diagnostics or ())


def _obs_claims(counts, args, kwargs, result):
    counts["claims"] = len(result.claims)
    counts["conflict_sets"] = len(result.conflict_sets)
    counts["drop"] = dict(result.drop_counts)


def _obs_sameas(counts, args, kwargs, result):
    counts["links"] = result.edge_count


def _obs_closure(counts, args, kwargs, result):
    counts["clusters"] = len(result.members)


def _obs_sbg(counts, args, kwargs, result):
    counts["edges"] = len(result.multiplicity)


def _obs_prior(counts, args, kwargs, result):
    counts["sweeps"] = result.sweeps_used
    counts["converged"] = int(result.converged)


def _obs_resolve(counts, args, kwargs, result):
    counts["sweeps"] = result.iterations
    counts["converged"] = int(result.converged)


def _obs_bp(counts, args, kwargs, result):
    fld = _arg(args, kwargs, 0, "field")
    rounds = result.rounds
    counts["rounds"] = counts.get("rounds", 0) + rounds
    counts["rounds_max"] = max(counts.get("rounds_max", 0), rounds)
    counts["nonconverged"] = counts.get("nonconverged", 0) + (not result.converged)
    counts["message_updates"] = (counts.get("message_updates", 0)
                                 + rounds * 2 * len(fld.edges))
    counts["two_node"] = counts.get("two_node", 0) + (len(fld.unary) == 2)


# Each entry is wrapped where its caller resolves it; the layer name is
# the module that implements it.
RESOLVE_TARGETS = (
    Target("cli.main", "cli.main", span=True),
    Target("cli.parse_files", "pipeline.parse_files", span=True,
           observe=_obs_parse),
    Target("cli.assemble", "pipeline.assemble", span=True),
    Target("pipeline.build_sameas_graph", "graph_model.build_sameas_graph",
           span=True, observe=_obs_sameas),
    Target("pipeline.sameas_closure", "graph_model.sameas_closure",
           span=True, observe=_obs_closure),
    Target("pipeline.project_to_sbg", "graph_model.project_to_sbg",
           span=True, observe=_obs_sbg),
    Target("pipeline.compute_prior", "prior_belief.compute_prior",
           span=True, observe=_obs_prior),
    Target("pipeline.build_claims", "rdf_ingest.build_claims", span=True,
           observe=_obs_claims),
    Target("rdf_ingest.normalize_object", "values.normalize_object",
           distinct=True),
    Target("rdf_ingest.pay_level_domain", "public_suffix.pay_level_domain",
           distinct=True),
    Target("cli.resolve_all", "truth_engine.resolve_all", span=True,
           observe=_obs_resolve),
    Target("truth_engine.pairwise_tables", "truth_engine.pairwise_tables"),
    Target("truth_engine.sim", "similarity.sim"),
    Target("truth_engine.loopy_bp", "mrf.loopy_bp", observe=_obs_bp),
    Target("truth_engine.source_trustworthiness",
           "truth_engine.source_trustworthiness", span=True),
)

SETUP_TARGETS = (
    Target("eval_harness.generate", "eval_harness.generate", span=True),
)


class Tracer:
    """Wraps ``targets`` on ``install`` and restores them on ``uninstall``."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats = {t.name: Stat() for t in self.targets}
        self.gone = []
        self.spans = []
        self._local = threading.local()  # .stack: [span id, child s] per open call
        self._lock = threading.Lock()    # guards stats, spans and span ids
        self._next_id = 1
        self._saved = []
        self._t0 = perf_counter()

    def install(self):
        for target in self.targets:
            module_name, attr = target.site.rsplit(".", 1)
            try:
                module = importlib.import_module(f"ldtruth.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.gone.append(target.name)
                continue
            setattr(module, attr, self._wrap(target, original))
            self._saved.append((module, attr, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, target: Target, fn):
        stat = self.stats[target.name]
        local, lock = self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            with lock:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                with lock:
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[1]
                    if target.span:
                        self.spans.append({
                            "id": span_id,
                            "parent": parent[0] if parent else None,
                            "name": target.name, "start_s": start - self._t0,
                            "end_s": end - self._t0})
            with lock:
                stat.last = result
                if target.distinct:
                    try:
                        stat.distinct.add((args, tuple(sorted(kwargs.items()))))
                    except TypeError as exc:
                        stat.broken = stat.broken or repr(exc)
                if target.observe is not None and stat.broken is None:
                    try:
                        target.observe(stat.counts, args, kwargs, result)
                    except _OBSERVER_ERRORS as exc:
                        stat.broken = repr(exc)
            return result

        return traced

    def report(self) -> dict:
        return {"stats": {name: stat.as_dict()
                          for name, stat in self.stats.items()},
                "gone": list(self.gone), "spans": self.spans}


# ---------------------------------------------------------------------------
# Per-layer metrics.  Each row: name, unit, better, the end-to-end metric
# it should move, the workloads it should move on, and how to read it from
# a tracer report.  A reader raising KeyError makes the metric ``missing``.


class Missing(KeyError):
    """The traced name is gone, never called, or its observer broke."""


def _stat(report, name, need_counts=False):
    entry = report["stats"].get(name)
    if entry is None or name in report["gone"] or not entry["calls"]:
        raise Missing(name)
    if need_counts and entry["broken"]:
        raise Missing(name)
    return entry


def _total(name):
    return lambda r: _stat(r, name)["total_s"]


def _self(name):
    return lambda r: _stat(r, name)["self_s"]


def _calls(name):
    return lambda r: _stat(r, name)["calls"]


def _count(name, key):
    return lambda r: _stat(r, name, need_counts=True)["counts"][key]


def _distinct_share(name):
    def read(r):
        entry = _stat(r, name, need_counts=True)
        return entry["distinct"] / entry["calls"]
    return read


def _drop(category):
    return lambda r: _stat(r, "rdf_ingest.build_claims", True)[
        "counts"]["drop"].get(category, 0)


def _bp_mean(r):
    entry = _stat(r, "mrf.loopy_bp", True)
    return entry["counts"]["rounds"] / entry["calls"]


def _two_node_share(r):
    entry = _stat(r, "mrf.loopy_bp", True)
    return entry["counts"]["two_node"] / entry["calls"]


def _extra(key):
    return lambda r: r["extra"][key]


ALL = ("scale_c8", "loopy_near", "quads_pld_split")
INGEST = ("scale_c8", "quads_pld_split")
DROP_CATEGORIES = ("sameas", "duplicate", "null_object", "no_source",
                   "missing_graph")

LAYER_METRICS = [
    ("eval_harness.generate_s", "s", "lower", "setup_s", ALL,
     _total("eval_harness.generate")),
    ("pipeline.parse_files_s", "s", "lower", "resolve_s", INGEST,
     _total("pipeline.parse_files")),
    ("pipeline.statements", "count", "higher", "resolve_s", INGEST,
     _count("pipeline.parse_files", "statements")),
    ("rdf_ingest.build_claims_s", "s", "lower", "resolve_s, peak_rss_mb",
     INGEST, _total("rdf_ingest.build_claims")),
    ("rdf_ingest.claims", "count", "higher", "resolve_s, peak_rss_mb", INGEST,
     _count("rdf_ingest.build_claims", "claims")),
    ("rdf_ingest.conflict_sets", "count", "higher", "resolve_s, peak_rss_mb",
     INGEST, _count("rdf_ingest.build_claims", "conflict_sets")),
    ("rdf_ingest.diagnostics", "count", "lower", "resolve_s", INGEST,
     _count("pipeline.parse_files", "diagnostics")),
    *[(f"rdf_ingest.drop.{c}", "count", "lower", "resolve_s", INGEST,
       _drop(c)) for c in DROP_CATEGORIES],
    ("values.normalize_calls", "count", "lower", "resolve_s", INGEST,
     _calls("values.normalize_object")),
    ("values.normalize_s", "s", "lower", "resolve_s", INGEST,
     _total("values.normalize_object")),
    ("values.normalize_distinct_share", "ratio", "lower", "resolve_s", INGEST,
     _distinct_share("values.normalize_object")),
    ("public_suffix.pld_calls", "count", "lower", "resolve_s",
     ("quads_pld_split",), _calls("public_suffix.pay_level_domain")),
    ("public_suffix.pld_s", "s", "lower", "resolve_s", ("quads_pld_split",),
     _total("public_suffix.pay_level_domain")),
    ("public_suffix.pld_distinct_share", "ratio", "lower", "resolve_s",
     ("quads_pld_split",), _distinct_share("public_suffix.pay_level_domain")),
    ("graph_model.build_sameas_graph_s", "s", "lower",
     "resolve_s, peak_rss_mb", ("scale_c8",),
     _total("graph_model.build_sameas_graph")),
    ("graph_model.sameas_closure_s", "s", "lower", "resolve_s, peak_rss_mb",
     ("scale_c8",), _total("graph_model.sameas_closure")),
    ("graph_model.project_to_sbg_s", "s", "lower", "resolve_s, peak_rss_mb",
     ("scale_c8",), _total("graph_model.project_to_sbg")),
    ("graph_model.sameas_links", "count", "higher", "resolve_s, peak_rss_mb",
     ("scale_c8",), _count("graph_model.build_sameas_graph", "links")),
    ("graph_model.clusters", "count", "higher", "resolve_s, peak_rss_mb",
     ("scale_c8",), _count("graph_model.sameas_closure", "clusters")),
    ("graph_model.sbg_edges", "count", "higher", "resolve_s, peak_rss_mb",
     ("scale_c8",), _count("graph_model.project_to_sbg", "edges")),
    ("prior_belief.compute_prior_s", "s", "lower", "resolve_s", ALL,
     _total("prior_belief.compute_prior")),
    ("prior_belief.sweeps", "count", "lower", "resolve_s", ALL,
     _count("prior_belief.compute_prior", "sweeps")),
    ("prior_belief.converged", "bool", "higher", "resolve_s", ALL,
     _count("prior_belief.compute_prior", "converged")),
    ("similarity.sim_calls", "count", "lower", "resolve_s", ("loopy_near",),
     _calls("similarity.sim")),
    ("similarity.sim_s", "s", "lower", "resolve_s", ("loopy_near",),
     _total("similarity.sim")),
    ("truth_engine.resolve_all_s", "s", "lower", "resolve_s",
     ("loopy_near", "scale_c8"), _total("truth_engine.resolve_all")),
    ("truth_engine.self_s", "s", "lower", "resolve_s",
     ("loopy_near", "scale_c8"), _self("truth_engine.resolve_all")),
    ("truth_engine.outer_sweeps", "count", "lower", "resolve_s",
     ("loopy_near", "scale_c8"), _count("truth_engine.resolve_all", "sweeps")),
    ("truth_engine.converged", "bool", "higher", "resolve_s",
     ("loopy_near", "scale_c8"),
     _count("truth_engine.resolve_all", "converged")),
    ("truth_engine.source_trustworthiness_s", "s", "lower", "resolve_s",
     ("scale_c8", "loopy_near"),
     _total("truth_engine.source_trustworthiness")),
    ("truth_engine.source_trustworthiness_calls", "count", "lower",
     "resolve_s", ("scale_c8", "loopy_near"),
     _calls("truth_engine.source_trustworthiness")),
    ("truth_engine.pairwise_tables_s", "s", "lower", "resolve_s",
     ("loopy_near", "scale_c8"), _total("truth_engine.pairwise_tables")),
    ("mrf.loopy_bp_calls", "count", "lower", "resolve_s",
     ("scale_c8", "loopy_near"), _calls("mrf.loopy_bp")),
    ("mrf.loopy_bp_s", "s", "lower", "resolve_s", ("scale_c8", "loopy_near"),
     _total("mrf.loopy_bp")),
    ("mrf.bp_rounds_mean", "count", "lower", "resolve_s",
     ("scale_c8", "loopy_near"), _bp_mean),
    ("mrf.bp_rounds_max", "count", "lower", "resolve_s",
     ("scale_c8", "loopy_near"), _count("mrf.loopy_bp", "rounds_max")),
    ("mrf.bp_nonconverged", "count", "lower", "resolve_s",
     ("scale_c8", "loopy_near"), _count("mrf.loopy_bp", "nonconverged")),
    ("mrf.message_updates", "count", "lower", "resolve_s",
     ("scale_c8", "loopy_near"), _count("mrf.loopy_bp", "message_updates")),
    ("mrf.two_node_share", "ratio", "higher", "resolve_s",
     ("scale_c8", "loopy_near"), _two_node_share),
    ("cli.self_s", "s", "lower", "resolve_s", ("loopy_near",),
     _self("cli.main")),
    ("cli.output_bytes", "bytes", "lower", "resolve_s", ("loopy_near",),
     _extra("output_bytes")),
    ("accuracy", "ratio", "higher", "none (reported, not gated)", ALL,
     _extra("accuracy")),
    ("baselines.vote_accuracy", "ratio", "higher",
     "none (reference beside accuracy)", ALL, _extra("vote_accuracy")),
    ("trace.overhead_s", "s", "lower", "none", ALL, _extra("overhead_s")),
]

# Zero calls is the expected reading outside quads_pld_split, so these
# metrics cannot be numbers on every workload and stay out of the
# per-layer list of BENCHMARK.json; the printed report still shows them.
PLD_ONLY = ("public_suffix.pld_calls", "public_suffix.pld_s",
            "public_suffix.pld_distinct_share")


def layer_metrics(report: dict) -> dict:
    """name -> value, or None where the metric is missing."""
    values = {}
    for name, _unit, _better, _moves, _on, read in LAYER_METRICS:
        try:
            values[name] = read(report)
        except KeyError:
            values[name] = None
    return values


def stage_table(report: dict, peak_rss_mb: float) -> list:
    """ROADMAP's "Measured baseline" table, regenerated from a report."""
    rows = [("generate (synth)", "eval_harness.generate"),
            ("parse_files", "pipeline.parse_files"),
            ("build_sameas_graph", "graph_model.build_sameas_graph"),
            ("sameas_closure", "graph_model.sameas_closure"),
            ("project_to_sbg", "graph_model.project_to_sbg"),
            ("compute_prior", "prior_belief.compute_prior"),
            ("build_claims", "rdf_ingest.build_claims"),
            ("resolve_all", "truth_engine.resolve_all")]
    lines = ["| stage | wall |", "|---|---|"]
    for label, name in rows:
        try:
            cell = f"{_stat(report, name)['total_s']:.3f} s"
        except Missing:
            cell = "missing"
        lines.append(f"| `{label}` | {cell} |")
    lines.append(f"| peak RSS (whole process) | {peak_rss_mb:.0f} MB |")
    return lines
