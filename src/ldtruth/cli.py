"""Command line front end.

Subcommands: resolve conflicting claims from triple files, score the
source prior on its own, generate synthetic corpora, run method
comparisons, and run a single baseline.  Settings resolve in strict
precedence: command line flag, then config file entry, then built-in
default.  ``main`` reads the settings: it builds and checks the config of
every settings section a command lists before any input is read.  The
command computes, and returns its exit status and its output files;
``main`` writes every output, atomically via rename, and is the only code
that writes one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import reduce
from operator import add

from .baselines import (METHOD_ENGINE, METHOD_TRUTHFINDER, METHOD_VOTE,
                        run_method)
from .graph_model import build_sameas_graph, project_to_sbg
from .pipeline import assemble, parse_files
from .prior_belief import DEFAULT_PRIOR, PriorConfig, compute_prior
from .rdf_ingest import FORMATS, POLICIES, load_alignment
from .truth_engine import EngineConfig, resolve_all

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_NONCONVERGED = 2


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _table(header, rows, sep: str = "\t") -> str:
    """Header, then a line per row; str(float) is its round-trip repr."""
    return "".join(sep.join(map(str, row)) + "\n" for row in (header, *rows))


# (INI section, INI key, flag or None, type); a flag's dest is its INI key.
# Every prior, engine and synth row names a field of its config object.
SETTINGS = (
    ("run", "policy", "--policy", str),
    ("run", "threads", "--threads", int),
    ("prior", "damping", "--damping", float),
    ("prior", "tolerance", None, float),
    ("prior", "max_sweeps", None, int),
    ("engine", "t0", "--t0", float),
    ("engine", "outer_max", "--outer-max", int),
    ("engine", "outer_threshold", "--outer-threshold", float),
    ("engine", "bp_damping", "--bp-damping", float),
    ("engine", "coupling", "--coupling", float),
    ("engine", "edge_threshold", "--edge-threshold", float),
    ("engine", "bp_tol", None, float),
    ("engine", "bp_max", None, int),
    ("engine", "dissimilar_false_factor", None, float),
    ("synth", "n_sources", "--sources", int),
    ("synth", "n_entities", "--entities", int),
    ("synth", "n_conflict_predicates", "--conflicts", int),
    ("synth", "values_per_conflict", "--values", int),
    ("synth", "attachment_m", "--attachment", int),
    ("synth", "sameas_fidelity", "--fidelity", float),
    ("synth", "reliability_low", "--rel-low", float),
    ("synth", "reliability_high", "--rel-high", float),
    ("synth", "claims_min", "--claims-min", int),
    ("synth", "claims_max", "--claims-max", int),
    ("synth", "support_skew", "--support-skew", float),
    ("synth", "seed", "--seed", int),
)

_FLAG_EXTRAS = {
    "policy": {"choices": sorted(POLICIES),
               "help": "source granularity (default host)"},
    "threads": {"help": "accepted for compatibility; files are parsed "
                        "in input order on one thread"},
    "damping": {"help": "prior damping factor"},
}


def _synth_config(**given):
    # the harness loads only for the commands that generate corpora
    from .eval_harness import SynthConfig
    return SynthConfig(**given)


# what each section builds; "run" settings stay a plain dict
_CONFIGS = {"run": dict, "prior": PriorConfig, "engine": EngineConfig,
            "synth": _synth_config}


def _load_config(path: str | None) -> dict:
    """Read an INI settings file; unknown sections and keys are errors."""
    if not path:
        return {}
    import configparser
    # an empty default section name turns off the [DEFAULT] fallback, so a
    # [DEFAULT] header is checked like any other section; with no
    # interpolation every value is read as written, % signs included
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
        filecfg = {section: dict(parser.items(section))
                   for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # one line, where configparser spreads a parsing error over several
        text = " ".join(line.strip() for line in str(exc).splitlines())
        raise ValueError(f"{path}: {text}") from exc
    keys = {row[:2] for row in SETTINGS}
    for section, entries in filecfg.items():
        if section not in _CONFIGS:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key in entries:
            if (section, key) not in keys:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
    return filecfg


def _config(args, filecfg: dict, section: str):
    """Build the config of ``section``: each setting comes from its flag,
    else the file, else the config object's own default."""
    entries = filecfg.get(section, {})
    given = {}
    for row_section, key, _, cast in SETTINGS:
        if row_section != section:
            continue
        value = getattr(args, key, None)
        if value is None and key in entries:
            try:
                value = cast(entries[key])
            except ValueError:
                raise ValueError(f"{args.config}: [{section}] {key}: not a "
                                 f"valid {cast.__name__}: {entries[key]!r}"
                                 ) from None
        if value is not None:
            given[key] = value
    try:
        return _CONFIGS[section](**given)
    except ValueError as exc:
        try:    # a check the flags fail on their own keeps its bare message
            _CONFIGS[section](**{key: value for key, value in given.items()
                                 if getattr(args, key, None) is not None})
        except ValueError as own:
            if str(own) == str(exc):
                raise
        raise ValueError(f"{args.config}: [{section}] {exc}") from None


def _value_json(value) -> dict:
    return {"kind": value.kind, "value": value.render()}


def _decisions_jsonl(decisions, store, method: str, iterations=None,
                     converged=None) -> str:
    lines = []
    for d in decisions:
        cs = store.conflict_sets[(d.entity, d.predicate)]
        objects = []
        for obj, score in zip(cs.objects, d.scores):
            entry = {"sources": list(obj.sources), **_value_json(obj.value)}
            # only the engine's scores are truth probabilities
            if method == METHOD_ENGINE:
                entry["tau"] = score
            objects.append(entry)
        record = {"entity": d.entity, "predicate": d.predicate,
                  "chosen": _value_json(d.chosen), "objects": objects,
                  "method": method}
        if iterations is not None:
            record["iterations"] = iterations
        if converged is not None:
            record["converged"] = converged
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _ingest(args, run: dict):
    policy = run.get("policy", "host")
    if policy not in POLICIES:  # a file value: --policy has choices
        raise ValueError(f"{args.config}: [run] policy: {policy!r} is not "
                         f"one of {', '.join(sorted(POLICIES))}")
    if run.get("threads", 1) < 1:
        where = "--threads" if args.threads is not None \
            else f"{args.config}: [run] threads"
        raise ValueError(f"{where} must be at least 1")
    mode = "strict" if args.strict else "lenient"
    diagnostics = []
    statements = parse_files(args.input, fmt=args.format, mode=mode,
                             diagnostics=diagnostics)
    for path, diag in diagnostics:
        print(f"WARN {path}:{diag.line} {diag.reason}", file=sys.stderr)
    return statements, policy


def _assemble(args, run: dict, prior_cfg: PriorConfig = DEFAULT_PRIOR):
    """Parse and assemble the input; returns (assembled, statement count).
    The statements are freed on return: nothing downstream needs them."""
    alignment = load_alignment(args.alignment) if args.alignment else None
    statements, policy = _ingest(args, run)
    built = assemble(statements, policy=policy, alignment=alignment,
                     prior_cfg=prior_cfg)
    _warn_dropped(built.store.drop_counts, "statements")
    _warn_dropped(built.link_drops, "identity links")
    return built, len(statements)


def _warn_dropped(counts: dict, what: str):
    """Report the drops that lose data; identity links, self loops,
    duplicates and null objects are expected."""
    for reason in ("no_source", "missing_graph", "literal_sameas"):
        if counts.get(reason):
            print(f"WARN dropped {counts[reason]} {what}: {reason}",
                  file=sys.stderr)


def cmd_resolve(args, run, prior, engine) -> tuple:
    built, n_statements = _assemble(args, run, prior)
    store, priors = built.store, built.priors
    if priors.nbr and store.incidence.keys().isdisjoint(priors.nbr):
        print("WARN no claim source has an endorsement prior", file=sys.stderr)
    result = resolve_all(store, priors, engine)
    t, smoothed, nbr = result.trust.t, result.trust.t_smoothed, priors.nbr
    print(f"statements={n_statements} claims={len(store.claims)} "
          f"conflict_sets={len(store.conflict_sets)} "
          f"iterations={result.iterations} converged={result.converged} "
          f"bp_converged={result.bp_converged} bp_rounds={result.bp_rounds} "
          f"prior_sweeps={priors.sweeps_used} "
          f"prior_converged={priors.converged}",
          file=sys.stderr)
    converged = result.converged and result.bp_converged and priors.converged
    return (EXIT_OK if converged else EXIT_NONCONVERGED), {
        "decisions.jsonl": _decisions_jsonl(
            result.decisions, store, METHOD_ENGINE, result.iterations,
            result.converged),
        "trace.csv": _table(("iteration", "mean_delta_tau", "max_delta_tau"),
                            result.trace, sep=","),
        "source_trust.tsv": _table(("source", "t", "t_smoothed", "nbr"), (
            (s, t[s], smoothed[s], nbr.get(s, 0.5)) for s in sorted(t)))}


def cmd_prior(args, run, prior) -> tuple:
    statements, policy = _ingest(args, run)
    sbg = project_to_sbg(build_sameas_graph(statements), policy)
    priors = compute_prior(sbg, prior)
    _warn_dropped(sbg.drop_counts, "identity links")
    if not sbg.multiplicity:
        raise ValueError("no usable identity links, source graph is empty")
    br, nbr = priors.br, priors.nbr
    files = {"prior.tsv": _table(("source", "br", "nbr"), (
        (s, br[s], nbr[s]) for s in sorted(br, key=lambda x: (-br[x], x))))}
    if args.sbg_out:
        files[os.path.abspath(args.sbg_out)] = _table(
            ("from", "to", "multiplicity"),
            ((a, b, n) for (a, b), n in sorted(sbg.multiplicity.items())))
    print(f"sources={len(br)} sweeps={priors.sweeps_used} "
          f"converged={priors.converged}", file=sys.stderr)
    return (EXIT_OK if priors.converged else EXIT_NONCONVERGED), files


def cmd_synth(args, synth) -> tuple:
    from dataclasses import asdict
    from .eval_harness import generate
    result = generate(synth)
    # every generator setting, so that the corpus can be drawn again
    manifest = {**asdict(synth),
                "reliability_range": [synth.reliability_low,
                                      synth.reliability_high],
                "claims_range": synth.claims_range,
                "gold_slots": len(result.gold.truths),
                "unanimous_slots": result.unanimous_slots}
    print(f"gold_slots={len(result.gold.truths)} "
          f"unanimous={result.unanimous_slots}", file=sys.stderr)
    return EXIT_OK, {
        "corpus.nt": result.triples, "gold.tsv": result.gold.to_tsv(),
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n"}


def cmd_eval(args, synth, prior, engine) -> tuple:
    from .eval_harness import run_benchmark
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
            else list(range(synth.seed, synth.seed + args.runs))
    except ValueError:
        raise ValueError(f"--seeds: not integers: {args.seeds!r}") from None
    methods = args.methods.split(",")
    rows = run_benchmark(synth, seeds, methods, engine, prior_cfg=prior)
    report = {"seeds": seeds, "methods": methods, "rows": []}
    for row in rows:
        flat = {"seed": row["seed"], "conflict_sets": row["conflict_sets"]}
        for method in methods:
            entry = row["report"][method]
            flat[method] = {"accuracy": entry["accuracy"],
                            "seconds": round(entry["seconds"], 3)}
        report["rows"].append(flat)
    for method in methods:
        accs = [row["report"][method]["accuracy"] for row in rows]
        # a left fold, the same bits on every Python (see select_truth)
        report[f"mean_{method}"] = reduce(add, accs) / len(accs)

    header = "seed  " + "".join(f"{m:>14}" for m in methods)
    print(header)
    for row in rows:
        cells = "".join(f"{row['report'][m]['accuracy']:>14.4f}"
                        for m in methods)
        print(f"{row['seed']:<6}{cells}")
    means = "".join(f"{report[f'mean_{m}']:>14.4f}" for m in methods)
    print(f"{'mean':<6}{means}")
    return EXIT_OK, {
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n"}


def cmd_baseline(args, run) -> tuple:
    built = _assemble(args, run)[0]
    store = built.store
    decisions, iterations, converged, _ = run_method(args.method, store,
                                                     built.priors)
    print(f"conflict_sets={len(store.conflict_sets)}", file=sys.stderr)
    return (EXIT_NONCONVERGED if converged is False else EXIT_OK), {
        "decisions.jsonl": _decisions_jsonl(decisions, store, args.method,
                                            iterations, converged)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldtruth",
        description="Resolve conflicting Linked Data claims")
    sub = parser.add_subparsers(dest="command", required=True)
    # name, handler, help, default --out, settings sections; a handler
    # takes the flags and, by section name, each section's config; the
    # commands with a "run" section are those that read triple files
    commands = (
        ("resolve", cmd_resolve, "run full conflict resolution", "out",
         ("run", "prior", "engine")),
        ("prior", cmd_prior, "score sources from identity links only", "out",
         ("run", "prior")),
        ("synth", cmd_synth, "generate a synthetic corpus", "synth",
         ("synth",)),
        ("eval", cmd_eval, "benchmark methods on synthetic corpora", "eval",
         ("synth", "prior", "engine")),
        ("baseline", cmd_baseline, "run a single baseline method", "out",
         ("run",)),
    )
    subs = {}
    for name, func, text, out, sections in commands:
        p = subs[name] = sub.add_parser(name, help=text)
        p.set_defaults(func=func, sections=sections)
        if "run" in sections:
            p.add_argument("--input", nargs="+", required=True,
                           help="triple files (.nt/.nq, optionally .gz)")
            p.add_argument("--format", choices=FORMATS)
            p.add_argument("--strict", action="store_true",
                           help="abort on the first malformed line")
        for section, key, flag, cast in SETTINGS:
            if flag and section in sections:
                p.add_argument(flag, dest=key, type=cast,
                               **_FLAG_EXTRAS.get(key, {}))
        p.add_argument("--out", default=out)
        p.add_argument("--config")

    for name in ("resolve", "baseline"):
        subs[name].add_argument(
            "--alignment", help="TSV mapping predicate IRIs to canonical ids")
    p = subs["prior"]
    p.add_argument("--sbg-out", dest="sbg_out",
                   help="also dump the endorsement multigraph as TSV")
    p = subs["eval"]
    p.add_argument("--runs", type=int, default=1,
                   help="number of consecutive seeds starting at --seed")
    p.add_argument("--seeds", help="explicit comma-separated seed list")
    p.add_argument("--methods", default=f"{METHOD_ENGINE},{METHOD_VOTE}")
    subs["baseline"].add_argument(
        "--method", choices=[METHOD_VOTE, METHOD_TRUTHFINDER],
        default=METHOD_VOTE)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # after argparse's usage or --help text
        return EXIT_FATAL if exc.code else EXIT_OK
    # bulk construction makes millions of long-lived objects and next to
    # no reference cycles, so the cyclic collector's passes are pure cost
    collecting = gc.isenabled()
    gc.disable()
    try:
        filecfg = _load_config(args.config)
        configs = {s: _config(args, filecfg, s) for s in args.sections}
        code, files = args.func(args, **configs)
        # a key is a path under --out; an absolute key stands on its own
        for name, text in files.items():
            _atomic_write(os.path.join(args.out, name), text)
        return code
    except (ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
