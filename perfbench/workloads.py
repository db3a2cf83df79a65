"""The benchmark's workloads: seeded synthetic corpora with answer keys.

Each workload is one of the three cost centres of the pipeline, scaled
down from its full shape so that a run fits the benchmark's time budget
while keeping the shape's layer shares.  A run resolves several corpora
drawn from one seed, because the number of outer sweeps a corpus needs
(12 to the cap of 20 on the criterion-8 shape) depends on the draw, and
one corpus per run would turn that into run-to-run spread.
"""

from __future__ import annotations

import gzip
import hashlib
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ldtruth import eval_harness

# corpus j of a run with seed n is drawn with seed n + j * SUBSEED_STRIDE,
# so corpus 0 is the corpus the seed names on its own
SUBSEED_STRIDE = 100_000
CORPORA_PER_RUN = 6
QUAD_FILES = 4

_SYNTH_HOST = re.compile(r"src(\d{3})\.example\.org")


def _count(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _scale_c8(seed: int, scale: float):
    return eval_harness.SynthConfig(
        n_sources=300, n_entities=_count(130_000, scale),
        n_conflict_predicates=_count(7_500, scale), seed=seed)


def _loopy_near(seed: int, scale: float):
    return replace(eval_harness.no_dominant_config(seed),
                   n_entities=_count(2_000, scale),
                   n_conflict_predicates=_count(8_000, scale),
                   near_truth_rate=0.3)


def _quads_pld_split(seed: int, scale: float):
    return eval_harness.SynthConfig(
        n_sources=300, n_entities=_count(100_000, scale),
        n_conflict_predicates=_count(1_500, scale), seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable        # (seed, scale) -> SynthConfig at that share of the full shape
    scale: float            # share of the full shape a benchmark run uses
    quads: bool = False     # split into gzip N-Quads files with pld-style hosts
    flags: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        "scale_c8",
        "criterion-8 shape, one N-Triples file: ingest and sameAs grouping "
        "take about 60 % of the run, 80 % of BP fields are two-node",
        _scale_c8, scale=1 / 20),
    Workload(
        "loopy_near",
        "4-5 candidates with near-truth decoys: inference takes about 80 % "
        "of the run on loopy cliques, so BP and similarity dominate",
        _loopy_near, scale=1 / 10),
    Workload(
        "quads_pld_split",
        "four gzip N-Quads files under --policy pld --threads 2: the other "
        "ingest path, public-suffix attribution and the parse thread pool",
        _quads_pld_split, scale=1 / 16, quads=True,
        flags=("--policy", "pld", "--threads", "2")),
)}


@dataclass
class Corpus:
    """One generated input: its files, answer key and size."""

    seed: int
    inputs: list            # absolute paths handed to --input
    gold: dict              # (entity, predicate) -> (kind, rendered value)
    statements: int
    input_bytes: int
    digest: str             # SHA-256 of the statements as written


def _pld_host(match) -> str:
    return f"data.src{match.group(1)}.co.uk"


def _as_quads(triples: str) -> list:
    """Rewrite hosts to registrable .co.uk names and append each line's
    graph, the graph of its subject's source."""
    quads = []
    for line in _SYNTH_HOST.sub(_pld_host, triples).splitlines():
        host = line[len("<http://"):line.index("/", len("<http://"))]
        quads.append(f"{line[:-2]} <http://{host}/graph> .\n")
    return quads


def _write_gzip(path: Path, lines: list):
    # fixed mtime keeps the bytes a pure function of the seed
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=6,
                          mtime=0) as handle:
        handle.write("".join(lines).encode("utf-8"))


def prepare(workload: Workload, seed: int, scale: float, directory: Path,
            j: int) -> Corpus:
    """Generate and write corpus ``j`` of a run with ``seed``; this is one
    timed set-up."""
    corpus_seed = seed + j * SUBSEED_STRIDE
    synth = eval_harness.generate(workload.config(corpus_seed, scale))
    folder = directory / f"corpus{j}"
    folder.mkdir(parents=True, exist_ok=True)
    gold = {key: (value.kind, value.render())
            for key, value in synth.gold.truths.items()}
    gold_tsv = synth.gold.to_tsv()
    if workload.quads:
        lines = _as_quads(synth.triples)
        text = "".join(lines)
        step = -(-len(lines) // QUAD_FILES)
        inputs = []
        for part in range(QUAD_FILES):
            path = folder / f"part{part}.nq.gz"
            _write_gzip(path, lines[part * step:(part + 1) * step])
            inputs.append(path)
        gold = {(_SYNTH_HOST.sub(_pld_host, entity), predicate): value
                for (entity, predicate), value in gold.items()}
        gold_tsv = _SYNTH_HOST.sub(_pld_host, gold_tsv)
    else:
        text = synth.triples
        path = folder / "corpus.nt"
        path.write_text(text, encoding="utf-8")
        inputs = [path]
    (folder / "gold.tsv").write_text(gold_tsv, encoding="utf-8")
    return Corpus(
        seed=corpus_seed, inputs=[str(p) for p in inputs], gold=gold,
        statements=text.count("\n"),
        input_bytes=sum(p.stat().st_size for p in inputs),
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest())
