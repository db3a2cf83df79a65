"""Correctness checks shared by every `ldtruth resolve` run of the benchmark.

A run fails when any of these holds:

* its exit code is neither 0 nor 2 (2: the sweep cap was hit and the
  results were still written);
* an output file is missing or ``decisions.jsonl`` does not parse;
* the decision count differs from the conflict-set count, which for the
  synthetic shapes is the size of the generator's answer key (one slot
  per value conflict);
* a slot of the answer key has no decision;
* the SHA-256 of the three output files differs from the first run of
  the same corpus.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

OUTPUT_FILES = ("decisions.jsonl", "trace.csv", "source_trust.tsv")
OK_EXIT_CODES = (0, 2)


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    digest: str | None = None
    accuracy: float | None = None   # share of answer-key slots decided right
    decisions: int = 0
    output_bytes: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def score(chosen: dict, gold: dict) -> tuple:
    """(accuracy, undecided slots) of ``chosen`` against the answer key;
    both map (entity, predicate) to (kind, rendered value)."""
    hits = sum(1 for key, value in gold.items() if chosen.get(key) == value)
    undecided = sum(1 for key in gold if key not in chosen)
    return (hits / len(gold) if gold else 1.0), undecided


def check_outputs(exit_code: int, out_dir: Path, gold: dict,
                  reference_digest: str | None = None) -> Outcome:
    outcome = Outcome()
    if exit_code not in OK_EXIT_CODES:
        outcome.failures.append(f"exit code {exit_code}")
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        outcome.failures.append(f"missing outputs: {', '.join(missing)}")
        return outcome
    outcome.output_bytes = sum((out_dir / name).stat().st_size
                               for name in OUTPUT_FILES)
    chosen = {}
    try:
        with open(out_dir / "decisions.jsonl", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                chosen[(record["entity"], record["predicate"])] = (
                    record["chosen"]["kind"], record["chosen"]["value"])
                outcome.decisions += 1
    except (ValueError, KeyError, TypeError) as exc:
        outcome.failures.append(f"unreadable decisions.jsonl: {exc!r}")
        return outcome
    if outcome.decisions != len(gold):
        outcome.failures.append(
            f"{outcome.decisions} decisions for {len(gold)} conflict sets")
    outcome.accuracy, undecided = score(chosen, gold)
    if undecided:
        outcome.failures.append(f"{undecided} answer-key slots undecided")
    outcome.digest = output_digest(out_dir)
    if reference_digest is not None and outcome.digest != reference_digest:
        outcome.failures.append("outputs differ from the first run")
    return outcome
