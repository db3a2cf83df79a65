"""Similarity between normalized values.

Scores are in [0, 1] and only values of the same kind can score above the
cross-kind floor.  The measures are cheap on purpose: they feed the
pairwise coupling of the inference field, so they run once per object
pair per conflict set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .values import KIND_DATE, KIND_NUMBER, KIND_REFERENCE, KIND_TEXT, NormalizedValue


@dataclass(frozen=True)
class SimilarityConfig:
    numeric_floor: float = 1e-12
    cross_kind_similarity: float = 0.0

    def __post_init__(self):
        if self.numeric_floor <= 0:
            raise ValueError("numeric_floor must be positive")
        if not 0.0 <= self.cross_kind_similarity <= 1.0:
            raise ValueError("cross_kind_similarity must be in [0, 1]")


DEFAULT_SIMILARITY = SimilarityConfig()


def levenshtein(a: str, b: str) -> int:
    """Plain edit distance, insertions deletions and substitutions at cost 1."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def sim(a: NormalizedValue, b: NormalizedValue,
        cfg: SimilarityConfig = DEFAULT_SIMILARITY) -> float:
    """Symmetric similarity score for one value pair."""
    if a.kind != b.kind:
        return cfg.cross_kind_similarity
    if a.kind == KIND_NUMBER:
        x = float(a.number)
        y = float(b.number)
        ratio = abs(x - y) / (abs(x) + abs(y) + cfg.numeric_floor)
        return 1.0 - min(1.0, ratio)
    if a.kind == KIND_DATE:
        matches = 0
        for ca, cb in zip(a.date, b.date):
            if ca is None or cb is None or ca == cb:
                matches += 1
        return matches / 3.0
    if a.kind == KIND_TEXT:
        s = a.text.casefold()
        t = b.text.casefold()
        longest = max(len(s), len(t))
        if longest == 0:
            return 1.0
        return 1.0 - levenshtein(s, t) / longest
    return 1.0 if a.reference == b.reference else 0.0
