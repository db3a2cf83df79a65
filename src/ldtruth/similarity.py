"""Similarity between normalized values.

Scores are in [0, 1] and only values of the same kind can score above the
cross-kind floor.  The measures are cheap on purpose: they feed the
pairwise coupling of the inference field, so they run once per object
pair per conflict set.
"""

from __future__ import annotations

import math

from .values import KIND_DATE, KIND_NUMBER, KIND_TEXT, NormalizedValue

# keeps the relative distance of two zeros defined
NUMERIC_FLOOR = 1e-12
CROSS_KIND_SIMILARITY = 0.0


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


def sim(a: NormalizedValue, b: NormalizedValue) -> float:
    """Symmetric similarity score for one value pair."""
    if a.kind != b.kind:
        return CROSS_KIND_SIMILARITY
    if a.kind == KIND_NUMBER:
        x = float(a.payload)
        y = float(b.payload)
        if not math.isfinite(abs(x) + abs(y)):
            # beyond the float range, or a sum that leaves it: the ratio is
            # scale-free, so divide both by the larger magnitude while exact
            scale = max(a.payload.copy_abs(), b.payload.copy_abs())
            x = float(a.payload / scale)
            y = float(b.payload / scale)
        ratio = abs(x - y) / (abs(x) + abs(y) + NUMERIC_FLOOR)
        return 1.0 - min(1.0, ratio)
    if a.kind == KIND_DATE:
        matches = 0
        for ca, cb in zip(a.payload, b.payload):
            if ca is None or cb is None or ca == cb:
                matches += 1
        return matches / 3.0
    if a.kind == KIND_TEXT:
        s = a.payload.casefold()
        t = b.payload.casefold()
        longest = max(len(s), len(t))
        if longest == 0:
            return 1.0
        return 1.0 - levenshtein(s, t) / longest
    return 1.0 if a.payload == b.payload else 0.0
