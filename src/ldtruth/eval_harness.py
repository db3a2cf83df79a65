"""Synthetic corpora with known answers, and scoring against them.

The generator writes a plain N-Triples corpus: per-source resource IRIs,
identity links across sources that mention the same entity, and claims
whose correctness is governed by a per-source reliability drawn once.
Claim volume is spread by a rich-get-richer activity profile, so a few
sources speak everywhere and most speak rarely, and identity links
preferentially point at more reliable sources.  Everything is driven by
one seeded generator, making output bytes a pure function of the config.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate

from .baselines import (METHOD_ENGINE, METHOD_TRUTHFINDER, METHOD_VOTE,
                        truthfinder, vote_all)
from .pipeline import assemble
from .prior_belief import DEFAULT_PRIOR, PriorConfig
from .rdf_ingest import FORMAT_NTRIPLES, OWL_SAMEAS, parse_triples
from .truth_engine import DEFAULT_ENGINE, EngineConfig, resolve_all
from .values import NormalizedValue

_KINDS = ("number", "date", "text")
_XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


class SynthConfigError(ValueError):
    """The requested corpus shape cannot exist."""


class MissingDecisionError(KeyError):
    """A gold slot was never decided."""


@dataclass(frozen=True)
class SynthConfig:
    n_sources: int = 50
    n_entities: int = 500
    n_conflict_predicates: int = 2000
    attachment_m: int = 2
    reliability_low: float = 0.3
    reliability_high: float = 0.95
    values_per_conflict: int = 3
    sameas_fidelity: float = 0.8
    seed: int = 0
    claims_min: int = 2
    claims_max: int = 4
    # skew 2 keeps a heavy activity tail without leaving conflict sets
    # whose every supporter is a single-claim source; those form closed
    # trust loops that drag the alternating estimation below its usual
    # contraction rate
    support_skew: float = 2.0
    decoy_concentration: float = 1.0
    near_truth_rate: float = 0.0

    def __post_init__(self):
        if min(self.n_sources, self.n_entities,
               self.n_conflict_predicates, self.attachment_m) < 1:
            raise SynthConfigError("all counts must be at least 1")
        if not 0.0 <= self.reliability_low <= self.reliability_high <= 1.0:
            raise SynthConfigError("reliability_low and reliability_high "
                                   "must be ordered within [0, 1]")
        if self.values_per_conflict < 2:
            raise SynthConfigError("values_per_conflict must be at least 2")
        if self.values_per_conflict > self.n_sources:
            raise SynthConfigError(
                "more distinct values per conflict than sources to assert them")
        if not 0.0 <= self.sameas_fidelity <= 1.0:
            raise SynthConfigError("sameas_fidelity must be in [0, 1]")
        if not 2 <= self.claims_min <= self.claims_max:
            raise SynthConfigError(
                "claims_min and claims_max must be ordered, minimum 2")
        # written so that NaN fails the check
        if not self.support_skew >= 0:
            raise SynthConfigError("support_skew must be non-negative")
        if not self.decoy_concentration >= 0:
            raise SynthConfigError("decoy_concentration must be non-negative")
        if not 0.0 <= self.near_truth_rate <= 1.0:
            raise SynthConfigError("near_truth_rate must be in [0, 1]")


@dataclass
class GoldStandard:
    truths: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = ["entity\tpredicate\tkind\tvalue"]
        for (entity, predicate) in sorted(self.truths):
            value = self.truths[(entity, predicate)]
            lines.append(f"{entity}\t{predicate}\t{value.kind}\t{value.render()}")
        return "\n".join(lines) + "\n"


@dataclass
class SynthResult:
    triples: str
    gold: GoldStandard
    reliabilities: dict
    claim_counts: dict
    unanimous_slots: int


def _source_host(i: int) -> str:
    return f"src{i:03d}.example.org"


def _entity_iri(host: str, entity_idx: int) -> str:
    return f"http://{host}/resource/e{entity_idx:06d}"


def _weighted_distinct(rng, population, cum_weights, k: int) -> list:
    chosen = []
    taken = set()
    guard = 0
    while len(chosen) < k:
        pick = rng.choices(population, cum_weights=cum_weights)[0]
        guard += 1
        if pick not in taken:
            taken.add(pick)
            chosen.append(pick)
        elif guard > 50 * k:
            for candidate in population:
                if candidate not in taken:
                    taken.add(candidate)
                    chosen.append(candidate)
                    break
    return chosen


def _gold_value(rng, kind: str):
    if kind == "number":
        magnitude = round(rng.uniform(1.0, 1000.0), 4)
        return NormalizedValue.from_number(repr(magnitude))
    if kind == "date":
        year = rng.randint(1800, 2020)
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        return NormalizedValue.from_date(year, month, day)
    letters = string.ascii_lowercase
    word = "".join(rng.choice(letters) for _ in range(rng.randint(6, 10)))
    return NormalizedValue.from_text(word)


def _decoy_value(rng, kind: str, gold: NormalizedValue, slot: int):
    if kind == "number":
        base = float(gold.payload)
        sign = -1.0 if slot % 2 else 1.0
        frac = rng.uniform(0.3, 0.9) * (1 + slot)
        if sign < 0:
            # keep the sign of the gold value; shrink instead of negate
            scale = 1.0 / (1.0 + frac)
        else:
            scale = 1.0 + frac
        return NormalizedValue.from_number(repr(round(base * scale, 4)))
    if kind == "date":
        year, month, day = gold.payload
        mode = rng.choice(("day", "month", "year", "day_month", "month_year"))
        if mode in ("day", "day_month"):
            day = 1 + (day - 1 + rng.randint(1, 20) + slot) % 28
        if mode in ("month", "day_month", "month_year"):
            month = 1 + (month - 1 + rng.randint(1, 10) + slot) % 12
        if mode in ("year", "month_year"):
            year = year + rng.choice((-9, -7, -4, -2, 2, 4, 7, 9)) - slot
        return NormalizedValue.from_date(year, month, day)
    chars = list(gold.payload)
    letters = string.ascii_lowercase
    for _ in range(2 + slot % 3):
        pos = rng.randrange(len(chars))
        chars[pos] = rng.choice(letters)
    if rng.random() < 0.5:
        chars.insert(rng.randrange(len(chars) + 1), rng.choice(letters))
    return NormalizedValue.from_text("".join(chars))


def _near_decoy(rng, kind: str, gold: NormalizedValue):
    """A wrong value that sits close to the truth: slightly off numbers,
    one nudged date component, a single typo."""
    if kind == "number":
        base = float(gold.payload)
        scale = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.06)
        return NormalizedValue.from_number(repr(round(base * scale, 4)))
    if kind == "date":
        year, month, day = gold.payload
        component = rng.random()
        if component < 0.6:
            day = 1 + (day - 1 + rng.choice((1, 2, 26, 27))) % 28
        elif component < 0.85:
            month = 1 + (month - 1 + rng.choice((1, 11))) % 12
        else:
            year = year + rng.choice((-1, 1))
        return NormalizedValue.from_date(year, month, day)
    chars = list(gold.payload)
    chars[rng.randrange(len(chars))] = rng.choice(string.ascii_lowercase)
    return NormalizedValue.from_text("".join(chars))


def _distinct_decoys(rng, kind, gold, count):
    decoys = []
    seen = {gold}
    slot = 0
    while len(decoys) < count:
        candidate = _decoy_value(rng, kind, gold, slot)
        slot += 1
        if candidate not in seen:
            seen.add(candidate)
            decoys.append(candidate)
        if slot > 60 * (count + 1):
            raise SynthConfigError("could not draw distinct decoy values")
    return decoys


def _literal_for(rng, value: NormalizedValue) -> str:
    if value.kind == "number":
        return f'"{value.render()}"^^<{_XSD_DECIMAL}>'
    if value.kind == "date":
        year, month, day = value.payload
        form = rng.randrange(3)
        if form == 0:
            return f'"{value.render()}"'
        if form == 1:
            return f'"{month}/{day}/{year}"'
        month_name = ("January", "February", "March", "April", "May", "June",
                      "July", "August", "September", "October", "November",
                      "December")[month - 1]
        return f'"{day} {month_name} {year}"'
    return f'"{value.render()}"'


def generate(cfg: SynthConfig) -> SynthResult:
    """Build one corpus plus its answer key.

    A conflict slot is redrawn a bounded number of times until the true
    value is asserted at least once alongside a disagreement; slots where
    that never happens (certain at reliability 1.0) are emitted as
    unanimous claims and left out of the answer key, since nothing about
    them is in dispute.
    """
    rng = random.Random(cfg.seed)
    n = cfg.n_sources
    hosts = [_source_host(i) for i in range(n)]
    low, high = cfg.reliability_low, cfg.reliability_high
    reliability = {hosts[i]: rng.uniform(low, high) for i in range(n)}

    ranks = list(range(n))
    rng.shuffle(ranks)
    if cfg.support_skew > 0:
        weights = [(ranks[i] + 1) ** -cfg.support_skew for i in range(n)]
    else:
        weights = [1.0] * n
    # weights go to choices accumulated once, not again on every draw;
    # choices takes the same path either way, so the draws are the same
    activity = list(accumulate(weights))
    population = list(range(n))
    # popular wrong values: earlier decoy slots soak up more false claims
    decoy_cum = list(accumulate(
        (q + 1) ** -cfg.decoy_concentration
        for q in range(cfg.values_per_conflict - 1)))

    claim_lines = []
    sameas_lines = []
    gold = GoldStandard()
    pending_gold = []
    claim_counts = {h: 0 for h in hosts}
    mentioned = {}
    unanimous = 0

    cmin, cmax = cfg.claims_min, min(cfg.claims_max, n)

    for k in range(cfg.n_conflict_predicates):
        entity_idx = k % cfg.n_entities
        pred_idx = k // cfg.n_entities
        predicate = f"http://schema.example.org/p{pred_idx:03d}"
        kind = _KINDS[pred_idx % len(_KINDS)]
        gold_value = _gold_value(rng, kind)
        use_near = cfg.near_truth_rate > 0 and cfg.values_per_conflict >= 3
        decoys = _distinct_decoys(rng, kind, gold_value, cfg.values_per_conflict - 1)
        near = None
        if use_near:
            for _ in range(40):
                candidate = _near_decoy(rng, kind, gold_value)
                if candidate != gold_value and candidate not in decoys:
                    near = candidate
                    break

        def false_draw():
            if near is not None and rng.random() < cfg.near_truth_rate:
                return near
            return rng.choices(decoys, cum_weights=decoy_cum)[0]

        count = rng.randint(cmin, max(cmin, cmax))
        supporters = _weighted_distinct(rng, population, activity, count)
        asserted = None
        for _ in range(25):
            draw = [gold_value if rng.random() < reliability[hosts[s]]
                    else false_draw() for s in supporters]
            if gold_value in draw and len(set(draw)) >= 2:
                asserted = draw
                break
        if asserted is None:
            draw = [gold_value if rng.random() < reliability[hosts[s]]
                    else false_draw() for s in supporters]
            best = max(range(len(supporters)),
                       key=lambda q: reliability[hosts[supporters[q]]])
            draw[best] = gold_value
            asserted = draw

        conflicting = len(set(asserted)) >= 2
        members = mentioned.setdefault(entity_idx, [])
        for s, value in zip(supporters, asserted):
            host = hosts[s]
            subject = _entity_iri(host, entity_idx)
            claim_lines.append(
                f"<{subject}> <{predicate}> {_literal_for(rng, value)} .")
            if conflicting:
                claim_counts[host] += 1
            if s not in members:
                members.append(s)
        if conflicting:
            # cluster ids depend on the final membership, resolved below
            pending_gold.append((entity_idx, predicate, gold_value))
        else:
            unanimous += 1

    filler_predicate = "http://schema.example.org/label"
    for entity_idx in range(cfg.n_conflict_predicates, cfg.n_entities):
        pair = _weighted_distinct(rng, population, activity, min(2, n))
        mentioned[entity_idx] = list(pair)
        label = f"e{entity_idx:06d}"
        for s in pair:
            subject = _entity_iri(hosts[s], entity_idx)
            claim_lines.append(f'<{subject}> <{filler_predicate}> "{label}" .')

    for entity_idx in sorted(mentioned):
        members = mentioned[entity_idx]
        for q in range(1, len(members)):
            new = members[q]
            links = min(cfg.attachment_m, q)
            for _ in range(links):
                if rng.random() < cfg.sameas_fidelity:
                    other = max(members[:q], key=lambda s: reliability[hosts[s]])
                else:
                    other = members[rng.randrange(q)]
                a, b = new, other
                if reliability[hosts[a]] > reliability[hosts[b]]:
                    a, b = b, a
                # a is now the less reliable endpoint
                if rng.random() >= cfg.sameas_fidelity:
                    a, b = b, a
                sameas_lines.append(
                    f"<{_entity_iri(hosts[a], entity_idx)}> <{OWL_SAMEAS}> "
                    f"<{_entity_iri(hosts[b], entity_idx)}> .")

    for entity_idx, predicate, gold_value in pending_gold:
        cluster = min(_entity_iri(hosts[s], entity_idx)
                      for s in mentioned[entity_idx])
        gold.truths[(cluster, predicate)] = gold_value

    triples = "\n".join(claim_lines + sameas_lines) + "\n"
    return SynthResult(triples=triples, gold=gold,
                       reliabilities=reliability, claim_counts=claim_counts,
                       unanimous_slots=unanimous)


def accuracy(decisions, gold: GoldStandard) -> float:
    """Fraction of gold slots whose decision matches; empty gold is 1.0."""
    if not gold.truths:
        return 1.0
    by_slot = {(d.entity, d.predicate): d for d in decisions}
    hits = 0
    for key, value in gold.truths.items():
        decision = by_slot.get(key)
        if decision is None:
            raise MissingDecisionError(f"no decision for gold slot {key}")
        if decision.chosen == value:
            hits += 1
    return hits / len(gold.truths)


def no_dominant_config(seed: int = 0) -> SynthConfig:
    """A shape where counting votes breaks down: four spread-out values,
    mid-low reliability, and no heavy source to lean on."""
    return SynthConfig(
        n_sources=50, n_entities=500, n_conflict_predicates=2000,
        reliability_low=0.2, reliability_high=0.55, values_per_conflict=4,
        claims_min=3, claims_max=6, support_skew=0.0,
        decoy_concentration=1.8, seed=seed)


def run_method(method: str, store, priors,
               engine_cfg: EngineConfig = DEFAULT_ENGINE):
    """Decide every conflict set of ``store`` with the named method.

    Returns (decisions, iterations, converged, trace), each of the last
    three None where the method has none; only the engine reads ``priors``.
    """
    if method == METHOD_ENGINE:
        result = resolve_all(store, priors, engine_cfg)
        return (result.decisions, result.iterations, result.converged,
                result.trace)
    if method == METHOD_VOTE:
        return vote_all(store), None, None, None
    if method == METHOD_TRUTHFINDER:
        decisions, _, iterations, converged = truthfinder(store)
        return decisions, iterations, converged, None
    raise ValueError(f"unknown method: {method!r}")


def run_methods(store, priors, gold: GoldStandard, methods,
                engine_cfg: EngineConfig = DEFAULT_ENGINE) -> dict:
    """Score each requested method on an assembled store."""
    report = {}
    for method in methods:
        start = time.perf_counter()
        decisions, iterations, converged, trace = run_method(
            method, store, priors, engine_cfg)
        elapsed = time.perf_counter() - start
        report[method] = {"accuracy": accuracy(decisions, gold),
                          "seconds": elapsed, "iterations": iterations,
                          "converged": converged, "trace": trace}
    return report


def run_benchmark(base_cfg: SynthConfig, seeds, methods=None,
                  engine_cfg: EngineConfig = DEFAULT_ENGINE,
                  prior_cfg: PriorConfig = DEFAULT_PRIOR) -> list:
    """Generate, assemble and score one corpus per seed."""
    methods = list(methods or (METHOD_ENGINE, METHOD_VOTE))
    rows = []
    for seed in seeds:
        synth = generate(replace(base_cfg, seed=seed))
        statements = list(parse_triples(synth.triples, FORMAT_NTRIPLES))
        built = assemble(statements, prior_cfg=prior_cfg)
        report = run_methods(built.store, built.priors, synth.gold, methods,
                             engine_cfg)
        rows.append({"seed": seed, "report": report,
                     "conflict_sets": len(built.store.conflict_sets),
                     "unanimous_slots": synth.unanimous_slots})
    return rows
