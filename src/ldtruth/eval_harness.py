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
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate

from .baselines import METHOD_ENGINE, METHOD_VOTE, METHODS, run_method
from .pipeline import assemble
from .prior_belief import DEFAULT_PRIOR, PriorConfig
from .rdf_ingest import FORMAT_NTRIPLES, OWL_SAMEAS, parse_triples
from .truth_engine import DEFAULT_ENGINE, EngineConfig
from .values import MONTH_NAMES, NormalizedValue

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
        if any(f.type == "int" and not isinstance(getattr(self, f.name), int)
               for f in fields(self)):
            raise SynthConfigError("every count and the seed must be integers")
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
        if self.claims_min > self.n_sources:
            raise SynthConfigError("claims_min must not exceed n_sources")
        # written so that NaN fails the check
        if not self.support_skew >= 0:
            raise SynthConfigError("support_skew must be non-negative")
        if not self.decoy_concentration >= 0:
            raise SynthConfigError("decoy_concentration must be non-negative")
        if not 0.0 <= self.near_truth_rate <= 1.0:
            raise SynthConfigError("near_truth_rate must be in [0, 1]")
        if self.near_truth_rate > 0 and self.values_per_conflict < 3:
            raise SynthConfigError(
                "near_truth_rate needs values_per_conflict of at least 3")

    @property
    def claims_range(self) -> tuple:
        """The claims per conflict drawn: distinct sources cap the most."""
        return self.claims_min, min(self.claims_max, self.n_sources)


@dataclass
class GoldStandard:
    truths: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = ["entity\tpredicate\tkind\tvalue"]
        for (entity, predicate), value in sorted(self.truths.items()):
            lines.append(f"{entity}\t{predicate}\t{value.kind}\t{value.render()}")
        return "\n".join(lines) + "\n"


@dataclass
class SynthResult:
    triples: str
    gold: GoldStandard
    reliabilities: dict
    unanimous_slots: int


def _source_host(i: int) -> str:
    return f"src{i:03d}.example.org"


def _entity_iri(host: str, entity_idx: int) -> str:
    return f"http://{host}/resource/e{entity_idx:06d}"


def _weighted_distinct(rng, population, cum_weights, k: int) -> list:
    chosen = []
    guard = 0
    while len(chosen) < k:
        pick = rng.choices(population, cum_weights=cum_weights)[0]
        guard += 1
        if pick not in chosen:
            chosen.append(pick)
        elif guard > 50 * k:
            for candidate in population:
                if candidate not in chosen:
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
    slot = 0
    while len(decoys) < count:
        candidate = _decoy_value(rng, kind, gold, slot)
        slot += 1
        if candidate != gold and candidate not in decoys:
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
        return f'"{day} {MONTH_NAMES[month - 1].capitalize()} {year}"'
    return f'"{value.render()}"'


def generate(cfg: SynthConfig) -> SynthResult:
    """Build one corpus plus its answer key.

    A conflict slot is drawn up to 26 times, until the true value is
    asserted alongside a disagreement; the last draw gives the truth to
    the most reliable supporter.  A slot left without a disagreement
    (certain at reliability 1.0) is emitted as unanimous claims and left
    out of the answer key, since nothing about it is in dispute.
    """
    rng = random.Random(cfg.seed)
    n = cfg.n_sources
    hosts = [_source_host(i) for i in range(n)]
    # each source's reliability, by source number
    reliability = [rng.uniform(cfg.reliability_low, cfg.reliability_high)
                   for _ in range(n)]

    ranks = list(range(n))
    rng.shuffle(ranks)
    # weights go to choices accumulated once, not again on every draw;
    # choices takes the same path either way, so the draws are the same.
    # A skew of 0 weighs every source 1.0, since x ** -0.0 == 1.0.
    activity = list(accumulate((rank + 1.0) ** -cfg.support_skew
                               for rank in ranks))
    population = list(range(n))
    # popular wrong values: earlier decoy slots soak up more false claims
    decoy_cum = list(accumulate(
        (q + 1) ** -cfg.decoy_concentration
        for q in range(cfg.values_per_conflict - 1)))

    claim_lines = []
    sameas_lines = []
    gold = GoldStandard()
    pending_gold = []
    mentioned = {}
    unanimous = 0

    cmin, cmax = cfg.claims_range

    for k in range(cfg.n_conflict_predicates):
        entity_idx = k % cfg.n_entities
        pred_idx = k // cfg.n_entities
        predicate = f"http://schema.example.org/p{pred_idx:03d}"
        kind = _KINDS[pred_idx % len(_KINDS)]
        gold_value = _gold_value(rng, kind)
        decoys = _distinct_decoys(rng, kind, gold_value, cfg.values_per_conflict - 1)
        near = None
        if cfg.near_truth_rate > 0:
            for _ in range(40):
                candidate = _near_decoy(rng, kind, gold_value)
                if candidate != gold_value and candidate not in decoys:
                    near = candidate
                    break

        def false_draw():
            if near is not None and rng.random() < cfg.near_truth_rate:
                return near
            return rng.choices(decoys, cum_weights=decoy_cum)[0]

        count = rng.randint(cmin, cmax)
        supporters = _weighted_distinct(rng, population, activity, count)
        for attempt in range(26):
            asserted = [gold_value if rng.random() < reliability[s]
                        else false_draw() for s in supporters]
            if attempt == 25:
                best = max(supporters, key=reliability.__getitem__)
                asserted[supporters.index(best)] = gold_value
            elif gold_value in asserted and len(set(asserted)) >= 2:
                break

        conflicting = len(set(asserted)) >= 2
        members = mentioned.setdefault(entity_idx, [])
        for s, value in zip(supporters, asserted):
            subject = _entity_iri(hosts[s], entity_idx)
            claim_lines.append(
                f"<{subject}> <{predicate}> {_literal_for(rng, value)} .")
            if s not in members:
                members.append(s)
        if conflicting:
            # cluster ids depend on the final membership, resolved below
            pending_gold.append((entity_idx, predicate, gold_value))
        else:
            unanimous += 1

    filler_predicate = "http://schema.example.org/label"
    for entity_idx in range(cfg.n_conflict_predicates, cfg.n_entities):
        pair = _weighted_distinct(rng, population, activity, 2)
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
                    other = max(members[:q], key=reliability.__getitem__)
                else:
                    other = members[rng.randrange(q)]
                a, b = new, other
                if reliability[a] > reliability[b]:
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
                       reliabilities=dict(zip(hosts, reliability)),
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


def run_benchmark(base_cfg: SynthConfig, seeds, methods=None,
                  engine_cfg: EngineConfig = DEFAULT_ENGINE,
                  prior_cfg: PriorConfig = DEFAULT_PRIOR) -> list:
    """Generate, assemble and score each method on one corpus per seed."""
    methods = list(methods or (METHOD_ENGINE, METHOD_VOTE))
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method: {method!r}")
        if method in methods[:i]:
            raise ValueError(f"repeated method: {method!r}")
    rows = []
    for seed in seeds:
        synth = generate(replace(base_cfg, seed=seed))
        statements = list(parse_triples(synth.triples, FORMAT_NTRIPLES))
        built = assemble(statements, prior_cfg=prior_cfg)
        report = {}
        for method in methods:
            start = time.perf_counter()
            decisions, iterations, converged, trace = run_method(
                method, built.store, built.priors, engine_cfg)
            elapsed = time.perf_counter() - start
            report[method] = {"accuracy": accuracy(decisions, synth.gold),
                              "seconds": elapsed, "iterations": iterations,
                              "converged": converged, "trace": trace}
        rows.append({"seed": seed, "report": report,
                     "conflict_sets": len(built.store.conflict_sets),
                     "unanimous_slots": synth.unanimous_slots})
    return rows
