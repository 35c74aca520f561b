"""Composite beam scoring: readability and consistency fused into one rank.

The composite score is the squared harmonic mean of the two subscores.
Squaring keeps the score in [0, 1] while punishing imbalance harder than
the plain harmonic mean; a beam weak on either axis ranks behind a beam
moderately good on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .consistency import (
    ConsistencyScorer,
    consistency_subscore,
    prepare_source,
    unsupported_entities,
)
from .readability import flesch_kincaid_tokens, readability_subscore
from .textseg import entity_mentions, tokenize

# No longer called here, but the benchmark's tracer test
# (perfbench/tests/test_perfbench.py) looks both names up on this module.
from .readability import flesch_kincaid  # noqa: F401
from .textseg import word_tokens  # noqa: F401

__all__ = [
    "BeamScore",
    "RankedBeam",
    "composite_score",
    "score_candidate",
    "rank_beams",
]


@dataclass(frozen=True)
class BeamScore:
    """Full scoring breakdown for one candidate sequence.

    ``hallucination_zeroed`` records that the unsupported-entity heuristic
    forced ``r`` to 0 regardless of the subscores.
    """

    f_f: float
    f_b: float
    r_f: float
    r_b: float
    r: float
    hallucination_zeroed: bool = False


@dataclass(frozen=True)
class RankedBeam:
    words: tuple[str, ...]
    log_prob: float
    score: BeamScore


def composite_score(r_f: float, r_b: float) -> float:
    """Squared harmonic mean of the two subscores, 0 when both are 0.

    Example:
        >>> round(composite_score(0.8, 0.2), 4)
        0.1024
    """
    for name, value in (("r_f", r_f), ("r_b", r_b)):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"{name} out of range [0, 1]: {value!r}")
    total = r_f + r_b
    if total == 0.0:
        return 0.0
    harmonic = 2.0 * r_f * r_b / total
    return harmonic * harmonic


def score_candidate(
    words: Sequence[str],
    source: str,
    scorer: ConsistencyScorer,
    heuristic_on: bool = True,
    candidate_entities: Iterable[str] | None = None,
) -> BeamScore:
    """Score one candidate word sequence against ``source``.

    Sequences with no word tokens (including the empty sequence) score 0 on
    both axes without consulting the scorer.  With ``heuristic_on``, ``r``
    is zeroed when an entity of the candidate is missing from the source;
    the entities are extracted from the candidate unless
    ``candidate_entities`` supplies them.

    The candidate is tokenized once, and every check here reads that one
    token list; the source is prepared once per source text
    (:func:`~simpkit.consistency.prepare_source`).
    """
    text = " ".join(words)
    tl = tokenize(text)
    if not any(t.is_word for t in tl.tokens):
        return BeamScore(
            f_f=0.0, f_b=0.0, r_f=readability_subscore(0.0), r_b=0.0, r=0.0
        )
    f_f = flesch_kincaid_tokens(tl)
    f_b = scorer.score(text, source)
    r_f = readability_subscore(f_f)
    r_b = consistency_subscore(f_b)
    if not heuristic_on:
        zeroed = False
    elif candidate_entities is None:
        zeroed = bool(prepare_source(source).unsupported(entity_mentions(tl)))
    else:
        zeroed = bool(unsupported_entities(text, source, candidate_entities))
    r = 0.0 if zeroed else composite_score(r_f, r_b)
    return BeamScore(
        f_f=f_f, f_b=f_b, r_f=r_f, r_b=r_b, r=r, hallucination_zeroed=zeroed
    )


def rank_beams(
    beams: Sequence[tuple[Sequence[str], float]],
    source: str,
    scorer: ConsistencyScorer,
    heuristic_on: bool = True,
    top_n: int | None = None,
) -> list[RankedBeam]:
    """Rank ``(word sequence, log_prob)`` beams by composite score.

    Descending ``r``; ties broken by higher log_prob, then shorter
    sequence, then lexicographic order of the words.  Returns the top
    ``top_n`` beams (all of them when ``top_n`` is None).
    """
    if not beams:
        raise ValueError("rank_beams needs at least one beam")
    if top_n is not None and top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    ranked = [
        RankedBeam(
            words=tuple(words),
            log_prob=float(log_prob),
            score=score_candidate(words, source, scorer, heuristic_on),
        )
        for words, log_prob in beams
    ]
    ranked.sort(
        key=lambda b: (-b.score.r, -b.log_prob, len(b.words), b.words)
    )
    return ranked if top_n is None else ranked[:top_n]
