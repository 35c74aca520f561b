"""Composite beam scoring: readability and consistency fused into one rank.

The composite score is the squared harmonic mean of the two subscores.
Squaring keeps the score in [0, 1] while punishing imbalance harder than
the plain harmonic mean; a beam weak on either axis ranks behind a beam
moderately good on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .consistency import (
    ConsistencyScorer,
    consistency_subscore,
    prepare_source,
    unsupported_entities,
)
from .readability import _fk_grade, flesch_kincaid_tokens, readability_subscore
from .textseg import count_syllables, entity_mentions, tokenize

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


class _WordFacts(NamedTuple):
    """What scoring reads from one plain word standing alone."""

    syllables: int
    capitalized: bool
    numeric: bool


@lru_cache(maxsize=4096)
def _word_facts(word: str) -> _WordFacts | None:
    """The facts of ``word`` when it is a plain word, else None.

    A plain word tokenizes to exactly one word token equal to itself.
    Such a token is matched by the word alternatives of the token pattern,
    none of which reaches across whitespace, so a space-joined sequence of
    plain words tokenizes to exactly those words, with no sentence mark
    between them.  Facts are memoized for the 4,096 most recently used
    words.
    """
    tokens = tokenize(word).tokens
    if len(tokens) != 1 or not tokens[0].is_word or tokens[0].surface != word:
        return None
    tok = tokens[0]
    return _WordFacts(
        count_syllables(word), tok.is_capitalized, tok.is_numeric
    )


def _plain_facts(words: Sequence[str]) -> list[_WordFacts] | None:
    """Per-word facts of a non-empty sequence of plain words, else None."""
    if not words:
        return None
    facts = [_word_facts(w) for w in words]
    return None if None in facts else facts


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

    A candidate of plain words (each one word token on its own, as every
    n-gram vocabulary word is) is graded from its words, with no tokenize:
    the joined text is one sentence of exactly those words, so the grade
    follows from memoized per-word facts.  Its entity check reads
    :func:`~simpkit.textseg.entity_mentions` of the tokenized text only
    when a word after the first is capitalized or a word is numeric;
    otherwise no entity rule can fire on that one sentence, and nothing is
    tokenized.  Any other candidate is tokenized once and every check
    reads that one token list.  Either way the scorer sees the words
    joined by single spaces, and the source is prepared once per source
    text (:func:`~simpkit.consistency.prepare_source`).
    """
    text = " ".join(words)
    facts = _plain_facts(words)
    if facts is None:
        tl = tokenize(text)
        if not any(t.is_word for t in tl.tokens):
            return BeamScore(
                f_f=0.0, f_b=0.0, r_f=readability_subscore(0.0), r_b=0.0, r=0.0
            )
        f_f = flesch_kincaid_tokens(tl)
    else:
        tl = None
        f_f = _fk_grade(len(facts), 1, sum(f.syllables for f in facts))
    f_b = scorer.score(text, source)
    r_f = readability_subscore(f_f)
    r_b = consistency_subscore(f_b)
    zeroed = False
    if heuristic_on:
        if candidate_entities is not None:
            zeroed = bool(unsupported_entities(text, source, candidate_entities))
        # In one sentence of plain words, word 0 is the only sentence-initial
        # word: a capitalized run needs a capitalized word after it, a
        # repeated sentence-initial name implies one, and rule 3 a numeral.
        elif (
            facts is None
            or any(f.numeric for f in facts)
            or any(f.capitalized for f in facts[1:])
        ):
            mentions = entity_mentions(tokenize(text) if tl is None else tl)
            zeroed = bool(prepare_source(source).unsupported(mentions))
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
