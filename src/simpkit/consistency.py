"""Consistency scoring between a candidate text and its source.

The reference scorer is lexical: greedy token matching under character
trigram cosine similarity, combined into an F1.  It is a deterministic,
dependency-free stand-in for embedding-based scorers; anything exposing
``score(candidate, source) -> [0, 1]`` can be dropped in, including
:class:`PrecomputedScorer` which replays scores from a file.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .textseg import (
    contains_token_span,
    entity_mentions,
    tokenize,
    word_tokens,
)

__all__ = [
    "CONSISTENT_FLOOR",
    "ConsistencyScorer",
    "LexicalScorer",
    "PrecomputedScorer",
    "PreparedSource",
    "prepare_source",
    "lexical_score",
    "consistency_subscore",
    "unsupported_entities",
]

# Scores at or below this floor carry no consistency credit.
CONSISTENT_FLOOR = 0.60


@lru_cache(maxsize=65536)
def _trigram_profile(token: str) -> tuple[dict[str, int], float]:
    """Trigram count vector of ``^token$`` and its Euclidean norm."""
    padded = f"^{token}$"
    counts = Counter(padded[i : i + 3] for i in range(len(padded) - 2))
    norm_sq = sum(c * c for c in counts.values())
    return dict(counts), float(norm_sq)


@lru_cache(maxsize=1 << 20)
def _token_similarity(a: str, b: str) -> float:
    """Cosine similarity of the trigram profiles of two tokens."""
    if a == b:
        return 1.0
    counts_a, norm_a = _trigram_profile(a)
    counts_b, norm_b = _trigram_profile(b)
    dot = sum(
        count * counts_b[gram]
        for gram, count in counts_a.items()
        if gram in counts_b
    )
    if dot == 0:
        return 0.0
    sim = dot / math.sqrt(norm_a * norm_b)
    return min(1.0, max(0.0, sim))


class ConsistencyScorer(ABC):
    """Interface: score how well ``candidate`` is supported by ``source``."""

    @abstractmethod
    def score(self, candidate: str, source: str) -> float:
        """Return a consistency score in [0, 1]."""


class PreparedSource:
    """One source text, tokenized once, with what scoring reads from it.

    Holds the case-folded word tokens in order, their distinct kinds in
    order of first appearance, and a table filled on demand with each
    candidate token's trigram similarity to every source kind, from which
    the lexical scorer takes both its precision and its recall terms.  The
    table only memoizes a pure function of its key, so sharing one instance
    between callers changes no result.
    """

    def __init__(self, text: str):
        self.words = tuple(tokenize(text).word_surfaces(lowercase=True))
        self.kinds = tuple(dict.fromkeys(self.words))
        self._position = {kind: i for i, kind in enumerate(self.kinds)}
        self.kind_positions = tuple(self._position[w] for w in self.words)
        self._similarities: dict[str, tuple[float, ...]] = {}

    def similarities(self, token: str) -> tuple[float, ...]:
        """Trigram similarity of ``token`` to each source kind, in the
        order of :attr:`kinds`."""
        row = self._similarities.get(token)
        if row is None:
            row = tuple(_token_similarity(token, kind) for kind in self.kinds)
            self._similarities[token] = row
        return row

    def unsupported(self, mentions: Mapping[str, Sequence[str]]) -> set[str]:
        """Mentions whose words do not occur contiguously
        (case-insensitively) in the source words."""
        missing = set()
        for mention, words in mentions.items():
            if len(words) == 1:
                supported = words[0].lower() in self._position
            else:
                supported = contains_token_span(self.words, words)
            if not supported:
                missing.add(mention)
        return missing


@lru_cache(maxsize=32)
def prepare_source(source: str) -> PreparedSource:
    """The :class:`PreparedSource` of ``source``, kept for the 32 most
    recently used sources, so one decode or one corpus row tokenizes its
    source once however many candidates are scored against it."""
    return PreparedSource(source)


class LexicalScorer(ConsistencyScorer):
    """Greedy token-matching F1 under character-trigram cosine similarity.

    Precision: mean over candidate tokens of the best similarity to any
    source token.  Recall: the same with roles swapped.  Tokens are
    case-folded word tokens.  Identical texts score exactly 1.0; texts with
    no shared or near-shared tokens score 0.0.
    """

    def score(self, candidate: str, source: str) -> float:
        cand = word_tokens(candidate, lowercase=True)
        if not cand:
            raise ValueError("candidate has no word tokens")
        prepared = prepare_source(source)
        if not prepared.words:
            return 0.0
        # Similarity is symmetric, so one row per candidate kind serves
        # both directions: a row's maximum is that token's precision term,
        # a column's maximum over the rows is that source kind's recall
        # term.  Sums run over tokens in text order, as the definition does.
        rows = {tok: prepared.similarities(tok) for tok in cand}
        precision = sum(max(rows[tok]) for tok in cand) / len(cand)
        recall_of = [max(column) for column in zip(*rows.values())]
        recall = sum(recall_of[i] for i in prepared.kind_positions) / len(
            prepared.words
        )
        if precision + recall == 0:
            return 0.0
        f1 = 2 * precision * recall / (precision + recall)
        return min(1.0, max(0.0, f1))


class PrecomputedScorer(ConsistencyScorer):
    """Replays externally computed scores keyed by candidate text.

    The file format is one entry per line, ``key<TAB>score``, scores in
    [0, 1].  Keys are exact candidate strings (or caller-chosen ids when a
    ``key_fn`` translates candidates to keys).
    """

    def __init__(self, scores: Mapping[str, float], key_fn=None):
        for key, value in scores.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"score for {key!r} out of range [0, 1]: {value!r}"
                )
        self._scores = dict(scores)
        self._key_fn = key_fn

    @classmethod
    def from_file(cls, path: str, key_fn=None) -> "PrecomputedScorer":
        scores = {}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(
                        f"line {lineno}: expected key<TAB>score, got {line!r}"
                    )
                try:
                    value = float(parts[1])
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad score {parts[1]!r}"
                    ) from None
                if not 0.0 <= value <= 1.0:
                    raise ValueError(
                        f"line {lineno}: score out of range [0, 1]: {value!r}"
                    )
                scores[parts[0]] = value
        return cls(scores, key_fn=key_fn)

    def score(self, candidate: str, source: str) -> float:
        key = self._key_fn(candidate) if self._key_fn else candidate
        try:
            return self._scores[key]
        except KeyError:
            raise KeyError(
                f"no precomputed score for candidate key {key!r}"
            ) from None


_DEFAULT_SCORER = LexicalScorer()


def lexical_score(candidate: str, source: str) -> float:
    """Module-level shortcut for :class:`LexicalScorer`."""
    return _DEFAULT_SCORER.score(candidate, source)


def consistency_subscore(f_b: float) -> float:
    """Map a consistency score to [0, 1] credit.

    Zero at or below the 0.60 floor, then linear up to 1 at a perfect
    score.

    Example:
        >>> round(consistency_subscore(0.84), 4)
        0.6
    """
    if not (isinstance(f_b, (int, float)) and math.isfinite(f_b)):
        raise ValueError(f"consistency score must be finite, got {f_b!r}")
    if not 0.0 <= f_b <= 1.0:
        raise ValueError(f"consistency score out of range [0, 1]: {f_b!r}")
    if f_b < CONSISTENT_FLOOR:
        return 0.0
    return (f_b - CONSISTENT_FLOOR) / (1.0 - CONSISTENT_FLOOR)


def unsupported_entities(
    candidate: str,
    source: str,
    candidate_entities: Iterable[str] | None = None,
) -> set[str]:
    """Entity mentions of ``candidate`` absent from ``source``.

    An entity counts as supported when its word tokens occur contiguously
    (case-insensitively) in the source word-token sequence.  Pass
    ``candidate_entities`` to skip heuristic extraction and check an
    externally supplied entity list instead.
    """
    if candidate_entities is None:
        mentions = entity_mentions(tokenize(candidate))
    else:
        mentions = {e: word_tokens(e) for e in set(candidate_entities)}
    return prepare_source(source).unsupported(mentions)
