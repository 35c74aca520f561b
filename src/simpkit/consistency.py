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


class ConsistencyScorer(ABC):
    """Interface: score how well ``candidate`` is supported by ``source``."""

    @abstractmethod
    def score(self, candidate: str, source: str) -> float:
        """Return a consistency score in [0, 1]."""


class PreparedSource:
    """One source text, tokenized once, with what scoring reads from it.

    Holds the case-folded word tokens in order, their distinct kinds in
    order of first appearance, the surfaces of its numeric tokens, and an
    inverted index from each character trigram to the kinds holding it
    (with the trigram's count in each), plus each kind's squared norm.

    The lexical scorer reads three tables filled on demand from the index:
    each candidate token's similarity row, that row's maximum (the token's
    precision term), and the recall of each set of candidate tokens.  A row
    is sparse: it holds the kinds that share a trigram with the token, and
    the token's own kind at exactly 1.0; every kind it leaves out has a
    zero dot product, so similarity 0.0.  Its values are exact: a dot
    product is a sum of integers, whatever order the index visits trigrams
    in, and each value is ``min(1.0, dot / math.sqrt(norm_token *
    norm_kind))`` as the cosine is written.  Recall is keyed by the set of
    tokens because a column maximum does not depend on the order of the
    rows: similarities are never ``-0.0`` or NaN.  The tables only memoize
    pure functions of their keys, so sharing one instance between callers
    changes no result.
    """

    def __init__(self, text: str):
        tl = tokenize(text)
        self.words = tuple(tl.word_surfaces(lowercase=True))
        self.kinds = tuple(dict.fromkeys(self.words))
        self._position = {kind: i for i, kind in enumerate(self.kinds)}
        self.kind_positions = tuple(self._position[w] for w in self.words)
        self._numerals = frozenset(t.surface for t in tl.tokens if t.is_numeric)
        self._index: dict[str, list[tuple[int, int]]] = {}
        norms = []
        for k, kind in enumerate(self.kinds):
            counts, norm = _trigram_profile(kind)
            norms.append(norm)
            for gram, count in counts.items():
                self._index.setdefault(gram, []).append((k, count))
        self._norms = tuple(norms)
        self._similarities: dict[str, dict[int, float]] = {}
        self._row_max: dict[str, float] = {}
        self._recall: dict[frozenset[str], float] = {}

    def similarities(self, token: str) -> dict[int, float]:
        """Trigram similarity of ``token`` to the source kinds, keyed by
        index into :attr:`kinds`; a kind that is absent scores 0.0."""
        row = self._similarities.get(token)
        if row is None:
            counts, norm = _trigram_profile(token)
            dots: dict[int, int] = {}
            for gram, count in counts.items():
                for k, kind_count in self._index.get(gram, ()):
                    dots[k] = dots.get(k, 0) + count * kind_count
            norms = self._norms
            row = {
                k: min(1.0, dot / math.sqrt(norm * norms[k]))
                for k, dot in dots.items()
            }
            own = self._position.get(token)
            if own is not None:
                row[own] = 1.0
            self._similarities[token] = row
        return row

    def _precision_term(self, token: str) -> float:
        """Best similarity of ``token`` to any source kind."""
        best = self._row_max.get(token)
        if best is None:
            row = self.similarities(token)
            best = self._row_max[token] = max(row.values(), default=0.0)
        return best

    def _recall_of(self, tokens: frozenset[str]) -> float:
        """Mean over source words of the best similarity to any of
        ``tokens``, summed in source order."""
        recall = self._recall.get(tokens)
        if recall is None:
            best = [0.0] * len(self.kinds)
            for tok in tokens:
                for k, sim in self.similarities(tok).items():
                    if sim > best[k]:
                        best[k] = sim
            recall = sum(best[i] for i in self.kind_positions) / len(
                self.words
            )
            self._recall[tokens] = recall
        return recall

    def unsupported(self, mentions: Mapping[str, Sequence[str]]) -> set[str]:
        """Mentions whose words do not occur contiguously
        (case-insensitively) in the source words.  A mention with no word
        tokens, such as a numeral whose first digit is not ASCII, is
        supported only when its surface is a numeric token of the source."""
        missing = set()
        for mention, words in mentions.items():
            if not words:
                supported = mention in self._numerals
            elif len(words) == 1:
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
        term = prepared._precision_term
        precision = sum([term(tok) for tok in cand]) / len(cand)
        recall = prepared._recall_of(frozenset(cand))
        if precision + recall == 0:
            return 0.0
        f1 = 2 * precision * recall / (precision + recall)
        return min(1.0, max(0.0, f1))


class PrecomputedScorer(ConsistencyScorer):
    """Replays externally computed scores keyed by candidate text.

    The file format is one entry per line, ``key<TAB>score``, scores in
    [0, 1].  Keys are exact candidate strings.
    """

    def __init__(self, scores: Mapping[str, float]):
        for key, value in scores.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"score for {key!r} out of range [0, 1]: {value!r}"
                )
        self._scores = dict(scores)

    @classmethod
    def from_file(cls, path: str) -> "PrecomputedScorer":
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
        return cls(scores)

    def score(self, candidate: str, source: str) -> float:
        try:
            return self._scores[candidate]
        except KeyError:
            raise KeyError(
                f"no precomputed score for candidate key {candidate!r}"
            ) from None


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
    (case-insensitively) in the source word-token sequence; one with no
    word tokens, such as ``٣``, when it is a numeric token of the source.
    Pass ``candidate_entities`` to skip heuristic extraction and check an
    externally supplied entity list instead.
    """
    if candidate_entities is None:
        mentions = entity_mentions(tokenize(candidate))
    else:
        mentions = {e: word_tokens(e) for e in set(candidate_entities)}
    return prepare_source(source).unsupported(mentions)
