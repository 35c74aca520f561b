"""Readability grades, per-word complexity weights, readability subscore.

Grade formulas use the canonical coefficient sets:

* Flesch-Kincaid grade level:
  ``0.39 * words/sentences + 11.8 * syllables/words - 15.59``
* Automated readability index:
  ``4.71 * chars/words + 0.5 * words/sentences - 21.43``

where characters are the alphanumeric characters of word tokens.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .textseg import TokenList, count_syllables, tokenize

__all__ = [
    "FK_WORDS_PER_SENTENCE",
    "FK_SYLLABLES_PER_WORD",
    "FK_BASE",
    "ARI_CHARS_PER_WORD",
    "ARI_WORDS_PER_SENTENCE",
    "ARI_BASE",
    "SIMPLE_GRADE",
    "COMPLEX_GRADE",
    "flesch_kincaid",
    "flesch_kincaid_tokens",
    "ari",
    "ari_tokens",
    "word_fk",
    "readability_subscore",
    "FkWeightTable",
]

FK_WORDS_PER_SENTENCE = 0.39
FK_SYLLABLES_PER_WORD = 11.8
FK_BASE = -15.59

ARI_CHARS_PER_WORD = 4.71
ARI_WORDS_PER_SENTENCE = 0.5
ARI_BASE = -21.43

# Band edges for the readability subscore: grades at or below the low edge
# score 1, at or above the high edge score 0, linear in between.
SIMPLE_GRADE = 4.0
COMPLEX_GRADE = 20.0


def flesch_kincaid(text: str) -> float:
    """Flesch-Kincaid grade level of ``text``.

    Raises ValueError when the text contains no word tokens.

    Example:
        >>> round(flesch_kincaid("The cat sat on the mat."), 2)
        -1.45
    """
    return flesch_kincaid_tokens(tokenize(text))


def flesch_kincaid_tokens(tl: TokenList) -> float:
    """:func:`flesch_kincaid` of an already tokenized text."""
    words = tl.words()
    if not words:
        raise ValueError("flesch_kincaid needs at least one word token")
    syllables = sum(count_syllables(t.surface) for t in words)
    return _fk_grade(len(words), tl.sentence_count(), syllables)


def _fk_grade(words: int, sentences: int, syllables: int) -> float:
    """The Flesch-Kincaid grade from its three counts."""
    return (
        FK_WORDS_PER_SENTENCE * (words / sentences)
        + FK_SYLLABLES_PER_WORD * (syllables / words)
        + FK_BASE
    )


def ari(text: str) -> float:
    """Automated readability index of ``text``.

    Characters are alphanumeric characters inside word tokens, so
    punctuation and whitespace do not count.

    Example:
        >>> round(ari("a"), 2)
        -16.22
    """
    return ari_tokens(tokenize(text))


def ari_tokens(tl: TokenList) -> float:
    """:func:`ari` of an already tokenized text."""
    words = tl.words()
    if not words:
        raise ValueError("ari needs at least one word token")
    sentences = tl.sentence_count()
    chars = sum(
        1 for t in words for ch in t.surface if ch.isalnum()
    )
    return (
        ARI_CHARS_PER_WORD * (chars / len(words))
        + ARI_WORDS_PER_SENTENCE * (len(words) / sentences)
        + ARI_BASE
    )


def word_fk(word: str) -> float:
    """Single-word Flesch-Kincaid weight, clamped at zero.

    The one-word, one-sentence grade ``0.39 + 11.8 * syllables - 15.59``;
    negative values (every one-syllable word) clamp to 0.

    Example:
        >>> word_fk("cat"), round(word_fk("hemorrhage"), 1)
        (0.0, 20.2)
    """
    syllables = count_syllables(word)
    return max(
        0.0,
        FK_WORDS_PER_SENTENCE + FK_SYLLABLES_PER_WORD * syllables + FK_BASE,
    )


def readability_subscore(f_f: float) -> float:
    """Map a grade to [0, 1]: 1 below grade 4, 0 above grade 20, linear
    between.

    Example:
        >>> readability_subscore(12.0)
        0.5
    """
    if not math.isfinite(f_f):
        raise ValueError(f"grade must be finite, got {f_f!r}")
    if f_f < SIMPLE_GRADE:
        return 1.0
    if f_f <= COMPLEX_GRADE:
        return (COMPLEX_GRADE - f_f) / (COMPLEX_GRADE - SIMPLE_GRADE)
    return 0.0


class FkWeightTable:
    """Frozen word -> FK weight lookup used by the unlikelihood loss.

    Built once per vocabulary so training-time lookups are dict hits.
    """

    def __init__(self, weights: Mapping[str, float]):
        for word, weight in weights.items():
            if not word:
                raise ValueError("empty word in weight table")
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(
                    f"weight for {word!r} must be finite and >= 0, "
                    f"got {weight!r}"
                )
        self._weights = dict(weights)

    @classmethod
    def for_vocab(cls, vocab: Iterable[str]) -> "FkWeightTable":
        """Build the table from :func:`word_fk` over ``vocab``.

        Vocabulary entries with no alphanumeric characters (e.g. sequence
        markers) get weight 0.
        """
        weights = {}
        for word in vocab:
            if any(ch.isalnum() for ch in word):
                weights[word] = word_fk(word)
            else:
                weights[word] = 0.0
        return cls(weights)

    def __getitem__(self, word: str) -> float:
        try:
            return self._weights[word]
        except KeyError:
            raise KeyError(f"no FK weight for word {word!r}") from None
