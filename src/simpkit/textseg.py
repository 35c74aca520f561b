"""Tokenization, sentence segmentation, syllable counting, n-grams, entities.

Deterministic, dependency-free text operations shared by every other module.
The rules are intentionally small and fully documented here so that metric
values are reproducible from this file alone:

* Tokens are maximal runs matched left to right by, in order of priority:
  decimal numerals (``0.73``, ``3.5.1``), alphanumeric words with internal
  apostrophes or hyphens (``don't``, ``state-of-the-art``), and single
  non-space characters for everything else.  A decimal point inside a numeral
  never opens a token boundary and never ends a sentence.
* Sentence boundaries sit after ``.``, ``!`` or ``?`` tokens that are
  followed by whitespace or end of text.  A ``.`` is suppressed as a boundary
  when the text ending at it spells one of the abbreviations in
  :data:`ABBREVIATIONS` (matched case-insensitively on its own word
  boundary).
* Syllables are counted as maximal vowel groups (``aeiouy``) with the usual
  silent-e subtraction and a floor of one.
* Entities are capitalized token runs off sentence-initial position,
  sentence-initial capitalized tokens that also occur capitalized elsewhere
  mid-sentence, and numeric tokens.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ABBREVIATIONS",
    "Token",
    "TokenList",
    "tokenize",
    "split_sentences",
    "count_syllables",
    "word_tokens",
    "extract_ngrams",
    "entity_mentions",
    "extract_entities",
    "entity_word_positions",
    "contains_token_span",
]

# Decimal numerals first so "0.73" survives as one token, then words with
# internal apostrophes/hyphens, then any single non-space character.
_TOKEN_RE = re.compile(
    r"\d+(?:\.\d+)+"
    r"|[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*"
    r"|\S"
)

_NUMERIC_RE = re.compile(r"\d+(?:\.\d+)*\Z")

_WORD_START_RE = re.compile(r"[A-Za-z0-9]")

# Abbreviations whose trailing period does not end a sentence.  "etc." is
# deliberately absent: it frequently does end one.
ABBREVIATIONS = (
    "e.g.",
    "i.e.",
    "vs.",
    "cf.",
    "al.",
    "dr.",
    "mr.",
    "mrs.",
    "ms.",
    "prof.",
    "fig.",
    "no.",
    "vol.",
    "approx.",
)

_VOWELS = frozenset("aeiouy")

_SENTENCE_END = frozenset(".!?")


@dataclass(frozen=True)
class Token:
    """One token with its surface form, source offset and classification."""

    surface: str
    start: int
    is_word: bool
    is_numeric: bool
    is_capitalized: bool
    sentence_index: int
    is_sentence_initial: bool

    @property
    def end(self) -> int:
        return self.start + len(self.surface)


@dataclass(frozen=True)
class TokenList:
    """Tokenization result: the original text plus its tokens in order."""

    text: str
    tokens: tuple[Token, ...]

    def words(self) -> list[Token]:
        return [t for t in self.tokens if t.is_word]

    def word_surfaces(self, lowercase: bool = False) -> list[str]:
        surfaces = [t.surface for t in self.tokens if t.is_word]
        if lowercase:
            surfaces = [s.lower() for s in surfaces]
        return surfaces

    def sentence_count(self) -> int:
        return len({t.sentence_index for t in self.tokens if t.is_word})

    def sentences(self) -> list[list[Token]]:
        """Word tokens grouped by sentence, in order."""
        grouped: dict[int, list[Token]] = {}
        for tok in self.tokens:
            if tok.is_word:
                grouped.setdefault(tok.sentence_index, []).append(tok)
        return [grouped[idx] for idx in sorted(grouped)]


def _ends_abbreviation(text: str, end: int) -> bool:
    """True when the text ending at ``end`` spells a known abbreviation."""
    lowered = text[:end].lower()
    for abbr in ABBREVIATIONS:
        if not lowered.endswith(abbr):
            continue
        before = end - len(abbr)
        if before == 0 or not text[before - 1].isalnum():
            return True
    return False


def tokenize(text: str) -> TokenList:
    """Tokenize ``text`` and assign per-token sentence indices.

    Every non-whitespace character belongs to exactly one token, and
    ``text[t.start:t.end] == t.surface`` for every token, so the original
    text is recoverable from the token list plus the gaps between tokens
    (which are all whitespace).

    Example:
        >>> [t.surface for t in tokenize("The cat sat.").tokens]
        ['The', 'cat', 'sat', '.']
    """
    raw = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]

    boundary_after = []
    for surface, start in raw:
        end = start + len(surface)
        is_boundary = (
            surface in _SENTENCE_END
            and (end == len(text) or text[end].isspace())
            and not (surface == "." and _ends_abbreviation(text, end))
        )
        boundary_after.append(is_boundary)

    tokens: list[Token] = []
    sentence_index = 0
    seen_word_in_sentence = False
    for (surface, start), is_boundary in zip(raw, boundary_after):
        is_word = bool(_WORD_START_RE.match(surface))
        token = Token(
            surface=surface,
            start=start,
            is_word=is_word,
            is_numeric=bool(_NUMERIC_RE.match(surface)),
            is_capitalized=surface[:1].isupper(),
            sentence_index=sentence_index,
            is_sentence_initial=is_word and not seen_word_in_sentence,
        )
        tokens.append(token)
        if is_word:
            seen_word_in_sentence = True
        if is_boundary:
            sentence_index += 1
            seen_word_in_sentence = False
    return TokenList(text=text, tokens=tuple(tokens))


def split_sentences(text: str) -> int:
    """Number of sentences in ``text``: distinct sentence indices that
    contain at least one word token.  Per-token indices live on
    :func:`tokenize` output."""
    return tokenize(text).sentence_count()


def count_syllables(word: str) -> int:
    """Heuristic syllable count for a single word.

    Maximal ``aeiouy`` groups, minus a final silent ``e`` that forms its own
    group (kept when the ``e`` closes a consonant-``le`` cluster, as in
    "little"), floored at one.

    Example:
        >>> [count_syllables(w) for w in ("cat", "medicine", "understandability")]
        [1, 3, 7]
    """
    if not word or not any(ch.isalnum() for ch in word):
        raise ValueError(f"not a word: {word!r}")
    lowered = word.lower()
    groups = len(re.findall(r"[aeiouy]+", lowered))
    if (
        groups > 1
        and lowered.endswith("e")
        and len(lowered) >= 2
        and lowered[-2].isalpha()
        and lowered[-2] not in _VOWELS
        and not (
            lowered.endswith("le")
            and len(lowered) >= 3
            and lowered[-3].isalpha()
            and lowered[-3] not in _VOWELS
        )
    ):
        groups -= 1
    return max(1, groups)


def word_tokens(text: str, lowercase: bool = False) -> list[str]:
    """Word-token surfaces of ``text`` in order."""
    return tokenize(text).word_surfaces(lowercase=lowercase)


def extract_ngrams(tokens: Sequence[str], n: int) -> Counter[tuple[str, ...]]:
    """Multiset of case-folded ``n``-grams over a word-token sequence.

    Example:
        >>> extract_ngrams(["a", "a", "a"], 2)
        Counter({('a', 'a'): 2})
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lowered = [t.lower() for t in tokens]
    return Counter(
        tuple(lowered[i : i + n]) for i in range(len(lowered) - n + 1)
    )


def _entity_spans(
    tl: TokenList, sentence_position_aware: bool
) -> list[tuple[int, ...]]:
    """Indices (into ``tl.tokens``) of maximal capitalized-run spans."""

    def starts_span(tok: Token) -> bool:
        if not (tok.is_word and tok.is_capitalized):
            return False
        return not (sentence_position_aware and tok.is_sentence_initial)

    spans = []
    toks = tl.tokens
    i = 0
    while i < len(toks):
        if starts_span(toks[i]):
            j = i
            while (
                j + 1 < len(toks)
                and toks[j + 1].is_word
                and toks[j + 1].is_capitalized
                and toks[j + 1].sentence_index == toks[i].sentence_index
            ):
                j += 1
            spans.append(tuple(range(i, j + 1)))
            i = j + 1
        else:
            i += 1
    return spans


def _all_entity_token_indices(
    tl: TokenList, sentence_position_aware: bool
) -> tuple[list[tuple[int, ...]], set[int]]:
    """Entity spans plus single-token entity indices (rules R2 and R3)."""
    spans = _entity_spans(tl, sentence_position_aware)
    singles: set[int] = set()

    if sentence_position_aware:
        mid_sentence_caps = {
            t.surface
            for t in tl.tokens
            if t.is_word and t.is_capitalized and not t.is_sentence_initial
        }
        for idx, tok in enumerate(tl.tokens):
            if (
                tok.is_word
                and tok.is_capitalized
                and tok.is_sentence_initial
                and tok.surface in mid_sentence_caps
            ):
                singles.add(idx)

    for idx, tok in enumerate(tl.tokens):
        if tok.is_numeric:
            singles.add(idx)
    return spans, singles


def extract_entities(
    text: str, *, sentence_position_aware: bool = True
) -> set[str]:
    """Heuristic entity mentions in ``text``.

    Three rules: (1) maximal runs of capitalized word tokens that do not
    start a sentence, joined by single spaces; (2) sentence-initial
    capitalized tokens whose exact surface also appears capitalized
    mid-sentence somewhere in the text; (3) numeric tokens.

    ``sentence_position_aware=False`` drops the positional exclusion in rule
    (1) (rule (2) then adds nothing).  Use it for generated word sequences,
    where capitalization is meaningful but sentence position is not.

    Example:
        >>> sorted(extract_entities("Treated with Aspirin in 1999."))
        ['1999', 'Aspirin']
    """
    return set(
        entity_mentions(
            tokenize(text), sentence_position_aware=sentence_position_aware
        )
    )


def entity_mentions(
    tl: TokenList, *, sentence_position_aware: bool = True
) -> dict[str, tuple[str, ...]]:
    """The entity mentions of :func:`extract_entities` over a tokenized
    text, each mapped to ``word_tokens(mention)``.

    A mention is one token, or word tokens joined by single spaces, and a
    token re-tokenizes to itself on its own, so the word surfaces come from
    ``tl`` without tokenizing the mention again.  A numeric token that is
    not a word token (its first digit is not ASCII) has no word surfaces.
    """
    spans, singles = _all_entity_token_indices(tl, sentence_position_aware)
    mentions = {}
    for span in spans:
        words = tuple(tl.tokens[i].surface for i in span)
        mentions[" ".join(words)] = words
    for i in singles:
        tok = tl.tokens[i]
        mentions[tok.surface] = (tok.surface,) if tok.is_word else ()
    return mentions


def entity_word_positions(
    text: str, *, sentence_position_aware: bool = True
) -> set[int]:
    """Positions, counted over word tokens only, covered by entity mentions.

    Position ``i`` refers to the ``i``-th word token of ``text``.  Useful for
    mapping entity hits back onto a generated word sequence that was joined
    with spaces.
    """
    tl = tokenize(text)
    spans, singles = _all_entity_token_indices(tl, sentence_position_aware)
    covered = {i for span in spans for i in span}
    covered.update(singles)

    word_position = {}
    seen_words = 0
    for idx, tok in enumerate(tl.tokens):
        if tok.is_word:
            word_position[idx] = seen_words
            seen_words += 1
    return {word_position[i] for i in covered if i in word_position}


def contains_token_span(
    haystack: Sequence[str], needle: Iterable[str]
) -> bool:
    """True when ``needle`` occurs as a contiguous, case-insensitive run
    inside the token sequence ``haystack``."""
    hay = [t.lower() for t in haystack]
    need = [t.lower() for t in needle]
    if not need:
        return True
    if len(need) > len(hay):
        return False
    return any(
        hay[i : i + len(need)] == need
        for i in range(len(hay) - len(need) + 1)
    )
