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
  mid-sentence, and numeric tokens.  One function, ``_entity_token_spans``,
  applies these rules; :func:`entity_mentions`, :func:`extract_entities` and
  :func:`entity_word_positions` all read its spans.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "ABBREVIATIONS",
    "Token",
    "TokenList",
    "tokenize",
    "count_syllables",
    "word_tokens",
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

# A token is a word token when its first character is an ASCII letter or
# digit.
_WORD_START = frozenset(string.ascii_letters + string.digits)

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
_ABBR_MAX = max(map(len, ABBREVIATIONS))

_VOWELS = frozenset("aeiouy")

_SENTENCE_END = frozenset(".!?")


class Token(NamedTuple):
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
    # Lower-casing maps each character to one or more characters (context
    # only picks between the two non-ASCII lower sigmas), so the last
    # _ABBR_MAX characters decide every match against these ASCII suffixes.
    lowered = text[max(0, end - _ABBR_MAX) : end].lower()
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
    tokens: list[Token] = []
    append = tokens.append
    text_len = len(text)
    sentence_index = 0
    seen_word_in_sentence = False
    for match in _TOKEN_RE.finditer(text):
        surface = match.group()
        start = match.start()
        first = surface[0]
        is_word = first in _WORD_START
        append(
            Token(
                surface,
                start,
                is_word,
                _NUMERIC_RE.match(surface) is not None,
                first.isupper(),
                sentence_index,
                is_word and not seen_word_in_sentence,
            )
        )
        if is_word:
            seen_word_in_sentence = True
        elif surface in _SENTENCE_END:
            # A sentence-ending mark is a one-character non-word token.
            end = start + 1
            if (end == text_len or text[end].isspace()) and not (
                surface == "." and _ends_abbreviation(text, end)
            ):
                sentence_index += 1
                seen_word_in_sentence = False
    return TokenList(text=text, tokens=tuple(tokens))


@lru_cache(maxsize=4096)
def count_syllables(word: str) -> int:
    """Heuristic syllable count for a single word.

    Maximal ``aeiouy`` groups, minus a final silent ``e`` that forms its own
    group (kept when the ``e`` closes a consonant-``le`` cluster, as in
    "little"), floored at one.  Counts are memoized for the 4,096 most
    recently used words; a non-word raises ``ValueError`` on every call.

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
    """Word-token surfaces of ``text`` in order, the same as
    ``tokenize(text).word_surfaces(lowercase)``: whether a token is a word
    depends on its first character alone, so no :class:`Token` is built."""
    surfaces = [s for s in _TOKEN_RE.findall(text) if s[0] in _WORD_START]
    if lowercase:
        return [s.lower() for s in surfaces]
    return surfaces


def _entity_token_spans(
    tl: TokenList, sentence_position_aware: bool
) -> list[tuple[int, ...]]:
    """Indices (into ``tl.tokens``) of each entity mention, by the three
    rules of :func:`extract_entities`: the capitalized runs of rule 1
    first, then the single tokens of rules 2 and 3."""

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

    if sentence_position_aware:
        mid_sentence_caps = {
            t.surface
            for t in toks
            if t.is_word and t.is_capitalized and not t.is_sentence_initial
        }
        spans.extend(
            (idx,)
            for idx, tok in enumerate(toks)
            if tok.is_word
            and tok.is_capitalized
            and tok.is_sentence_initial
            and tok.surface in mid_sentence_caps
        )
    spans.extend((idx,) for idx, tok in enumerate(toks) if tok.is_numeric)
    return spans


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
    mentions = {}
    for span in _entity_token_spans(tl, sentence_position_aware):
        toks = [tl.tokens[i] for i in span]
        mentions[" ".join(t.surface for t in toks)] = tuple(
            t.surface for t in toks if t.is_word
        )
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
    covered = {
        i
        for span in _entity_token_spans(tl, sentence_position_aware)
        for i in span
    }
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
