"""Tokenizer, sentence boundaries, syllables, entity heuristics."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _entities_ref
from simpkit import textseg
from simpkit.textseg import (
    ABBREVIATIONS,
    Token,
    contains_token_span,
    count_syllables,
    entity_mentions,
    entity_word_positions,
    extract_entities,
    tokenize,
    word_tokens,
)

# Printable ASCII plus tab and newline; avoids exotic whitespace classes.
_ALPHABET = [chr(c) for c in range(32, 127)] + ["\t", "\n"]


def test_token_surfaces():
    assert [t.surface for t in tokenize("The cat sat.").tokens] == [
        "The", "cat", "sat", ".",
    ]


def test_decimal_numerals_stay_single_tokens():
    toks = tokenize("score 0.73 and 3.5.1 ok").tokens
    assert [(t.surface, t.is_numeric, t.is_word) for t in toks] == [
        ("score", False, True),
        ("0.73", True, True),
        ("and", False, True),
        ("3.5.1", True, True),
        ("ok", False, True),
    ]
    # the internal decimal point never ends a sentence
    assert tokenize("It was 0.73 then.").sentence_count() == 1


def test_apostrophe_and_hyphen_words():
    assert word_tokens("don't use state-of-the-art kit") == [
        "don't", "use", "state-of-the-art", "kit",
    ]


def test_punctuation_single_character_tokens():
    toks = tokenize("a,b").tokens
    assert [t.surface for t in toks] == ["a", ",", "b"]
    assert [t.is_word for t in toks] == [True, False, True]


def test_sentence_counts():
    assert tokenize("The cat sat. The dog ran.").sentence_count() == 2
    assert tokenize("One! Two? Three.").sentence_count() == 3
    assert tokenize("no terminal punctuation").sentence_count() == 1
    assert tokenize("a.b").sentence_count() == 1
    # trailing wordless punctuation opens no countable sentence
    assert tokenize("Stop. !!!").sentence_count() == 1
    assert tokenize("").sentence_count() == 0


def test_abbreviations_suppress_boundaries():
    assert "dr." in ABBREVIATIONS and "etc." not in ABBREVIATIONS
    assert tokenize("Dr. Smith arrived. He left.").sentence_count() == 2
    assert tokenize("See e.g. the chart for details.").sentence_count() == 1
    assert tokenize("Results from Lee et al. support this.").sentence_count() == 1
    # "etc." deliberately ends sentences
    assert tokenize("They ate cake, etc. Then they left.").sentence_count() == 2
    # suffix matches need their own word boundary: "coral." is not "al."
    assert tokenize("We saw coral. Reefs are nice.").sentence_count() == 2


@settings(max_examples=200)
@given(st.text(alphabet=_ALPHABET, max_size=80))
def test_token_offsets_reconstruct_text(text):
    tl = tokenize(text)
    covered = set()
    for tok in tl.tokens:
        assert tl.text[tok.start : tok.end] == tok.surface
        covered.update(range(tok.start, tok.end))
    for i, ch in enumerate(text):
        assert (i in covered) == (not ch.isspace())


@settings(max_examples=200)
@given(st.text(alphabet=_ALPHABET, max_size=80))
def test_sentence_indices_nondecreasing(text):
    indices = [t.sentence_index for t in tokenize(text).tokens]
    assert indices == sorted(indices)


def test_count_syllables_frozen_values():
    expected = {
        "cat": 1,
        "medicine": 3,
        "understandability": 7,
        "table": 2,
        "ale": 1,
        "whale": 1,
        "little": 2,
        "hemorrhage": 3,
        "rhythm": 1,
        "queue": 1,
    }
    for word, count in expected.items():
        assert count_syllables(word) == count, word


def test_count_syllables_numerals_and_errors():
    assert count_syllables("123") == 1
    # twice each: the memoized count caches no error
    for bad in ("", ".", "...", "?!", "--") * 2:
        with pytest.raises(ValueError, match="not a word"):
            count_syllables(bad)


@settings(max_examples=200)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_count_syllables_positive_and_case_insensitive(word):
    count = count_syllables(word)
    assert count >= 1
    assert count_syllables(word.upper()) == count


def test_extract_entities_frozen_cases():
    assert extract_entities("Treated with Aspirin in 1999.") == {"Aspirin", "1999"}
    # sentence-initial capitalization alone is not evidence
    assert extract_entities("Aspirin helps people.") == set()
    # unless the same surface also appears capitalized mid-sentence
    assert extract_entities("Aspirin helps. Take Aspirin daily.") == {"Aspirin"}
    assert extract_entities("We met John Smith today.") == {"John Smith"}
    # runs do not cross sentence boundaries
    assert extract_entities("We saw Ann. Smith came.") == {"Ann"}
    assert extract_entities("Take 500 mg now.") == {"500"}
    assert extract_entities("The dose was 0.5 units.") == {"0.5"}


def test_extract_entities_position_blind_mode():
    assert extract_entities(
        "Aspirin helps people.", sentence_position_aware=False
    ) == {"Aspirin"}
    assert extract_entities(
        "aspirin helps people.", sentence_position_aware=False
    ) == set()


def test_entity_word_positions():
    assert entity_word_positions("He met John Smith in 1999.") == {2, 3, 5}
    assert entity_word_positions(
        "Take Aspirin with Advil daily", sentence_position_aware=False
    ) == {0, 1, 3}
    assert entity_word_positions("plain lowercase words here") == set()


# Names, "Dr. Smith", commas that break capitalized runs, plain words and
# numerals, including a non-ASCII digit that is numeric but no word token.
_ENTITY_PIECES = (
    "Smith", "John", "New", "York", "Aspirin", "Lee", "Dr. Smith", "Dr.",
    "Smith,", "York,", ",", "the", "cat", "gave", "saw", "in",
    "3.5.1", "0.73", "12", "٣", "e.g.", "Émile",
)
_ENTITY_SENTENCE = st.one_of(
    st.lists(st.sampled_from(_ENTITY_PIECES), min_size=1, max_size=8),
    # a sentence-initial name repeated mid-sentence
    st.builds(
        lambda name, middle: [name, *middle, name],
        st.sampled_from(("Smith", "Aspirin", "New", "Lee")),
        st.lists(st.sampled_from(_ENTITY_PIECES), max_size=4),
    ),
).map(" ".join)
_ENTITY_TEXT = st.lists(
    st.tuples(_ENTITY_SENTENCE, st.sampled_from((".", "!", "?", ""))),
    min_size=1,
    max_size=4,
).map(lambda sentences: " ".join(s + end for s, end in sentences))


@settings(max_examples=300, deadline=None)
@given(_ENTITY_TEXT, st.booleans())
def test_entity_functions_equal_the_rule_reference(text, aware):
    ref = _entities_ref(text, aware)
    mentions = {mention for mention, _ in ref}
    assert extract_entities(text, sentence_position_aware=aware) == mentions
    assert set(
        entity_mentions(tokenize(text), sentence_position_aware=aware)
    ) == mentions
    covered = entity_word_positions(text, sentence_position_aware=aware)
    assert covered == {p for _, positions in ref for p in positions}
    if not aware:
        words = tokenize(text).words()
        assert covered == {
            i for i, t in enumerate(words) if t.is_capitalized or t.is_numeric
        }


def test_contains_token_span():
    assert contains_token_span(["the", "Cat"], ["cat"])
    assert contains_token_span(["a", "b", "c"], ["b", "c"])
    assert not contains_token_span(["a", "b", "c"], ["a", "c"])
    assert not contains_token_span(["a"], ["a", "b"])
    assert contains_token_span([], [])
    assert contains_token_span(["x"], [])


# ------------------------------------------- one-pass tokenizer vs reference


def _ends_abbreviation_ref(text, end):
    lowered = text[:end].lower()
    for abbr in ABBREVIATIONS:
        if not lowered.endswith(abbr):
            continue
        before = end - len(abbr)
        if before == 0 or not text[before - 1].isalnum():
            return True
    return False


def _tokenize_ref(text):
    """The two-pass tokenizer as first written, one field tuple per token:
    (surface, start, is_word, is_numeric, is_capitalized, sentence_index,
    is_sentence_initial)."""
    raw = [(m.group(), m.start()) for m in textseg._TOKEN_RE.finditer(text)]
    boundary_after = []
    for surface, start in raw:
        end = start + len(surface)
        boundary_after.append(
            surface in ".!?"
            and (end == len(text) or text[end].isspace())
            and not (surface == "." and _ends_abbreviation_ref(text, end))
        )
    tokens = []
    sentence_index = 0
    seen_word_in_sentence = False
    for (surface, start), is_boundary in zip(raw, boundary_after):
        is_word = bool(re.match(r"[A-Za-z0-9]", surface))
        tokens.append((
            surface,
            start,
            is_word,
            bool(re.match(r"\d+(?:\.\d+)*\Z", surface)),
            surface[:1].isupper(),
            sentence_index,
            is_word and not seen_word_in_sentence,
        ))
        if is_word:
            seen_word_in_sentence = True
        if is_boundary:
            sentence_index += 1
            seen_word_in_sentence = False
    return tokens


_PIECES = (
    # abbreviations, with and without a capital, and "etc." which is not one
    "e.g.", "E.g.", "i.e.", "Dr.", "dr.", "Mrs.", "al.", "et al.", "vs.",
    "approx.", "etc.", "coral.", "No.", "fig.",
    # decimals, dotted numerals, and non-ASCII digits
    "0.73", "3.5.1", "12", "1999.", "٣", "٣.٥", "3.٥", "٣٣",
    # apostrophe and hyphen words, letters outside ASCII
    "don't", "it’s", "state-of-the-art", "x-", "-y", "Émile", "naïve",
    # plain words
    "The", "cat", "sat", "Smith", "York", "a", "B",
    # punctuation, alone and in runs
    ".", "!", "?", ",", ";", "...", "?!", "!!!", ".\"", "(", ")", "'", "-",
)
_SEPARATORS = st.sampled_from(["", " ", "  ", "\n", "\t", " \n "])
_TEXTS = st.builds(
    lambda lead, parts, trail: lead + "".join(parts) + trail,
    _SEPARATORS,
    st.lists(
        st.tuples(st.sampled_from(_PIECES), _SEPARATORS).map("".join),
        max_size=16,
    ),
    _SEPARATORS,
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_TEXTS, st.text(alphabet=_ALPHABET, max_size=60)))
def test_tokenize_equals_two_pass_reference(text):
    got = tokenize(text)
    want = _tokenize_ref(text)
    assert got.text == text
    assert len(got.tokens) == len(want)
    for tok, ref in zip(got.tokens, want):
        assert isinstance(tok, Token)
        for field, value in zip(Token._fields, ref):
            assert getattr(tok, field) == value, (field, tok)
        assert tok.end == ref[1] + len(ref[0])


# Characters whose lower case is ASCII (Kelvin sign), longer than one
# character (dotted capital I), or depends on what follows (capital sigma).
_CASE_TRAPS = ["\u212a", "\u0130", "\u03a3", "\u00df", "\u017f", "\ufb03"]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_PIECES + tuple(_CASE_TRAPS)),
            st.text(alphabet="abegilmnoprsvx.I" + "".join(_CASE_TRAPS), max_size=6),
        ),
        max_size=12,
    ).map("".join)
)
def test_ends_abbreviation_equals_whole_prefix_reference(text):
    """Only the last max(len(abbr)) characters are lower-cased; the result
    equals lower-casing all of ``text[:end]`` at every period."""
    for end in range(1, len(text) + 1):
        if text[end - 1] == ".":
            assert textseg._ends_abbreviation(
                text, end
            ) == _ends_abbreviation_ref(text, end), (text, end)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXTS, st.text(max_size=40)), st.booleans())
def test_word_tokens_equals_tokenize_word_surfaces(text, lowercase):
    assert word_tokens(text, lowercase=lowercase) == tokenize(
        text
    ).word_surfaces(lowercase=lowercase)


def test_token_is_an_immutable_named_tuple():
    tok = tokenize("Hi").tokens[0]
    assert tok == Token("Hi", 0, True, False, True, 0, True)
    assert tok.end == 2
    with pytest.raises(AttributeError):
        tok.surface = "Ho"


@settings(max_examples=300)
@given(st.one_of(
    st.sampled_from(_PIECES),
    st.text(alphabet="aeiouyAEYlbcst-'9", min_size=1, max_size=12),
))
def test_cached_count_syllables_equals_uncached(word):
    uncached = count_syllables.__wrapped__
    try:
        want = uncached(word)
    except ValueError:
        for _ in range(2):
            with pytest.raises(ValueError, match="not a word"):
                count_syllables(word)
        return
    assert count_syllables(word) == want
    assert count_syllables(word) == want
