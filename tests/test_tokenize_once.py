"""Scoring and evaluation tokenize each text once, or not at all for plain
words, and still give the same numbers.

The references are the text-level formulas as first written: each metric
tokenizes its own inputs and the lexical scorer compares every token pair
directly.  The production path shares one token list per candidate, scores
a candidate of plain words from per-word facts, and prepares each source
text once; every value must be equal, not merely close.
"""

import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _score_candidate_ref, _unsupported_ref
from simpkit import rerank, textseg
from simpkit.consistency import (
    LexicalScorer,
    prepare_source,
    unsupported_entities,
)
from simpkit.corpus import Document
from simpkit.decoder import DecoderConfig, NGramLM, beam_search
from simpkit.readability import ari, flesch_kincaid
from simpkit.rerank import score_candidate
from simpkit.simpeval import (
    evaluate_corpus,
    fourgram_overlap,
    rouge_lsum,
    sari,
)
from simpkit.synthetic import make_examples
from simpkit.textseg import (
    count_syllables,
    entity_mentions,
    tokenize,
    word_tokens,
)

_POOL = (
    # plain words, including hyphenated and apostrophe forms
    "the", "cat", "sat", "dose", "medicine", "little", "nurse", "plan",
    "care", "state-of-the-art", "don't", "aspirin", "smith", "york",
    # capitalized names, some of which also occur in lower case above
    "Aspirin", "Smith", "John", "New", "York", "Advil", "The", "Lee",
    # numbers
    "3", "12", "0.73", "1999", "3.5.1",
    # abbreviations, whose periods do not end a sentence
    "Dr.", "e.g.", "i.e.", "vs.", "al.", "etc.",
    # punctuation
    ".", ",", "!", "?", ";", "-", "(", ")",
    # non-ASCII letters and digits, which never start a word token
    "Émile", "naïve", "٣", "٣.٤", "3.٤",
)
_WORD = st.one_of(
    st.sampled_from(_POOL),
    st.text(alphabet="aeTsnk9.", min_size=1, max_size=5),
)
_WORDS = st.lists(_WORD, max_size=12)
_SOURCE = _WORDS.map(" ".join)
_ENTITIES = st.one_of(st.none(), st.lists(st.sampled_from(_POOL), max_size=3))


# ---------------------------------------------------------------------------
# text-level references


def _trigram_similarity_ref(a, b):
    if a == b:
        return 1.0
    profiles = []
    for token in (a, b):
        padded = f"^{token}$"
        counts = Counter(padded[i : i + 3] for i in range(len(padded) - 2))
        profiles.append((counts, float(sum(c * c for c in counts.values()))))
    (counts_a, norm_a), (counts_b, norm_b) = profiles
    dot = sum(
        count * counts_b[gram]
        for gram, count in counts_a.items()
        if gram in counts_b
    )
    if dot == 0:
        return 0.0
    return min(1.0, max(0.0, dot / math.sqrt(norm_a * norm_b)))


def _lexical_ref(candidate, source):
    cand = word_tokens(candidate, lowercase=True)
    src = word_tokens(source, lowercase=True)
    if not src:
        return 0.0
    cand_kinds, src_kinds = set(cand), set(src)
    precision = sum(
        max(_trigram_similarity_ref(tok, other) for other in src_kinds)
        for tok in cand
    ) / len(cand)
    recall = sum(
        max(_trigram_similarity_ref(tok, other) for other in cand_kinds)
        for tok in src
    ) / len(src)
    if precision + recall == 0:
        return 0.0
    return min(1.0, max(0.0, 2 * precision * recall / (precision + recall)))


# ---------------------------------------------------------------------------
# equality with the references

_SHARED_SCORER = LexicalScorer()


@settings(max_examples=400, deadline=None)
@given(_WORDS, _SOURCE, st.booleans(), _ENTITIES)
def test_score_candidate_equals_text_level_reference(
    words, source, heuristic_on, entities
):
    got = score_candidate(
        words, source, _SHARED_SCORER, heuristic_on, candidate_entities=entities
    )
    want = _score_candidate_ref(
        words, source, _lexical_ref, heuristic_on, entities
    )
    for field in ("f_f", "f_b", "r_f", "r_b", "r", "hallucination_zeroed"):
        assert getattr(got, field) == getattr(want, field), field
    assert got == want


@pytest.mark.parametrize("candidate, source", [("aaaa", "aaa"), ("aaa", "aaaa")])
def test_a_repeated_trigram_scores_as_the_text_level_reference(candidate, source):
    """``^aaaa$`` holds the trigram ``aaa`` twice, so the dot product of the
    two profiles weighs it by both counts."""
    assert LexicalScorer().score(candidate, source) == _lexical_ref(
        candidate, source
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_SOURCE, min_size=2, max_size=4),
    st.lists(_WORDS.filter(lambda w: word_tokens(" ".join(w))), min_size=1,
             max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
             max_size=12),
)
def test_one_scorer_over_interleaved_sources_matches_fresh_ones(
    sources, candidates, order
):
    shared = LexicalScorer()
    for i, j in order:
        source = sources[i % len(sources)]
        candidate = " ".join(candidates[j % len(candidates)])
        got = shared.score(candidate, source)
        assert got == LexicalScorer().score(candidate, source)
        assert got == _lexical_ref(candidate, source)


@settings(max_examples=200, deadline=None)
@given(_SOURCE, _SOURCE)
def test_unsupported_entities_equals_reference(candidate, source):
    assert unsupported_entities(candidate, source) == _unsupported_ref(
        candidate, source, None
    )


@settings(max_examples=300, deadline=None)
@given(_SOURCE, st.booleans())
def test_entity_mention_words_are_their_own_tokenization(text, aware):
    mentions = entity_mentions(tokenize(text), sentence_position_aware=aware)
    for mention, words in mentions.items():
        assert list(words) == word_tokens(mention)


# ---------------------------------------------------------------------------
# plain words: scored from their words, equal to scoring their joined text

# Names that recur capitalized, their lower-case forms, numerals, and
# hyphen and apostrophe forms; every entry is one word token on its own.
_PLAIN_POOL = (
    "Smith", "John", "New", "York", "Aspirin", "Lee", "The",
    "smith", "york", "aspirin", "the", "saw", "gave", "medicine",
    "12", "0.73", "3", "1999", "3.5.1", "state-of-the-art", "don't",
)
_PLAIN_WORD = st.one_of(
    st.sampled_from(_PLAIN_POOL),
    st.from_regex(r"[A-Za-z0-9]{1,6}", fullmatch=True),
)
_PLAIN_WORDS = st.one_of(
    st.lists(_PLAIN_WORD, min_size=1, max_size=10),
    # a sentence-initial word repeated mid-sequence, as in "Smith saw Smith"
    st.builds(
        lambda first, middle, rest: [first, *middle, first, *rest],
        st.sampled_from(("Smith", "John", "New", "Aspirin", "The", "12")),
        st.lists(_PLAIN_WORD, max_size=3),
        st.lists(_PLAIN_WORD, max_size=3),
    ),
)
# Sources hold some of those words in another case.
_PLAIN_SOURCE = st.one_of(
    st.lists(
        st.builds(
            lambda word, case: case(word),
            _PLAIN_WORD,
            st.sampled_from((str, str.lower, str.upper, str.capitalize)),
        ),
        max_size=10,
    ).map(" ".join),
    _SOURCE,
)


@settings(max_examples=400, deadline=None)
@given(_PLAIN_WORDS, _PLAIN_SOURCE, st.booleans())
def test_plain_words_score_as_their_joined_text(words, source, heuristic_on):
    tl = tokenize(" ".join(words))
    assert [t.surface for t in tl.tokens] == words
    assert all(t.is_word and t.sentence_index == 0 for t in tl.tokens)
    assert [t.is_sentence_initial for t in tl.tokens] == [True] + [False] * (
        len(words) - 1
    )
    assert rerank._plain_facts(words) is not None
    got = score_candidate(words, source, _SHARED_SCORER, heuristic_on)
    want = _score_candidate_ref(words, source, _lexical_ref, heuristic_on)
    for field in ("f_f", "f_b", "r_f", "r_b", "r", "hallucination_zeroed"):
        assert getattr(got, field) == getattr(want, field), field
    assert got == want


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.sampled_from(
            _POOL + _PLAIN_POOL + ("", " cat", "cat ", "New York", "cat\n")
        ),
        st.text(alphabet="aZ9.-'’ \n٣é", max_size=6),
    )
)
def test_word_guard_accepts_exactly_one_word_token_equal_to_itself(word):
    tokens = tokenize(word).tokens
    plain = (
        len(tokens) == 1 and tokens[0].is_word and tokens[0].surface == word
    )
    facts = rerank._word_facts(word)
    assert (facts is not None) == plain
    if plain:
        tok = tokens[0]
        assert facts == (
            count_syllables(word),
            tok.is_capitalized,
            tok.is_numeric,
        )


def _eval_docs():
    return [
        Document(
            id=f"d{i}",
            input=ex.document.input,
            label=ex.document.label,
        )
        for i, ex in enumerate(make_examples(12))
    ] + [
        Document(
            id="long",
            input="Dr. Lee gave 0.73 mg, e.g. to John Smith. He was fine. "
            "Prof. Advil vs. New York!",
            label="Dr. Lee gave a small dose. He was fine.",
        ),
    ]


def test_evaluate_corpus_rows_equal_the_text_level_metrics():
    docs = _eval_docs()
    outputs = [d.label for d in docs[:-1]] + [
        "Dr. Lee gave 0.73 mg to Smith in New York. He was fine."
    ]
    scorer = LexicalScorer()
    report = evaluate_corpus(docs, outputs, scorer)
    for doc, output, (doc_id, row) in zip(docs, outputs, report.rows):
        assert doc_id == doc.id
        assert row.fk == flesch_kincaid(output)
        assert row.ari == ari(output)
        assert row.consistency == _lexical_ref(output, doc.input)
        assert row.sari == sari(doc.input, output, [doc.label])
        assert row.rouge_lsum == rouge_lsum(output, doc.label)
        assert row.fourgram == fourgram_overlap(output, doc.input)


# ---------------------------------------------------------------------------
# call-count guard


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Count ``tokenize`` calls made through any ``simpkit`` module."""
    original = textseg.tokenize
    calls = []

    def counting(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name != "simpkit" and not name.startswith("simpkit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    prepare_source.cache_clear()
    return calls


@pytest.mark.parametrize(
    "config",
    [
        DecoderConfig(beam_width=4, rerank_interval=5, max_length=20),
        DecoderConfig.vanilla(beam_width=4, max_length=20),
    ],
    ids=["rerank_k5", "vanilla"],
)
def test_beam_search_over_plain_words_tokenizes_only_the_source(
    tokenize_calls, config
):
    example = make_examples(1)[0]
    lm = NGramLM.train(example.training_texts, order=2)
    # the warm-up decode fills the per-word memo of every vocabulary word
    beam_search(lm, example.document.input, config)
    tokenize_calls.clear()
    prepare_source.cache_clear()
    result = beam_search(lm, example.document.input, config)
    assert result.scorer_calls >= 1
    # one preparation of the source for the decode; every candidate is a
    # sequence of plain words and is scored from them
    assert tokenize_calls == [example.document.input]


@pytest.mark.parametrize(
    "words, calls",
    [(["The", "cat", "sat"], 0), (["the", "Cat"], 1), (["the", "12"], 1)],
)
def test_plain_words_tokenize_only_when_an_entity_rule_can_fire(
    tokenize_calls, words, calls
):
    source = "the cat sat"
    # the warm-up call fills the per-word memo and prepares the source
    score_candidate(words, source, _SHARED_SCORER)
    tokenize_calls.clear()
    score_candidate(words, source, _SHARED_SCORER)
    assert tokenize_calls == [" ".join(words)] * calls


def test_evaluate_corpus_tokenizes_each_text_once(tokenize_calls):
    docs = _eval_docs()
    report = evaluate_corpus(docs, [d.label for d in docs], LexicalScorer())
    assert len(report.rows) == len(docs)
    # output, input and label once each; the lexical scorer reads the
    # output's words with word_tokens
    assert len(tokenize_calls) <= 3 * len(docs)
