"""Scoring and evaluation tokenize each text once, or not at all for plain
words, and still give the same numbers.

The references are the text-level formulas as first written: each metric
tokenizes its own inputs and the lexical scorer compares every token pair
directly.  The production path shares one token list per candidate, scores
a candidate of plain words from per-word facts, and prepares each source
text once; every value must be equal, not merely close.
"""

import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _score_candidate_ref,
    _unsupported_ref,
    fourgram_overlap_brute,
    lcs_positions_brute,
    rouge_lsum_brute,
    sari_brute,
)
from simpkit import rerank, textseg
from simpkit.consistency import (
    LexicalScorer,
    PreparedSource,
    prepare_source,
    unsupported_entities,
)
from simpkit.corpus import Document
from simpkit.decoder import DecoderConfig, NGramLM, beam_search
from simpkit.readability import ari, flesch_kincaid
from simpkit.rerank import score_candidate
from simpkit.simpeval import (
    _leftmost_lcs_positions,
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


@settings(max_examples=300, deadline=None)
@given(_SOURCE, _WORDS)
def test_similarity_rows_are_the_reference_cosine_on_every_kind(source, words):
    prepared = PreparedSource(source)
    kinds = prepared.kinds
    tokens = word_tokens(" ".join(words), lowercase=True) + list(kinds)
    for token in tokens:
        row = prepared.similarities(token)
        # a row holds only kinds with a nonzero similarity; every kind it
        # leaves out has similarity 0.0
        assert set(row) <= set(range(len(kinds)))
        assert all(value > 0.0 for value in row.values())
        assert [row.get(k, 0.0) for k in range(len(kinds))] == [
            _trigram_similarity_ref(token, kind) for kind in kinds
        ]


def _consonant_source():
    """A source of 500 kinds: 498 three-letter words with no vowel, then
    ``cat`` and ``hat``."""
    consonants = "bcdfghjklmnpqrstvwxz"
    words = ["".join(w) for w in itertools.product(consonants, repeat=3)]
    return PreparedSource(" ".join(words[:498] + ["cat", "hat"]))


def test_a_token_sharing_no_trigram_stores_an_empty_row():
    prepared = _consonant_source()
    assert len(prepared.kinds) == 500
    assert prepared.similarities("ooo") == {}
    assert prepared._similarities["ooo"] == {}


def test_a_token_sharing_trigrams_with_two_kinds_stores_two_entries():
    prepared = _consonant_source()
    # "at" shares only the trigram "at$", with "cat" and "hat"
    row = prepared.similarities("at")
    assert set(row) == {498, 499}
    assert prepared._similarities["at"] == row
    assert row[498] == _trigram_similarity_ref("at", "cat")


def _mostly_own(prefix):
    """Words drawn mostly from a vocabulary of their own, sometimes from
    three words the other side can also hold."""
    own = st.integers(0, 30).map(lambda i: f"{prefix}{i}")
    return st.lists(
        st.one_of(own, own, own, st.sampled_from(("a", "b", "c"))),
        max_size=12,
    )


@settings(max_examples=300, deadline=None)
@given(_mostly_own("r"), _mostly_own("o"))
def test_lcs_positions_over_mostly_unshared_words_equal_the_brute_force(
    ref, cand
):
    assert _leftmost_lcs_positions(ref, cand) == lcs_positions_brute(ref, cand)


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


_LONG_NAMES = (
    "Dr. Lee", "John Smith", "Prof. Adams", "Mary Chen", "New York", "Advil",
    "Aspirin", "St. Jude", "Fig. 3", "No. 12",
)
_LONG_SOURCE = (
    "{a} gave {x} mg of {b}, e.g. after a meal, to the patients in the ward "
    "at {y} p.m. on most days of the long and difficult trial.",
    "The measured dose was approx. {x} times the usual one, i.e. much higher "
    "than {c} had advised in the report of {z} to the board.",
    "Compared with {b} vs. a placebo, the effect grew by {y} percent over "
    "the first {z} weeks, cf. the results that {a} published.",
    "Most of the staff at {c} said that the new plan was safe, and the nurses "
    "agreed with {a} that the care was good.",
    "In {z} the team met {c} again to check the figures of the study, and "
    "they found that {x} of the samples were lost.",
    "After that, {b} was given to every patient who had a fever above {y} "
    "degrees, as {a} and {c} had planned together.",
    "The final report, written by {a}, lists {x} side effects and {z} cases "
    "where the dose of {b} was too high for a child.",
)
_LONG_LABEL = (
    "{a} gave {b} to the patients.",
    "The dose was {x} times too high.",
    "{b} worked better than a placebo.",
    "The staff said the plan was safe.",
    "Some samples were lost.",
    "The report lists {x} side effects.",
)


def _long_documents(count, seed):
    """Documents whose sources run to more than 100 words over seven long
    sentences with abbreviations, decimals and names, with references of
    short sentences and outputs that mix both."""
    rng = random.Random(seed)
    docs, outputs = [], []
    for k in range(count):
        slots = {
            "a": rng.choice(_LONG_NAMES),
            "b": rng.choice(_LONG_NAMES),
            "c": rng.choice(_LONG_NAMES),
            "x": f"{rng.randint(0, 99)}.{rng.randint(0, 99)}",
            "y": str(rng.randint(2, 999)),
            "z": str(rng.randint(1900, 2024)),
        }
        source = [s.format(**slots) for s in _LONG_SOURCE]
        label = [s.format(**slots) for s in _LONG_LABEL]
        clipped = " ".join(rng.choice(source).split()[:9]) + "."
        output = [
            rng.choice(label),
            clipped,
            f"{rng.choice(_LONG_NAMES)} saw {rng.randint(0, 9)}.5 cases.",
            rng.choice(label).replace("the", rng.choice(("a", "one", "the"))),
        ]
        rng.shuffle(output)
        docs.append(
            Document(id=f"long{k}", input=" ".join(source), label=" ".join(label))
        )
        outputs.append(" ".join(output))
    return docs, outputs


def test_evaluate_corpus_on_long_documents_equals_the_brute_force_metrics():
    docs, outputs = _long_documents(40, seed=5)
    assert len({d.input for d in docs}) > 32
    assert all(len(word_tokens(d.input)) > 100 for d in docs)
    want = [
        (
            _lexical_ref(output, doc.input),
            sari_brute(doc.input, output, [doc.label]),
            rouge_lsum_brute(output, doc.label),
            fourgram_overlap_brute(output, doc.input),
        )
        for doc, output in zip(docs, outputs)
    ]
    scorer = LexicalScorer()
    # 40 sources cycle through the 32-entry prepare_source cache, so the
    # second run prepares every source again
    for _ in range(2):
        report = evaluate_corpus(docs, outputs, scorer)
        got = [
            (row.consistency, row.sari, row.rouge_lsum, row.fourgram)
            for _, row in report.rows
        ]
        assert got == want


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
