"""Scoring and evaluation tokenize each text once and still give the same
numbers.

The references below are the text-level formulas as first written: each
metric tokenizes its own inputs and the lexical scorer compares every
token pair directly.  The production path shares one token list per
candidate and one prepared source per source text; every value must be
equal, not merely close.
"""

import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpkit import textseg
from simpkit.consistency import (
    LexicalScorer,
    consistency_subscore,
    prepare_source,
    unsupported_entities,
)
from simpkit.corpus import Document
from simpkit.decoder import DecoderConfig, NGramLM, beam_search
from simpkit.readability import (
    FK_BASE,
    FK_SYLLABLES_PER_WORD,
    FK_WORDS_PER_SENTENCE,
    ari,
    flesch_kincaid,
    readability_subscore,
)
from simpkit.rerank import BeamScore, composite_score, score_candidate
from simpkit.simpeval import (
    evaluate_corpus,
    fourgram_overlap,
    rouge_lsum,
    sari,
)
from simpkit.synthetic import make_examples
from simpkit.textseg import (
    contains_token_span,
    count_syllables,
    entity_mentions,
    extract_entities,
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


def _fk_ref(text):
    tl = tokenize(text)
    words = tl.words()
    syllables = sum(count_syllables(t.surface) for t in words)
    return (
        FK_WORDS_PER_SENTENCE * (len(words) / tl.sentence_count())
        + FK_SYLLABLES_PER_WORD * (syllables / len(words))
        + FK_BASE
    )


def _unsupported_ref(candidate, source, candidate_entities):
    if candidate_entities is None:
        entities = extract_entities(candidate)
    else:
        entities = set(candidate_entities)
    source_words = word_tokens(source, lowercase=True)
    return {
        e
        for e in entities
        if not contains_token_span(source_words, word_tokens(e))
    }


def _score_candidate_ref(words, source, heuristic_on, candidate_entities):
    text = " ".join(words)
    if not word_tokens(text):
        return BeamScore(
            f_f=0.0, f_b=0.0, r_f=readability_subscore(0.0), r_b=0.0, r=0.0
        )
    f_f = _fk_ref(text)
    f_b = _lexical_ref(text, source)
    r_f = readability_subscore(f_f)
    r_b = consistency_subscore(f_b)
    zeroed = bool(
        heuristic_on and _unsupported_ref(text, source, candidate_entities)
    )
    r = 0.0 if zeroed else composite_score(r_f, r_b)
    return BeamScore(
        f_f=f_f, f_b=f_b, r_f=r_f, r_b=r_b, r=r, hallucination_zeroed=zeroed
    )


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
    want = _score_candidate_ref(words, source, heuristic_on, entities)
    for field in ("f_f", "f_b", "r_f", "r_b", "r", "hallucination_zeroed"):
        assert getattr(got, field) == getattr(want, field), field
    assert got == want


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
def test_beam_search_tokenizes_each_candidate_at_most_twice(
    tokenize_calls, config
):
    example = make_examples(1)[0]
    lm = NGramLM.train(example.training_texts, order=2)
    tokenize_calls.clear()
    result = beam_search(lm, example.document.input, config)
    # the candidate once in score_candidate and once in the scorer, plus
    # one preparation of the source for the whole decode
    assert result.scorer_calls >= 1
    assert len(tokenize_calls) <= 2 * result.scorer_calls + 1


def test_evaluate_corpus_tokenizes_each_text_once(tokenize_calls):
    docs = _eval_docs()
    report = evaluate_corpus(docs, [d.label for d in docs], LexicalScorer())
    assert len(report.rows) == len(docs)
    # output, input and label once each, and the output again inside the
    # lexical scorer, which receives text
    assert len(tokenize_calls) <= 5 * len(docs)
