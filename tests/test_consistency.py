"""Lexical scorer, precomputed scorer, consistency subscore, entity support."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import consistency_subscore_brute
from simpkit.consistency import (
    CONSISTENT_FLOOR,
    LexicalScorer,
    PrecomputedScorer,
    consistency_subscore,
    unsupported_entities,
)

_lexical = LexicalScorer().score

_WORDS = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=6
)


def test_lexical_identity_is_exactly_one():
    assert _lexical("the cat sat", "the cat sat") == 1.0
    assert _lexical("The Cat", "the cat") == 1.0  # case-folded


def test_lexical_frozen_value():
    assert math.isclose(
        _lexical("the cats", "the cat"), 0.7887, abs_tol=5e-5
    )


def test_lexical_disjoint_is_zero():
    assert _lexical("xyz", "qqq") == 0.0


def test_lexical_empty_source_scores_zero():
    assert _lexical("the cat", "...") == 0.0


def test_lexical_empty_candidate_raises():
    with pytest.raises(ValueError, match="no word tokens"):
        _lexical("...", "the cat")


@settings(max_examples=150)
@given(_WORDS, _WORDS)
def test_lexical_symmetric_and_bounded(a, b):
    scorer = LexicalScorer()
    left = scorer.score(" ".join(a), " ".join(b))
    right = scorer.score(" ".join(b), " ".join(a))
    assert left == right
    assert 0.0 <= left <= 1.0


@settings(max_examples=150)
@given(_WORDS)
def test_lexical_identity_property(words):
    text = " ".join(words)
    assert _lexical(text, text) == 1.0


def test_token_multiplicity_matters():
    # repeated matched tokens keep precision high, unmatched ones drag it
    good = _lexical("dose dose dose", "dose")
    bad = _lexical("dose dose qqq", "dose")
    assert good == 1.0
    assert bad < 1.0


def test_precomputed_scorer_lookup_and_errors(tmp_path):
    scorer = PrecomputedScorer({"the cat": 0.9})
    assert scorer.score("the cat", "anything") == 0.9
    with pytest.raises(KeyError, match="no precomputed score"):
        scorer.score("the dog", "anything")
    with pytest.raises(ValueError, match="out of range"):
        PrecomputedScorer({"x": 1.5})

    path = tmp_path / "scores.tsv"
    path.write_text("the cat\t0.75\nthe dog\t0.25\n", encoding="utf-8")
    loaded = PrecomputedScorer.from_file(str(path))
    assert loaded.score("the dog", "") == 0.25

    bad = tmp_path / "bad.tsv"
    bad.write_text("the cat\t2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        PrecomputedScorer.from_file(str(bad))


def test_precomputed_scores_at_the_range_edges_are_accepted(tmp_path):
    scorer = PrecomputedScorer({"lo": 0.0, "hi": 1.0})
    assert (scorer.score("lo", ""), scorer.score("hi", "")) == (0.0, 1.0)
    path = tmp_path / "edges.tsv"
    path.write_text("lo\t0.0\nhi\t1.0\n", encoding="utf-8")
    loaded = PrecomputedScorer.from_file(str(path))
    assert (loaded.score("lo", ""), loaded.score("hi", "")) == (0.0, 1.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("the cat\tabc\n", "line 1: bad score 'abc'"),
        ("the cat\t0.5\nthe dog\tabc\n", "line 2: bad score 'abc'"),
        ("the cat\t0.5\nthe dog\t1.5\n", "line 2: score out of range"),
        ("the cat\t0.5\nthe dog\n", "line 2: expected key<TAB>score"),
    ],
)
def test_scores_file_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "scores.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        PrecomputedScorer.from_file(str(path))
    assert str(info.value).startswith(message)


def test_consistency_subscore_frozen():
    assert consistency_subscore(0.60) == 0.0
    assert consistency_subscore(0.5) == 0.0
    assert math.isclose(consistency_subscore(0.84), 0.6, abs_tol=1e-12)
    assert consistency_subscore(1.0) == 1.0
    assert CONSISTENT_FLOOR == 0.60


def test_consistency_subscore_rejects_out_of_range():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            consistency_subscore(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_consistency_subscore_rejects_values_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="must be finite"):
        consistency_subscore(bad)


@settings(max_examples=300)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_consistency_subscore_matches_branches_and_is_monotone(f_b):
    value = consistency_subscore(f_b)
    assert value == consistency_subscore_brute(f_b)
    assert 0.0 <= value <= 1.0
    if f_b <= 0.99:
        assert consistency_subscore(f_b + 0.01) >= value


def test_unsupported_entities_extraction_mode():
    # "Aspirin" appears mid-sentence in the candidate and not in the source
    assert unsupported_entities(
        "They took Aspirin today.", "they took a pill today"
    ) == {"Aspirin"}
    # supported mentions match case-insensitively and contiguously
    assert (
        unsupported_entities(
            "They took Aspirin today.", "the aspirin dose was fine"
        )
        == set()
    )
    # multiword entities need a contiguous source run
    assert unsupported_entities(
        "We saw John Smith there.", "smith met john yesterday"
    ) == {"John Smith"}
    assert (
        unsupported_entities(
            "We saw John Smith there.", "john smith was seen"
        )
        == set()
    )


def test_unsupported_entities_external_list():
    found = unsupported_entities(
        "irrelevant", "the aspirin dose", candidate_entities=["Aspirin", "Advil"]
    )
    assert found == {"Advil"}
    assert (
        unsupported_entities("irrelevant", "anything", candidate_entities=[])
        == set()
    )


@pytest.mark.parametrize(
    "candidate, source, want",
    [
        ("the cat 3", "the cat", {"3"}),
        ("the cat ٣", "the cat", {"٣"}),
        ("the cat ٣", "cat ٣ here", set()),
        ("the cat ٣.٤", "the cat ٣", {"٣.٤"}),
    ],
)
def test_a_numeral_without_word_tokens_needs_the_same_numeral_in_the_source(
    candidate, source, want
):
    # "٣" starts with a digit that is not ASCII, so it has no word tokens
    # and only a numeric token of the source can support it
    assert unsupported_entities(candidate, source) == want
