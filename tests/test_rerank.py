"""Composite score, candidate scoring, beam ranking order."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import composite_brute
from simpkit.consistency import LexicalScorer, PrecomputedScorer
from simpkit.rerank import (
    BeamScore,
    RankedBeam,
    composite_score,
    rank_beams,
    score_candidate,
)

_UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_composite_frozen_values():
    assert composite_score(0.0, 0.0) == 0.0
    assert composite_score(1.0, 1.0) == 1.0
    assert math.isclose(composite_score(0.8, 0.2), 0.1024, abs_tol=1e-12)
    assert composite_score(1.0, 0.0) == 0.0
    assert composite_score(0.0, 1.0) == 0.0


def test_composite_rejects_out_of_range():
    for bad in ((1.5, 0.5), (-0.1, 0.5), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            composite_score(*bad)


@settings(max_examples=300)
@given(_UNIT, _UNIT)
def test_composite_matches_branches_and_bounds(r_f, r_b):
    value = composite_score(r_f, r_b)
    assert value == composite_brute(r_f, r_b)
    assert 0.0 <= value <= 1.0
    assert value <= max(r_f, r_b)
    assert composite_score(r_b, r_f) == value


@settings(max_examples=200)
@given(_UNIT, _UNIT, _UNIT)
def test_composite_monotone_in_each_argument(r_f, r_b, bump):
    higher = min(1.0, r_b + bump)
    # slop covers last-ulp rounding of the two separate evaluations
    assert composite_score(r_f, higher) >= composite_score(r_f, r_b) - 1e-12


def test_score_candidate_simple_supported():
    score = score_candidate(
        ("the", "cat", "sat"), "the cat sat", LexicalScorer()
    )
    assert score.f_b == 1.0
    assert score.r_b == 1.0
    assert score.r_f == 1.0  # grade well below the simple band edge
    assert score.r == 1.0
    assert not score.hallucination_zeroed


def test_score_candidate_empty_sequence():
    scorer = LexicalScorer()
    score = score_candidate((), "the cat", scorer)
    assert score == BeamScore(f_f=0.0, f_b=0.0, r_f=1.0, r_b=0.0, r=0.0)


def test_score_candidate_hallucination_zeroing():
    scorer = PrecomputedScorer({"took Aspirin today": 1.0})
    words = ("took", "Aspirin", "today")
    zeroed = score_candidate(words, "took a pill today", scorer)
    assert zeroed.hallucination_zeroed
    assert zeroed.r == 0.0
    assert zeroed.r_b == 1.0  # subscores keep their real values

    kept = score_candidate(words, "took a pill today", scorer, heuristic_on=False)
    assert not kept.hallucination_zeroed
    assert kept.r > 0.0


def test_score_candidate_supported_entity_not_zeroed():
    scorer = PrecomputedScorer({"took Aspirin today": 1.0})
    score = score_candidate(
        ("took", "Aspirin", "today"), "the aspirin dose", scorer
    )
    assert not score.hallucination_zeroed


def test_score_candidate_zeroes_an_unsupported_numeral_without_word_tokens():
    words = ("the", "cat", "٣")
    zeroed = score_candidate(words, "the cat", LexicalScorer())
    assert zeroed.hallucination_zeroed
    assert zeroed.r == 0.0
    kept = score_candidate(words, "cat ٣ here", LexicalScorer())
    assert not kept.hallucination_zeroed


def test_rank_beams_orders_by_composite_then_log_prob():
    scorer = PrecomputedScorer({"good one": 0.9, "bad one": 0.5, "also good": 0.9})
    beams = [
        (("bad", "one"), -0.1),
        (("good", "one"), -2.0),
        (("also", "good"), -1.0),
    ]
    ranked = rank_beams(beams, "ignored", scorer, heuristic_on=False)
    # equal composite: higher log-prob first; zero-credit beam last
    assert [rb.words for rb in ranked] == [
        ("also", "good"),
        ("good", "one"),
        ("bad", "one"),
    ]
    assert ranked[0].score.r == ranked[1].score.r > 0.0
    assert ranked[2].score.r == 0.0


def test_rank_beams_final_ties_break_short_then_lexicographic():
    scorer = PrecomputedScorer({"bb": 0.5, "ba": 0.5, "ba ba": 0.5})
    beams = [
        (("bb",), -1.0),
        (("ba", "ba"), -1.0),
        (("ba",), -1.0),
    ]
    ranked = rank_beams(beams, "src", scorer, heuristic_on=False)
    assert [rb.words for rb in ranked] == [("ba",), ("bb",), ("ba", "ba")]


def test_rank_beams_top_n_and_errors():
    scorer = LexicalScorer()
    beams = [(("a",), -1.0), (("b",), -2.0), (("c",), -3.0)]
    assert len(rank_beams(beams, "a", scorer, top_n=2)) == 2
    with pytest.raises(ValueError, match="at least one beam"):
        rank_beams([], "a", scorer)
    with pytest.raises(ValueError, match="top_n"):
        rank_beams(beams, "a", scorer, top_n=0)


@settings(max_examples=100)
@given(st.floats(min_value=0.61, max_value=0.99))
def test_rank_beams_monotone_in_consistency(f_b):
    """A strictly better consistency score never ranks behind a worse one."""
    scorer = PrecomputedScorer({"cat sat": f_b, "cat ran": min(1.0, f_b + 0.01)})
    ranked = rank_beams(
        [(("cat", "sat"), -1.0), (("cat", "ran"), -1.0)],
        "unused",
        scorer,
        heuristic_on=False,
    )
    assert ranked[0].words == ("cat", "ran")


def test_rank_beams_applies_the_heuristic_by_default():
    beams = [(("the", "cat", "Aspirin"), -1.0)]
    scorer = LexicalScorer()
    assert rank_beams(beams, "the cat", scorer)[0].score.hallucination_zeroed
    ranked = rank_beams(beams, "the cat", scorer, heuristic_on=False)
    assert not ranked[0].score.hallucination_zeroed


def test_scores_and_ranked_beams_are_frozen():
    score = BeamScore(f_f=0.0, f_b=0.0, r_f=1.0, r_b=0.0, r=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        score.r = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        RankedBeam(("a",), -1.0, score).log_prob = 0.0
