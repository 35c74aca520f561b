"""Grade formulas, per-word FK weights, the readability subscore band."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import readability_subscore_brute
from simpkit.readability import (
    FkWeightTable,
    ari,
    flesch_kincaid,
    readability_subscore,
    word_fk,
)


def test_flesch_kincaid_frozen():
    assert math.isclose(
        flesch_kincaid("The cat sat on the mat."), -1.45, abs_tol=1e-9
    )
    assert math.isclose(flesch_kincaid("The cat sat."), -2.62, abs_tol=1e-9)
    # two sentences halve the words-per-sentence term
    assert math.isclose(
        flesch_kincaid("The cat sat. The dog ran."),
        0.39 * 3 + 11.8 * 1 - 15.59,
        abs_tol=1e-9,
    )


def test_flesch_kincaid_longer_words_raise_grade():
    assert flesch_kincaid("comprehensive hemorrhage evaluation") > flesch_kincaid(
        "the quick brown fox"
    )


def test_ari_frozen():
    assert math.isclose(
        ari("The cat sat on the mat."), -5.085, abs_tol=1e-9
    )
    assert math.isclose(ari("a"), -16.22, abs_tol=1e-9)


def test_ari_counts_only_word_characters():
    # punctuation contributes no characters
    assert ari("cat, mat.") == ari("cat mat")


def test_grade_errors_without_words():
    with pytest.raises(ValueError):
        flesch_kincaid("...")
    with pytest.raises(ValueError):
        ari("")


def test_word_fk_frozen():
    assert word_fk("cat") == 0.0
    assert math.isclose(word_fk("hemorrhage"), 20.2, abs_tol=1e-9)
    assert math.isclose(word_fk("understandability"), 67.4, abs_tol=1e-9)
    assert word_fk("the") == 0.0


def test_readability_subscore_band():
    assert readability_subscore(3.0) == 1.0
    assert readability_subscore(12.0) == 0.5
    assert readability_subscore(22.0) == 0.0
    assert readability_subscore(4.0) == 1.0
    assert readability_subscore(20.0) == 0.0
    with pytest.raises(ValueError):
        readability_subscore(float("nan"))


@settings(max_examples=300)
@given(st.floats(min_value=-30.0, max_value=50.0, allow_nan=False))
def test_readability_subscore_matches_branches_and_is_monotone(f_f):
    value = readability_subscore(f_f)
    assert value == readability_subscore_brute(f_f)
    assert 0.0 <= value <= 1.0
    assert readability_subscore(f_f + 1.0) <= value


def test_weight_table_build_and_lookup():
    table = FkWeightTable.for_vocab(["cat", "hemorrhage", "</s>"])
    assert table["cat"] == 0.0
    assert math.isclose(table["hemorrhage"], 20.2, abs_tol=1e-9)
    assert table["</s>"] == 0.0  # markers carry no weight
    assert "cat" in table and "dog" not in table
    assert len(table) == 3
    with pytest.raises(KeyError, match="no FK weight"):
        table["dog"]


def test_weight_table_validation():
    with pytest.raises(ValueError):
        FkWeightTable({"": 1.0})
    with pytest.raises(ValueError):
        FkWeightTable({"cat": -0.5})
    with pytest.raises(ValueError):
        FkWeightTable({"cat": float("inf")})


def test_weight_table_round_trip(tmp_path):
    table = FkWeightTable.for_vocab(["cat", "medicine", "hemorrhage"])
    path = str(tmp_path / "weights.tsv")
    table.save(path)
    loaded = FkWeightTable.load(path)
    assert dict(loaded.items()) == dict(table.items())


def test_weight_table_load_rejects_garbage(tmp_path):
    path = tmp_path / "weights.tsv"
    path.write_text("cat\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad weight"):
        FkWeightTable.load(str(path))
