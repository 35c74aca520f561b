"""Unlikelihood penalties, hallucination sets, toy model, analytic gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_difference_gradient, min_argmax_gap
from simpkit.readability import FkWeightTable
from simpkit.ulloss import (
    HallucinationSet,
    LossConfig,
    StepDistribution,
    ToyModel,
    hallucinated_set,
    loss_gradient,
    total_loss,
    ul_consistency,
    ul_readability,
)

_TABLE = FkWeightTable({"half": 2.0, "hard": 5.0})


def test_step_distribution_validation():
    StepDistribution([1.0, 0.0])  # degenerate rows are fine
    for bad in ([], [0.5, 0.6], [-0.1, 1.1], [0.5, float("nan")], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            StepDistribution(bad)


def test_step_distribution_argmax_ties_to_lowest_index():
    assert StepDistribution([0.5, 0.5]).argmax_index == 0
    assert StepDistribution([0.2, 0.4, 0.4]).argmax_index == 1
    assert len(StepDistribution([0.2, 0.4, 0.4])) == 3


def test_step_distribution_probs_read_only():
    dist = StepDistribution([0.3, 0.7])
    with pytest.raises(TypeError):
        dist.probs[0] = 1.0
    assert dist.probs == (0.3, 0.7)


def test_ul_readability_frozen_one_step():
    dist = StepDistribution([0.3, 0.7])
    value = ul_readability([dist], _TABLE, ["half", "hard"])
    assert math.isclose(value, 5.0 * -math.log(1.0 - 0.7), rel_tol=1e-12)
    assert round(value, 4) == 6.0199


def test_ul_readability_frozen_two_steps():
    steps = [StepDistribution([0.3, 0.7]), StepDistribution([0.5, 0.5])]
    value = ul_readability(steps, _TABLE, ["half", "hard"])
    expected = 5.0 * -math.log(1.0 - 0.7) + 2.0 * -math.log(1.0 - 0.5)
    assert math.isclose(value, expected, rel_tol=1e-12)
    assert round(value, 4) == 7.4062


def test_ul_readability_depends_on_vocab_order():
    # same rows, reversed word order: the argmaxes land on the other words
    steps = [StepDistribution([0.3, 0.7]), StepDistribution([0.5, 0.5])]
    value = ul_readability(steps, _TABLE, ["hard", "half"])
    expected = 2.0 * -math.log(1.0 - 0.7) + 5.0 * -math.log(1.0 - 0.5)
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_ul_readability_zero_weight_argmax_costs_nothing():
    table = FkWeightTable({"the": 0.0, "hard": 5.0})
    assert ul_readability([StepDistribution([0.9, 0.1])], table, ["the", "hard"]) == 0.0


def test_ul_readability_clamp():
    dist = StepDistribution([1.0, 0.0])
    value = ul_readability([dist], _TABLE, ["hard", "half"])
    assert math.isclose(value, 5.0 * -math.log(1e-12), rel_tol=1e-12)


def test_ul_readability_errors():
    dist = StepDistribution([0.5, 0.5])
    with pytest.raises(ValueError, match="does not match vocab"):
        ul_readability([dist], _TABLE, ["half"])
    with pytest.raises(KeyError, match="no FK weight"):
        ul_readability([dist], _TABLE, ["unknown", "hard"])


def test_ul_consistency_frozen():
    steps = [StepDistribution([0.5, 0.5])]
    assert math.isclose(
        ul_consistency(steps, HallucinationSet(frozenset({0}))),
        -math.log(1.0 - 0.5),
        rel_tol=1e-12,
    )
    assert ul_consistency(steps, HallucinationSet()) == 0.0
    # only the argmax membership matters
    assert ul_consistency(steps, HallucinationSet(frozenset({1}))) == 0.0


def test_ul_consistency_clamp():
    steps = [StepDistribution([1.0, 0.0])]
    value = ul_consistency(steps, HallucinationSet(frozenset({0})))
    assert math.isclose(value, -math.log(1e-12), rel_tol=1e-12)
    assert round(value, 3) == 27.631


def test_hallucinated_set_entity_filter():
    vocab = ("took", "Aspirin", "daily")
    found = hallucinated_set(
        ["took", "Aspirin", "daily"],
        "they took a pill daily",
        "a pill was taken",
        vocab,
    )
    assert found.indices == frozenset({1})
    assert 1 in found and 0 not in found


def test_hallucinated_set_supported_words_excluded():
    found = hallucinated_set(
        ["took", "Aspirin", "daily"],
        "the aspirin dose",
        "a pill",
        ("took", "Aspirin", "daily"),
    )
    assert found.indices == frozenset()


def test_hallucinated_set_numeric_entities():
    found = hallucinated_set(
        ["take", "500", "units"],
        "take some units",
        "take units",
        ("take", "500", "units"),
    )
    assert found.indices == frozenset({1})


def test_hallucinated_set_ignores_plain_words():
    # lowercase unsupported words are not entities, and need not be in vocab
    found = hallucinated_set(["zebra"], "a pill", "a dose", ("a", "pill"))
    assert found.indices == frozenset()


def test_hallucinated_set_vocab_error():
    with pytest.raises(ValueError, match="not in vocabulary"):
        hallucinated_set(["Advil"], "a pill", "a dose", ("a", "pill"))


def test_hallucinated_set_taxes_the_word_that_gave_the_entity():
    # "." gives no word token and "New York" gives two, so word-token
    # positions of the joined decode are not positions in the decode
    vocab = (".", "Aspirin", "the", "New York", "Zed")
    found = hallucinated_set([".", "Aspirin"], "the", "the", vocab)
    assert found.indices == frozenset({1})
    found = hallucinated_set(["New York", "the", "Zed"], "the", "the", vocab)
    assert found.indices == frozenset({3, 4})


def test_hallucination_set_word_file_round_trip(tmp_path):
    vocab = ("alpha", "Beta", "gamma")
    path = tmp_path / "hall.txt"
    path.write_text("Beta\n\ngamma\n", encoding="utf-8")
    loaded = HallucinationSet.load_words(str(path), vocab)
    assert loaded == HallucinationSet(frozenset({1, 2}))
    bad = tmp_path / "bad.txt"
    bad.write_text("delta\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not in vocabulary"):
        HallucinationSet.load_words(str(bad), vocab)


def test_loss_config_defaults_and_validation():
    config = LossConfig()
    assert config.lambda_r == 7.5e-4
    assert config.lambda_c == 2.5e-4
    assert config.epsilon == 1e-12
    with pytest.raises(ValueError):
        LossConfig(lambda_r=-1.0)
    with pytest.raises(ValueError):
        LossConfig(epsilon=0.0)
    # NaN fails every comparison, so a bare ``< 0`` check lets it through.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda_r must be finite"):
            LossConfig(lambda_r=bad)
        with pytest.raises(ValueError, match="lambda_c must be finite"):
            LossConfig(lambda_c=bad)


def test_toy_model_validation():
    with pytest.raises(ValueError, match="unique"):
        ToyModel(("a", "a"), [[0.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        ToyModel(("a", "b"), [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="steps"):
        ToyModel(("a", "b"), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="steps"):
        ToyModel(("a", "b"), np.zeros((21, 2)))
    with pytest.raises(ValueError, match="finite"):
        ToyModel(("a", "b"), [[0.0, float("inf")]])


def test_toy_model_probs_and_greedy():
    model = ToyModel(("a", "b"), [[0.0, 1.0], [2.0, 0.0]])
    probs = model.probs()
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert [d.argmax_index for d in model.step_distributions()] == [1, 0]
    assert model.steps == 2


def test_toy_model_nll():
    model = ToyModel(("a", "b"), [[0.0, 0.0]])
    assert math.isclose(model.nll([0]), -math.log(0.5), rel_tol=1e-12)
    with pytest.raises(ValueError, match="expected 1 targets"):
        model.nll([0, 1])
    with pytest.raises(ValueError, match="out of range"):
        model.nll([2])


def test_total_loss_composition():
    steps = [StepDistribution([0.3, 0.7])]
    hall = HallucinationSet(frozenset({1}))
    config = LossConfig()
    value = total_loss(1.5, steps, _TABLE, ["half", "hard"], hall, config)
    ul_r = ul_readability(steps, _TABLE, ["half", "hard"], config.epsilon)
    ul_c = ul_consistency(steps, hall, config.epsilon)
    assert math.isclose(
        value, 1.5 + 7.5e-4 * ul_r + 2.5e-4 * ul_c, rel_tol=1e-12
    )
    with pytest.raises(ValueError, match="finite"):
        total_loss(float("inf"), steps, _TABLE, ["half", "hard"], hall, config)


def test_gradient_exact_single_step():
    model = ToyModel(("hard", "easy"), [[0.0, 0.0]])
    table = FkWeightTable({"hard": 5.0, "easy": 0.0})
    grad = loss_gradient(model, [1], table, HallucinationSet())
    # NLL part: p - onehot(target); UL part: coeff * p_m * (onehot(m) - p) / q
    coeff = 7.5e-4 * 5.0
    ul_term = coeff * 0.5 * (np.array([1.0, 0.0]) - 0.5) / 0.5
    expected = np.array([0.5, -0.5]) + ul_term
    assert np.allclose(grad, expected.reshape(1, 2), atol=1e-12)


def test_gradient_skips_saturated_and_zero_coefficient_steps():
    table = FkWeightTable({"hard": 5.0, "easy": 0.0})
    # saturated argmax: q below the clamp floor leaves the pure NLL gradient
    saturated = ToyModel(("hard", "easy"), [[30.0, 0.0]])
    grad = loss_gradient(saturated, [0], table, HallucinationSet())
    expected = saturated.probs().copy()
    expected[0, 0] -= 1.0
    assert np.array_equal(grad, expected)

    # zero-weight argmax outside the hallucinated set contributes nothing
    flat = ToyModel(("easy", "hard"), [[1.0, 0.0]])
    grad = loss_gradient(flat, [1], table, HallucinationSet())
    expected = flat.probs().copy()
    expected[0, 1] -= 1.0
    assert np.array_equal(grad, expected)


def test_gradient_matches_finite_differences_smoke():
    rng = np.random.default_rng(7)
    vocab = ("the", "cat", "hemorrhage", "medicine")
    table = FkWeightTable.for_vocab(vocab)
    config = LossConfig()
    for _ in range(5):
        while True:
            logits = rng.uniform(-3.0, 3.0, size=(4, len(vocab)))
            model = ToyModel(vocab, logits)
            if min_argmax_gap(model.probs()) > 0.01:
                break
        targets = [int(t) for t in rng.integers(0, len(vocab), size=4)]
        hall = HallucinationSet(frozenset({2}))
        grad = loss_gradient(model, targets, table, hall, config)
        fd = finite_difference_gradient(
            vocab, logits, targets, table, hall, config
        )
        err = np.abs(grad - fd).max()
        assert err <= 1e-4 * max(1.0, float(np.abs(fd).max()))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.05, max_value=0.95),
        min_size=2,
        max_size=5,
    )
)
def test_ul_terms_nonnegative(raw):
    total = sum(raw)
    dist = StepDistribution([x / total for x in raw])
    vocab = [f"w{i}" for i in range(len(raw))]
    table = FkWeightTable({w: float(i) for i, w in enumerate(vocab)})
    assert ul_readability([dist], table, vocab) >= 0.0
    assert ul_consistency([dist], HallucinationSet(frozenset(range(len(raw))))) >= 0.0
