"""Toy language models, width-1 (greedy) and rerank-every-k beam search."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    OracleDecode,
    TableLM,
    beam_search_brute,
    greedy_decode,
    random_table_lm,
)
from simpkit.decoder import (
    BOS,
    EOS,
    DecoderConfig,
    NGramLM,
    beam_search,
)
from simpkit.rerank import BeamScore
from simpkit.synthetic import make_examples
from simpkit.textseg import word_tokens


def _assert_matches_oracle(lm, source, config):
    got = beam_search(lm, source, config)
    want = beam_search_brute(lm, source, config)
    for field in dataclasses.fields(OracleDecode):
        assert getattr(got, field.name) == getattr(want, field.name), (
            field.name,
            config,
        )
    return got


def test_table_lm_lookup_default_and_errors():
    lm = TableLM(("a", EOS), {(): (0.9, 0.1)}, default=(0.5, 0.5))
    assert list(lm.next_distribution((), "").probs) == [0.9, 0.1]
    assert list(lm.next_distribution(("a",), "").probs) == [0.5, 0.5]
    strict = TableLM(("a", EOS), {(): (0.9, 0.1)})
    with pytest.raises(KeyError, match="no scripted distribution"):
        strict.next_distribution(("a",), "")
    with pytest.raises(ValueError, match="unique"):
        TableLM(("a", "a"), {})


def test_ngram_lm_frozen_probabilities():
    lm = NGramLM.train(["a b"], order=2)
    assert lm.vocab == ("a", "b", BOS, EOS)
    # context "a" saw only "b": (1 + 1) / (1 + 4)
    probs = lm.next_distribution(("a",), "").probs
    assert math.isclose(probs[1], 0.4, rel_tol=1e-12)
    # unseen context: uniform over the four vocabulary entries
    assert np.allclose(lm.next_distribution((EOS,), "").probs, 0.25)


def test_ngram_lm_unigram():
    lm = NGramLM.train(["a b"], order=1)
    probs = lm.next_distribution((), "").probs
    assert np.allclose(probs, [2 / 7, 2 / 7, 1 / 7, 2 / 7])


def test_ngram_lm_errors():
    with pytest.raises(ValueError, match="empty"):
        NGramLM.train([], order=2)
    with pytest.raises(ValueError, match="order"):
        NGramLM.train(["a"], order=0)


def test_decoder_config_validation_and_vanilla():
    with pytest.raises(ValueError):
        DecoderConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecoderConfig(rerank_interval=0)
    with pytest.raises(ValueError):
        DecoderConfig(length_penalty=-1.0)
    assert DecoderConfig(rerank_interval=5, max_length=5).rerank_enabled
    assert not DecoderConfig(rerank_interval=6, max_length=5).rerank_enabled
    vanilla = DecoderConfig.vanilla(beam_width=2, max_length=8)
    assert vanilla.rerank_interval == 9
    assert not vanilla.rerank_enabled
    assert not vanilla.heuristic_on


def test_decoder_config_defaults():
    config = DecoderConfig()
    assert dataclasses.astuple(config) == (4, 5, 128, True, 0.0)
    vanilla = DecoderConfig.vanilla()
    assert (vanilla.beam_width, vanilla.max_length) == (4, 128)


def test_decoder_config_and_result_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DecoderConfig().beam_width = 2
    result = beam_search(NGramLM.train(["the cat"]), "the cat")
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.tokens = ()


def test_ngram_train_defaults_to_bigrams():
    assert NGramLM.train(["a b c d"]).order == 2


def test_ngram_train_reads_markers_as_word_tokens():
    """Word tokens start with an ASCII letter or digit, so ``<s>`` and
    ``</s>`` in a training text give the word ``s``, never a marker."""
    lm = NGramLM.train(["<s> a </s>", "b"])
    assert lm.vocab == ("a", "b", "s", BOS, EOS)


def _greedy(lm, max_length):
    config = DecoderConfig.vanilla(beam_width=1, max_length=max_length)
    return beam_search(lm, "", config).tokens


def test_greedy_decode_frozen():
    lm = NGramLM.train(["the cat sat"], order=2)
    assert _greedy(lm, max_length=10) == ("the", "cat", "sat")


def test_greedy_decode_respects_max_length():
    lm = TableLM(("a", EOS), {}, default=(1.0, 0.0))
    assert _greedy(lm, max_length=3) == ("a", "a", "a")


def test_greedy_decode_never_emits_bos():
    lm = TableLM((BOS, "a", EOS), {}, default=(0.8, 0.15, 0.05))
    assert _greedy(lm, max_length=4) == ("a", "a", "a", "a")


def test_greedy_decode_stops_when_only_bos_has_mass():
    lm = TableLM((BOS, EOS, "a"), {}, default=(1.0, 0.0, 0.0))
    assert _greedy(lm, max_length=4) == ()


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["rerank", "vanilla"])
def test_beam_search_root_survives_when_nothing_expands(mode, alpha):
    """The empty root beam is the whole final pool; with a length penalty
    its adjusted log_prob is 0.0, not a division by its zero length."""
    lm = TableLM((BOS, EOS, "a"), {}, default=(1.0, 0.0, 0.0))
    if mode == "rerank":
        config = DecoderConfig(
            beam_width=2, rerank_interval=1, max_length=4, length_penalty=alpha
        )
    else:
        config = DecoderConfig.vanilla(
            beam_width=2, max_length=4, length_penalty=alpha
        )
    result = _assert_matches_oracle(lm, "a", config)
    assert result.tokens == ()
    assert result.log_prob == 0.0
    assert result.score == BeamScore(f_f=0.0, f_b=0.0, r_f=1.0, r_b=0.0, r=0.0)
    assert not result.fallback_used
    assert result.rerank_steps == ()
    assert result.scorer_calls == 0
    assert result.steps_run == 1


@pytest.mark.parametrize("mode", ["rerank", "vanilla"])
def test_final_selection_prefers_a_beam_with_words(mode):
    """The one-step EOS beam has no words.  Under reranking it ties with
    ``Aspirin`` on r = 0 and on log probability, and used to win as the
    shorter beam; under vanilla decoding it outweighs ``a``.  The beam with
    words is chosen either way."""
    if mode == "rerank":
        lm = TableLM(
            ["Aspirin", "the", EOS],
            {(): [0.5, 0, 0.5], ("Aspirin",): [0, 0, 1]},
        )
        config = DecoderConfig(beam_width=2, rerank_interval=1)
        want = ("Aspirin",)
    else:
        lm = TableLM(["a", EOS], {(): [0.4, 0.6], ("a",): [0, 1]})
        config = DecoderConfig.vanilla(beam_width=2)
        want = ("a",)
    result = _assert_matches_oracle(lm, "the cat", config)
    assert result.tokens == want


@pytest.mark.parametrize("rerank_interval", [1, 6])
def test_final_selection_prefers_a_beam_with_word_tokens(rerank_interval):
    """``.`` is a word of the vocabulary but not a word token, so its beam
    would be an output ``simpkit eval`` rejects; ``a`` is in the final pool
    and is chosen, with reranking every step and vanilla (interval 6 is
    past ``max_length``)."""
    lm = TableLM(
        [".", "a", EOS],
        {(): [0.5, 0.1, 0.4], (".",): [0, 0, 1], ("a",): [0, 0, 1]},
    )
    config = DecoderConfig(
        beam_width=3, rerank_interval=rerank_interval, max_length=5
    )
    result = _assert_matches_oracle(lm, "the cat", config)
    assert result.tokens == ("a",)


_TRAINING_WORDS = st.sampled_from(
    ("the", "cat", "sat", "patients", "took", "Aspirin", "Warfarin", "20", "mg")
)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.lists(_TRAINING_WORDS, min_size=1, max_size=5).map(" ".join),
        min_size=1,
        max_size=4,
    ),
    source=st.lists(_TRAINING_WORDS, max_size=6).map(" ".join),
    order=st.integers(1, 3),
    beam_width=st.integers(2, 4),
    rerank_interval=st.integers(1, 7),
    max_length=st.integers(1, 6),
    heuristic_on=st.booleans(),
    length_penalty=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_ngram_decodes_are_never_empty(
    texts, source, order, beam_width, rerank_interval, max_length,
    heuristic_on, length_penalty,
):
    """At width >= 2 step 1 keeps a beam with words, since only one of its
    candidates is the lone EOS, so the final pool always has one too.
    Intervals past ``max_length`` decode vanilla."""
    lm = NGramLM.train(texts, order=order)
    config = DecoderConfig(
        beam_width=beam_width,
        rerank_interval=rerank_interval,
        max_length=max_length,
        heuristic_on=heuristic_on,
        length_penalty=length_penalty,
    )
    assert _assert_matches_oracle(lm, source, config).tokens != ()


def test_beam_search_output_invariants():
    rng = random.Random(11)
    for _ in range(30):
        lm, source = random_table_lm(rng)
        config = DecoderConfig(
            beam_width=rng.randint(1, 3),
            rerank_interval=rng.randint(1, 4),
            max_length=rng.randint(2, 6),
        )
        result = beam_search(lm, source, config)
        assert len(result.tokens) <= config.max_length
        assert BOS not in result.tokens
        assert EOS not in result.tokens
        assert beam_search(lm, source, config) == result  # deterministic


def test_rerank_step_schedule():
    # EOS never fires, so the decode always runs to max_length
    lm = TableLM(("a", "b", EOS), {}, default=(0.6, 0.4, 0.0))
    for k in (1, 2, 3, 5, 9):
        config = DecoderConfig(beam_width=2, rerank_interval=k, max_length=9)
        result = beam_search(lm, "a b", config)
        assert result.steps_run == 9
        assert result.rerank_steps == tuple(range(k, 10, k))


def test_scorer_calls_fall_as_interval_grows():
    lm = TableLM(
        ("ab", "cd", "ef", EOS), {}, default=(0.5, 0.3, 0.2, 0.0)
    )
    calls = []
    for k in (2, 3, 5, 7):
        config = DecoderConfig(beam_width=3, rerank_interval=k, max_length=12)
        calls.append(beam_search(lm, "ab cd", config).scorer_calls)
    assert calls[0] > calls[1] > calls[2] > calls[3]


def test_width_one_vanilla_equals_greedy():
    rng = random.Random(23)
    for _ in range(40):
        lm, source = random_table_lm(rng)
        max_length = rng.randint(2, 6)
        config = DecoderConfig.vanilla(beam_width=1, max_length=max_length)
        result = beam_search(lm, source, config)
        assert list(result.tokens) == greedy_decode(lm, source, max_length)


def test_wider_beam_can_lose_log_probability():
    """Pinned counterexample: width 2 commits to a prefix whose children all
    crash, while width 1 takes an early EOS it never sees.  Beam search has
    no width monotonicity guarantee, only oracle equivalence."""
    lm = TableLM(
        ("a", "b", EOS),
        {
            (): (0.5, 0.49, 0.01),
            ("a",): (0.3, 0.3, 0.4),
        },
        default=(0.495, 0.495, 0.01),
    )
    narrow = beam_search(lm, "a b", DecoderConfig.vanilla(beam_width=1, max_length=3))
    wide = beam_search(lm, "a b", DecoderConfig.vanilla(beam_width=2, max_length=3))
    assert narrow.tokens == ("a",)
    assert math.isclose(narrow.log_prob, math.log(0.5 * 0.4), rel_tol=1e-12)
    assert wide.tokens == ("b", "a", "a")
    assert math.isclose(
        wide.log_prob, math.log(0.49) + math.log(0.495) + math.log(0.495),
        rel_tol=1e-12,
    )
    assert wide.log_prob < narrow.log_prob


def test_length_penalty_changes_final_selection():
    lm = TableLM(
        ("x", "y", EOS),
        {
            (): (0.5, 0.4, 0.1),
            ("x",): (0.0, 0.0, 1.0),
            ("y",): (0.0, 1.0, 0.0),
            ("y", "y"): (0.0, 0.0, 1.0),
        },
    )
    flat = beam_search(
        lm, "x y", DecoderConfig.vanilla(beam_width=2, max_length=3)
    )
    assert flat.tokens == ("x",)
    adjusted = beam_search(
        lm,
        "x y",
        DecoderConfig.vanilla(beam_width=2, max_length=3, length_penalty=2.0),
    )
    assert adjusted.tokens == ("y", "y")


def test_reranking_prefers_supported_lower_probability_path():
    lm = TableLM(
        ("taking", "Aspirin", "rest", "helps", EOS),
        {
            (): (1.0, 0.0, 0.0, 0.0, 0.0),
            ("taking",): (0.0, 0.6, 0.4, 0.0, 0.0),
            ("taking", "Aspirin"): (0.0, 0.0, 0.0, 1.0, 0.0),
            ("taking", "rest"): (0.0, 0.0, 0.0, 1.0, 0.0),
            ("taking", "Aspirin", "helps"): (0.0, 0.0, 0.0, 0.0, 1.0),
            ("taking", "rest", "helps"): (0.0, 0.0, 0.0, 0.0, 1.0),
        },
    )
    source = "taking rest helps daily"
    reranked = beam_search(
        lm, source, DecoderConfig(beam_width=2, rerank_interval=1, max_length=4)
    )
    assert reranked.tokens == ("taking", "rest", "helps")
    assert not reranked.fallback_used
    assert reranked.score.r > 0.0

    vanilla = beam_search(
        lm, source, DecoderConfig.vanilla(beam_width=2, max_length=4)
    )
    assert vanilla.tokens == ("taking", "Aspirin", "helps")
    assert vanilla.log_prob > reranked.log_prob


def test_fallback_when_every_beam_is_zeroed():
    lm = TableLM(
        ("took", "Aspirin", EOS),
        {
            (): (1.0, 0.0, 0.0),
            ("took",): (0.0, 1.0, 0.0),
            ("took", "Aspirin"): (0.0, 0.0, 1.0),
        },
    )
    result = beam_search(
        lm,
        "took a pill",
        DecoderConfig(beam_width=2, rerank_interval=1, max_length=4),
    )
    assert result.tokens == ("took", "Aspirin")
    assert result.fallback_used
    assert result.score.hallucination_zeroed
    assert result.score.r == 0.0
    assert result.rerank_steps == (1, 2, 3)
    assert result.steps_run == 3
    assert result.scorer_calls == 4


def test_heuristic_off_keeps_unsupported_beam_without_fallback():
    lm = TableLM(
        ("took", "Aspirin", EOS),
        {
            (): (1.0, 0.0, 0.0),
            ("took",): (0.0, 1.0, 0.0),
            ("took", "Aspirin"): (0.0, 0.0, 1.0),
        },
    )
    result = beam_search(
        lm,
        "took a pill",
        DecoderConfig(
            beam_width=2, rerank_interval=1, max_length=4, heuristic_on=False
        ),
    )
    assert result.tokens == ("took", "Aspirin")
    assert not result.fallback_used
    assert not result.score.hallucination_zeroed


def test_distribution_size_mismatch_is_an_error():
    lm = TableLM(("a", EOS), {}, default=(0.5, 0.3, 0.2))
    with pytest.raises(ValueError, match="does not match model vocab"):
        beam_search(lm, "a", DecoderConfig(beam_width=1, max_length=2))
    with pytest.raises(ValueError, match="does not match model vocab"):
        beam_search(lm, "a", DecoderConfig.vanilla(beam_width=1, max_length=2))


def test_decode_result_text():
    lm = NGramLM.train(["the cat sat"], order=2)
    result = beam_search(lm, "the cat", DecoderConfig.vanilla(max_length=8))
    assert result.text == " ".join(result.tokens)


def test_beam_search_matches_oracle_smoke():
    rng = random.Random(37)
    for _ in range(25):
        lm, source = random_table_lm(rng)
        config = DecoderConfig(
            beam_width=rng.randint(1, 3),
            rerank_interval=rng.randint(1, 3),
            max_length=rng.randint(2, 6),
            heuristic_on=rng.random() < 0.7,
            length_penalty=rng.choice((0.0, 0.0, 1.0)),
        )
        _assert_matches_oracle(lm, source, config)


_NGRAM_CONFIGS = [
    DecoderConfig.vanilla(beam_width=8, max_length=10, length_penalty=alpha)
    for alpha in (0.0, 0.5, 1.0)
] + [
    DecoderConfig(
        beam_width=3, rerank_interval=k, max_length=8, length_penalty=alpha
    )
    for k, alpha in ((2, 0.0), (3, 0.5), (5, 1.0))
]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_beam_search_matches_oracle_on_ngram_models(order):
    """Plain steps prune on key tuples; the oracle sorts whole candidates by
    (adjusted log_prob, length, words).  Models trained on one example and
    on twenty (a wider vocabulary) must agree field for field."""
    examples = make_examples(200)
    rng = random.Random(100 + order)
    for ex in rng.sample(examples, 3):
        narrow = NGramLM.train(ex.training_texts, order=order)
        wide = NGramLM.train(
            [t for other in rng.sample(examples, 20) for t in other.training_texts],
            order=order,
        )
        for lm in (narrow, wide):
            for config in _NGRAM_CONFIGS:
                _assert_matches_oracle(lm, ex.document.input, config)


# Vocabulary entries that are not one word token on their own, so every
# candidate holding one is scored from its tokenized text, next to entries
# that are (random_table_lm adds "Aspirin" to some vocabularies).
_NOT_PLAIN = (".", "Dr.", "e.g.", "New York", " cat", "٣")
_MIXED_POOL = _NOT_PLAIN + (
    "3.5.1", "state-of-the-art", "don't", "sat", "medicine",
)


@pytest.mark.parametrize("heuristic_on", [True, False])
def test_beam_search_matches_oracle_on_words_that_are_not_plain(heuristic_on):
    rng = random.Random(808)
    emitted = set()
    for _ in range(40):
        lm, source = random_table_lm(rng, pool=_MIXED_POOL)
        config = DecoderConfig(
            beam_width=rng.randint(1, 3),
            rerank_interval=1,
            max_length=rng.randint(2, 5),
            heuristic_on=heuristic_on,
        )
        emitted.update(_assert_matches_oracle(lm, source, config).tokens)
    assert emitted >= set(_NOT_PLAIN)


def test_log_prob_ties_break_on_lower_indices():
    lm = TableLM(("b", "a", "c", EOS), {}, default=(0.3, 0.3, 0.3, 0.1))
    result = _assert_matches_oracle(
        lm, "a b", DecoderConfig.vanilla(beam_width=2, max_length=3)
    )
    assert result.tokens == ("b", "b", "b")
    result = _assert_matches_oracle(
        lm, "a b", DecoderConfig.vanilla(beam_width=3, max_length=2)
    )
    assert result.tokens == ("b", "b")


def test_ties_made_by_the_length_penalty_break_on_indices():
    """log(p) < log(q) differ by one ulp, but divided by 2 ** 0.5 they round
    to the same value, so the adjusted keys tie and the lower index wins."""
    p, q = 0.3971808377838783, 0.39718083778387836
    assert math.log(p) < math.log(q)
    assert math.log(p) / 2**0.5 == math.log(q) / 2**0.5
    lm = TableLM(
        ("x", "y", "z", EOS),
        {(): (1.0, 0.0, 0.0, 0.0), ("x",): (0.0, p, q, 1.0 - p - q)},
    )
    config = DecoderConfig.vanilla(beam_width=1, max_length=2, length_penalty=0.5)
    assert _assert_matches_oracle(lm, "x y z", config).tokens == ("x", "y")


def test_keys_that_round_together_break_on_indices():
    """After ``c``, ``b`` has the larger probability but ``a``'s is one ulp
    below it, and the two log probabilities round to the same sum, so the
    keys tie and ``a`` wins on index.  A step that stopped walking ``c``'s
    children by falling probability after the first would keep ``b``."""
    low = math.nextafter(0.46, 0)
    assert math.log(low) < math.log(0.46)
    assert math.log(0.4) + math.log(low) == math.log(0.4) + math.log(0.46)
    lm = TableLM(
        ["a", "b", "c", EOS],
        {(): [0.3, 0.3, 0.4, 0.0], ("c",): [low, 0.46, 0.0, 1.0 - 0.46 - low]},
        default=[0, 0, 0, 1],
    )
    config = DecoderConfig.vanilla(beam_width=1, max_length=3)
    assert _assert_matches_oracle(lm, "a b c", config).tokens == ("c", "a")


def test_a_run_of_equal_probabilities_wider_than_the_beam():
    """Three tokens share the second-largest probability at width 2.  Only
    the first of them by index, ``d``, survives step 1 beside ``a``, and it
    decodes to the best final beam; ``c`` or ``b`` would have done as well
    had either survived.  A uniform row is one run, of which ``d`` and
    ``c`` survive step 1; ``c``'s continuation is the best final beam."""
    lm = TableLM(
        ["d", "c", "b", "a", EOS],
        {(): [0.2, 0.2, 0.2, 0.4, 0.0], ("a",): [0.25, 0.25, 0.25, 0.25, 0.0]},
        default=[0, 0, 0, 0, 1],
    )
    config = DecoderConfig.vanilla(beam_width=2, max_length=2)
    result = _assert_matches_oracle(lm, "a b c d", config)
    assert result.tokens == ("d",)
    assert result.log_prob == math.log(0.2)
    lm = TableLM(
        ["d", "c", "b", "a", EOS],
        {(): [0.25] * 4 + [0.0], ("c",): [0, 0, 0, 0, 1]},
        default=[0, 0, 0, 0.5, 0.5],
    )
    assert _assert_matches_oracle(lm, "a b c d", config).tokens == ("c",)


def test_beam_search_matches_oracle_on_tied_rows():
    """Rows drawn from a few repeated weights, so equal cumulative log
    probabilities are common and pruning must fall through to indices."""
    rng = random.Random(41)
    for _ in range(60):
        vocab = rng.sample(["a", "b", "c", "d", "e"], rng.randint(2, 5))
        vocab.append(EOS)
        rng.shuffle(vocab)

        def row():
            weights = [rng.choice((0, 1, 1, 2)) for _ in vocab]
            if not any(weights):
                weights[0] = 1
            return [w / sum(weights) for w in weights]

        table = {(): row()}
        for word in vocab:
            if word != EOS:
                table[(word,)] = row()
        lm = TableLM(vocab, table, default=row())
        config = DecoderConfig(
            beam_width=rng.randint(1, 6),
            rerank_interval=rng.choice((2, 3, 9)),
            max_length=rng.randint(2, 6),
            length_penalty=rng.choice((0.0, 0.5, 1.0)),
        )
        _assert_matches_oracle(lm, "a b c", config)


@pytest.mark.parametrize("order", [1, 2, 3, 16])
def test_ngram_next_distribution_equals_dense_rows(order):
    """The sparse row equals ``(count(w) + 1) / (T + V)`` over the whole
    vocabulary, recounted here from the raw texts, bit for bit.  Order 16 is
    past the cap ``train`` applies (the longest text plus two), so the
    recount at the full order checks that the cap changes no row."""
    texts = [t for ex in make_examples(200)[:30] for t in ex.training_texts]
    lm = NGramLM.train(texts, order=order)
    if order == 16:
        assert lm.order == max(len(word_tokens(t)) for t in texts) + 2 < 16
    counts = {}
    for text in texts:
        seq = [BOS] * (order - 1) + word_tokens(text) + [EOS]
        for i in range(order - 1, len(seq)):
            counts.setdefault(tuple(seq[i - order + 1 : i]), Counter())[seq[i]] += 1
    unseen = [] if order == 1 else [(EOS,) * (order - 1), ("zebra",) * (order - 1)]
    assert not any(context in counts for context in unseen)
    for context in list(counts) + unseen:
        counter = counts.get(context, Counter())
        total = sum(counter.values())
        want = [(counter[w] + 1) / (total + len(lm.vocab)) for w in lm.vocab]
        # The context is its own prefix: padding adds only leading BOS.
        assert lm.next_distribution(context, "").probs == tuple(want)


def test_ngram_orders_past_the_longest_text_give_the_same_rows():
    """An order of 10**18 trains and answers without padding each text, or
    each prefix, with that many BOS markers."""
    texts = ["a b", "b a c", "c c a b a", "a", "b c"]
    longest = 5
    models = [
        NGramLM.train(texts, order=n) for n in (longest + 2, longest + 5, 10**18)
    ]
    rng = random.Random(17)
    prefixes = [tuple(t.split()[:i]) for t in texts for i in range(longest + 1)]
    prefixes += [
        tuple(rng.choice(("a", "b", "c")) for _ in range(rng.randint(0, 9)))
        for _ in range(300)
    ]
    for prefix in prefixes:
        rows = [lm.next_distribution(prefix, "").probs for lm in models]
        assert rows[0] == rows[1] == rows[2], prefix
