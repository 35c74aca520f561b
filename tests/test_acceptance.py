"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS`` or ``FAIL`` verdict line;
the lines are also replayed in the terminal summary so a captured run still
shows every verdict.  Time budgets are measured with ``perf_counter``
around exactly the work they cover.

The synthetic-corpus decodes (criteria 5, 7, 9 and the frozen digests)
share one lazily built corpus of 200 examples with per-example bigram
models; criterion 7 redoes its decodes inside the clock so cache hits
cannot flatter the timings.
"""

import functools
import hashlib
import math
import random
import time
from pathlib import Path

import numpy as np

import conftest
from oracles import (
    TableLM,
    beam_search_brute,
    composite_brute,
    finite_difference_gradient,
    fourgram_overlap_brute,
    min_argmax_gap,
    random_table_lm,
    rouge_lsum_brute,
    sari_brute,
)
from simpkit.consistency import consistency_subscore, unsupported_entities
from simpkit.corpus import Document
from simpkit.decoder import EOS, DecoderConfig, NGramLM, beam_search
from simpkit.judge import build_judge_prompt
from simpkit.readability import (
    FkWeightTable,
    flesch_kincaid,
    readability_subscore,
)
from simpkit.rerank import composite_score
from simpkit.simpeval import fourgram_overlap, rouge_lsum, sari
from simpkit.synthetic import make_examples
from simpkit.ulloss import (
    HallucinationSet,
    LossConfig,
    StepDistribution,
    ToyModel,
    loss_gradient,
    total_loss,
    ul_consistency,
    ul_readability,
)


def _emit(line):
    print(line)
    conftest.record_criterion(line)


def criterion(number):
    """Report one verdict line for the wrapped test, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            label = f"[criterion {number:02d}]"
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"{label} FAIL")
                raise
            _emit(f"{label} PASS")

        return run

    return wrap


# ------------------------------------------------------- shared synthetic

_CORPUS = None
_DECODES = {}


def _corpus():
    """(example, trained bigram model) pairs, built once per session."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = [
            (ex, NGramLM.train(ex.training_texts, order=2))
            for ex in make_examples(200)
        ]
    return _CORPUS


def _config_for(k):
    if k is None:
        return DecoderConfig.vanilla(beam_width=4, max_length=20)
    return DecoderConfig(beam_width=4, rerank_interval=k, max_length=20)


def _decode_corpus(k):
    """Decode every corpus document; ``k=None`` is vanilla decoding."""
    if k not in _DECODES:
        config = _config_for(k)
        _DECODES[k] = [
            beam_search(lm, ex.document.input, config) for ex, lm in _corpus()
        ]
    return _DECODES[k]


# -------------------------------------------------------------- criteria


@criterion(1)
def test_criterion_01_subscores_and_composite():
    start = time.perf_counter()

    assert readability_subscore(3.0) == 1.0
    assert readability_subscore(12.0) == (20.0 - 12.0) / (20.0 - 4.0) == 0.5
    assert readability_subscore(22.0) == 0.0
    assert consistency_subscore(0.60) == 0.0
    assert consistency_subscore(0.84) == (0.84 - 0.60) / (1.0 - 0.60)
    assert math.isclose(consistency_subscore(0.84), 0.6, abs_tol=1e-12)
    assert consistency_subscore(1.0) == 1.0

    checked = 0
    for i in range(10):
        for j in range(10):
            r_f, r_b = i / 9.0, j / 9.0
            assert abs(composite_score(r_f, r_b) - composite_brute(r_f, r_b)) <= 1e-12
            checked += 1
    assert checked == 100
    assert time.perf_counter() - start < 1.0


@criterion(2)
def test_criterion_02_unlikelihood_terms():
    config = LossConfig()
    assert (config.lambda_r, config.lambda_c) == (7.5e-4, 2.5e-4)
    assert config.epsilon == 1e-12

    vocab = ("half", "hard")
    weights = FkWeightTable({"half": 2.0, "hard": 5.0})
    steps = [StepDistribution([0.3, 0.7]), StepDistribution([0.5, 0.5])]

    # Step one argmax is index 1; step two ties and takes the lower index.
    want_r = 5.0 * -math.log(1.0 - 0.7) + 2.0 * -math.log(1.0 - 0.5)
    got_r = ul_readability(steps, weights, vocab, config.epsilon)
    assert math.isclose(got_r, want_r, abs_tol=1e-9)
    assert math.isclose(got_r, 7.406158, abs_tol=5e-7)

    hard_only = HallucinationSet(frozenset({1}))
    got_c = ul_consistency(steps, hard_only, config.epsilon)
    assert math.isclose(got_c, -math.log(1.0 - 0.7), abs_tol=1e-9)
    half_only = HallucinationSet(frozenset({0}))
    assert math.isclose(
        ul_consistency(steps, half_only, config.epsilon),
        -math.log(1.0 - 0.5),
        abs_tol=1e-9,
    )

    # A saturated argmax hits the clamp floor instead of log(0).
    clamped = [StepDistribution([0.0, 1.0])]
    assert math.isclose(
        ul_readability(clamped, weights, vocab, config.epsilon),
        5.0 * -math.log(1e-12),
        abs_tol=1e-9,
    )

    total = total_loss(1.25, steps, weights, vocab, hard_only, config)
    assert math.isclose(
        total, 1.25 + 7.5e-4 * want_r + 2.5e-4 * got_c, abs_tol=1e-9
    )

    # Random instances against the definition written out step by step.
    rng = random.Random(202)
    for _ in range(30):
        size = rng.randint(2, 6)
        vocab = tuple(f"w{i}" for i in range(size))
        weights = FkWeightTable({w: rng.uniform(0.0, 30.0) for w in vocab})
        halluc = HallucinationSet(
            frozenset(i for i in range(size) if rng.random() < 0.4)
        )
        rows = []
        for _ in range(rng.randint(1, 5)):
            raw = [rng.random() + 1e-3 for _ in range(size)]
            mass = sum(raw)
            rows.append(StepDistribution([x / mass for x in raw]))
        want_r = want_c = 0.0
        for dist in rows:
            m = dist.argmax_index
            penalty = -math.log(max(1.0 - float(dist.probs[m]), config.epsilon))
            want_r += weights[vocab[m]] * penalty
            if m in halluc:
                want_c += penalty
        assert math.isclose(
            ul_readability(rows, weights, vocab, config.epsilon),
            want_r,
            abs_tol=1e-9,
        )
        assert math.isclose(
            ul_consistency(rows, halluc, config.epsilon),
            want_c,
            abs_tol=1e-9,
        )


@criterion(3)
def test_criterion_03_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = random.Random(303)
    config = LossConfig()
    for _ in range(100):
        size = rng.randint(2, 20)
        steps = rng.randint(1, 10)
        vocab = tuple(f"w{i}" for i in range(size))
        weights = FkWeightTable({w: rng.uniform(0.0, 30.0) for w in vocab})
        halluc = HallucinationSet(
            frozenset(i for i in range(size) if rng.random() < 0.3)
        )
        while True:
            logits = np.array(
                [
                    [rng.uniform(-4.0, 4.0) for _ in range(size)]
                    for _ in range(steps)
                ]
            )
            model = ToyModel(vocab, logits)
            # Near-ties make the argmax indicator flip inside the probe
            # width, which central differences cannot see; resample.
            if min_argmax_gap(model.probs()) > 0.01:
                break
        targets = [rng.randrange(size) for _ in range(steps)]

        analytic = loss_gradient(model, targets, weights, halluc, config)
        numeric = finite_difference_gradient(
            vocab, logits, targets, weights, halluc, config
        )
        scale = max(float(np.linalg.norm(numeric)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) <= 1e-4 * scale
    assert time.perf_counter() - start < 10.0


@criterion(4)
def test_criterion_04_decoder_matches_pruning_oracle():
    start = time.perf_counter()
    rng = random.Random(404)
    for trial in range(200):
        lm, source = random_table_lm(rng)
        config = DecoderConfig(
            beam_width=rng.randint(1, 3),
            rerank_interval=rng.choice((1, 2, 3)),
            max_length=rng.randint(2, 6),
            heuristic_on=rng.random() < 0.75,
            length_penalty=rng.choice((0.0, 0.0, 1.0)),
        )
        got = beam_search(lm, source, config)
        want = beam_search_brute(lm, source, config)
        assert got.tokens == want.tokens, trial
        assert got.log_prob == want.log_prob, trial
        assert got.score == want.score, trial
        assert got.fallback_used == want.fallback_used, trial
        assert got.rerank_steps == want.rerank_steps, trial
        assert got.scorer_calls == want.scorer_calls, trial
        assert got.steps_run == want.steps_run, trial
    assert time.perf_counter() - start < 60.0


@criterion(5)
def test_criterion_05_reranking_simplifies_without_consistency_loss():
    start = time.perf_counter()
    reranked = _decode_corpus(5)
    vanilla = _decode_corpus(None)
    n = len(reranked)
    assert n == 200

    fk_rerank = sum(flesch_kincaid(r.text) for r in reranked) / n
    fk_vanilla = sum(flesch_kincaid(r.text) for r in vanilla) / n
    assert fk_rerank < fk_vanilla

    rb_rerank = sum(r.score.r_b for r in reranked) / n
    rb_vanilla = sum(r.score.r_b for r in vanilla) / n
    assert rb_vanilla - rb_rerank < 0.05
    assert time.perf_counter() - start < 60.0


def _digest(results):
    """SHA-1 over every field of each ``DecodeResult``, floats by repr."""
    fields = (
        "tokens", "score", "log_prob", "fallback_used", "rerank_steps",
        "scorer_calls", "steps_run",
    )
    h = hashlib.sha1()
    for result in results:
        h.update(repr(tuple(getattr(result, f) for f in fields)).encode())
    return h.hexdigest()


def test_synthetic_decodes_are_frozen():
    """Byte-identical outputs across refactors of the search loop."""
    penalized = DecoderConfig(
        beam_width=3, rerank_interval=3, max_length=20, length_penalty=1.0
    )
    assert _digest(_decode_corpus(5)) == (
        "8c34fae26f02d374f24a0800c9d4afc30ecdf6f7"
    )
    assert _digest(_decode_corpus(None)) == (
        "1b1c0d174ae01c752ae16b3325a1f7206af59992"
    )
    assert _digest(
        beam_search(lm, ex.document.input, penalized)
        for ex, lm in _corpus()[:40]
    ) == "c1b2a3698192c10592d7d335459f46781c4e9e4a"


def _one_hot(vocab, word):
    return [1.0 if w == word else 0.0 for w in vocab]


def _mix(vocab, mapping):
    return [mapping.get(w, 0.0) for w in vocab]


@criterion(6)
def test_criterion_06_supported_beats_unsupported():
    rng = random.Random(606)
    drugs = ("Aspirin", "Tylenol", "Zyrtec", "Prozac", "Motrin")
    pool = ("taking", "rest", "helps", "fluids", "sleep", "care", "daily")
    fallback_cases = 0
    for trial in range(100):
        drug = rng.choice(drugs)
        s1, s2 = rng.sample(pool, 2)
        source = f"{s1} {s2} now"
        width = rng.randint(1, 3)
        if trial % 4 == 3:
            # Every completion carries the unsupported drug mid-sentence:
            # the decoder must still answer, flagged as a fallback.
            vocab = [drug, s2, EOS]
            rng.shuffle(vocab)
            table = {
                (): _one_hot(vocab, s2),
                (s2,): _one_hot(vocab, drug),
                (s2, drug): _one_hot(vocab, EOS),
            }
            lm = TableLM(vocab, table, default=_one_hot(vocab, EOS))
            result = beam_search(
                lm,
                source,
                DecoderConfig(
                    beam_width=width, rerank_interval=1, max_length=4
                ),
            )
            assert result.fallback_used
            assert result.tokens == (s2, drug)
            assert result.score.r == 0.0
            assert result.score.hallucination_zeroed
            fallback_cases += 1
        else:
            # The drug continuation is likelier, the supported one clears
            # the consistency floor; reranking must pick the latter.
            p_drug = rng.uniform(0.55, 0.9)
            vocab = [drug, s1, s2, EOS]
            rng.shuffle(vocab)
            table = {
                (): _one_hot(vocab, s1),
                (s1,): _mix(vocab, {drug: p_drug, s2: 1.0 - p_drug}),
                (s1, drug): _one_hot(vocab, EOS),
                (s1, s2): _one_hot(vocab, EOS),
            }
            lm = TableLM(vocab, table, default=_one_hot(vocab, EOS))
            plain = beam_search(
                lm,
                source,
                DecoderConfig.vanilla(beam_width=width, max_length=4),
            )
            assert plain.tokens == (s1, drug)

            result = beam_search(
                lm,
                source,
                DecoderConfig(
                    beam_width=width, rerank_interval=1, max_length=4
                ),
            )
            assert result.tokens == (s1, s2)
            assert result.score.r > 0.0
            assert not result.fallback_used
            assert not unsupported_entities(result.text, source)
    assert fallback_cases == 25


@criterion(7)
def test_criterion_07_sparser_schedules_cost_less():
    grid = (5, 10, 15, 20)
    calls = {}
    times = {k: math.inf for k in grid}

    def run(k):
        config = _config_for(k)
        t0 = time.perf_counter()
        results = [
            beam_search(lm, ex.document.input, config) for ex, lm in _corpus()
        ]
        times[k] = min(times[k], time.perf_counter() - t0)
        calls[k] = sum(r.scorer_calls for r in results)

    # k=5 and k=10 cost several times more than the tail, so one run each
    # clears the bound by far.  Only the near-equal tail (k=15 against
    # k=20) is close enough for host noise to matter: it takes the best of
    # three alternating rounds, so one burst slows one run of one k rather
    # than every run of it.
    run(5)
    run(10)
    for _ in range(3):
        run(15)
        run(20)

    assert all(isinstance(c, int) for c in calls.values())
    assert 4 * calls[20] <= calls[5]
    for a, b in zip(grid, grid[1:]):
        assert calls[b] <= calls[a]
        # Wall time tracks the call counts; small slack absorbs scheduler
        # noise on the near-equal tail of the grid.
        assert times[b] <= times[a] * 1.15 + 0.05


def _rand_text(rng):
    parts = [rng.choice("abcd")]
    for _ in range(rng.randint(0, 7)):
        parts.append("." if rng.random() < 0.2 else rng.choice("abcd"))
    return " ".join(parts)


@criterion(8)
def test_criterion_08_metrics_match_brute_force():
    rng = random.Random(808)
    for _ in range(1000):
        output = _rand_text(rng)
        source = _rand_text(rng)
        references = [_rand_text(rng) for _ in range(rng.randint(1, 2))]
        assert sari(source, output, references) == sari_brute(
            source, output, references
        )
        assert rouge_lsum(output, references[0]) == rouge_lsum_brute(
            output, references[0]
        )
        assert fourgram_overlap(output, source) == fourgram_overlap_brute(
            output, source
        )

    text = "the patient got medicine and rest now today"
    assert sari(text, text, [text]) == 100.0
    assert rouge_lsum(text, text) == 1.0
    assert fourgram_overlap(text, text) == 100.0


@criterion(9)
def test_criterion_09_overlap_separates_copies_from_rewrites():
    reranked = _decode_corpus(5)
    for (ex, _lm), result in zip(_corpus(), reranked):
        source = ex.document.input
        assert fourgram_overlap(source, source) == 100.0
        overlap = fourgram_overlap(result.text, source)
        assert overlap is not None
        assert overlap < 20.0


@criterion(10)
def test_criterion_10_judge_prompt_is_frozen():
    document = Document(
        id="gp1",
        input=(
            "The patient was given 20 {mg} of Ibuprofen. "
            "Dr. Lee noted a hemorrhage."
        ),
        label="The patient got Ibuprofen. A doctor saw bleeding.",
    )
    summary = "The patient took Ibuprofen and bled a little."
    system, user = build_judge_prompt(document, summary)
    golden = Path(__file__).parent / "golden"
    assert system == (golden / "judge_prompt_system.txt").read_text(
        encoding="utf-8"
    )
    assert user == (golden / "judge_prompt_filled.txt").read_text(
        encoding="utf-8"
    )
