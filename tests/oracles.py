"""Brute-force reference implementations for the test suite.

Everything here recomputes package results from first principles, using a
different algorithm wherever one exists: exhaustive subsequence enumeration
instead of dynamic programming, explicit membership loops instead of set
algebra, a from-scratch search loop instead of the production decoder.
Final floating-point formulas deliberately mirror the production operation
order so exact-equality assertions are meaningful; the point of each oracle
is an independent derivation of the combinatorics feeding those formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from simpkit.consistency import LexicalScorer
from simpkit.decoder import BOS, EOS, DecoderConfig, LanguageModel
from simpkit.readability import (
    FK_BASE,
    FK_SYLLABLES_PER_WORD,
    FK_WORDS_PER_SENTENCE,
)
from simpkit.rerank import BeamScore
from simpkit.textseg import (
    contains_token_span,
    count_syllables,
    tokenize,
    word_tokens,
)
from simpkit.ulloss import StepDistribution, ToyModel, total_loss


# ---------------------------------------------------------------------------
# n-gram metrics


def ngram_set_brute(tokens, n):
    """Distinct n-grams collected by an explicit sliding-window loop."""
    grams = set()
    i = 0
    while i + n <= len(tokens):
        window = []
        for j in range(i, i + n):
            window.append(tokens[j])
        grams.add(tuple(window))
        i += 1
    return grams


def _intersection(a, b):
    return {x for x in a if x in b}


def _difference(a, b):
    return {x for x in a if x not in b}


def _f1_brute(candidate, target):
    # mirror production op order exactly
    if not candidate and not target:
        return 1.0
    if not candidate:
        return 0.0
    overlap = len(_intersection(candidate, target))
    precision = overlap / len(candidate)
    recall = overlap / len(target) if target else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _precision_brute(candidate, target):
    if not candidate and not target:
        return 1.0
    if not candidate:
        return 0.0
    return len(_intersection(candidate, target)) / len(candidate)


def sari_brute(source, output, references):
    src = word_tokens(source, lowercase=True)
    out = word_tokens(output, lowercase=True)
    refs = [word_tokens(ref, lowercase=True) for ref in references]
    scores = []
    for n in (1, 2, 3, 4):
        src_g = ngram_set_brute(src, n)
        out_g = ngram_set_brute(out, n)
        ref_g = set()
        for ref in refs:
            for gram in ngram_set_brute(ref, n):
                ref_g.add(gram)
        if not (src_g or out_g or ref_g):
            continue
        add = _f1_brute(_difference(out_g, src_g), _difference(ref_g, src_g))
        keep = _f1_brute(_intersection(out_g, src_g), _intersection(ref_g, src_g))
        delete = _precision_brute(_difference(src_g, out_g), _difference(src_g, ref_g))
        scores.append((add + keep + delete) / 3)
    if not scores:
        return 100.0
    return 100.0 * sum(scores) / len(scores)


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def lcs_positions_brute(ref, cand):
    """Reference positions of the leftmost maximal common subsequence.

    Enumerates reference position subsets by descending size; within a size
    ``itertools.combinations`` yields tuples in lexicographic order, so the
    first subset whose words embed in the candidate is the leftmost one.
    """
    for size in range(min(len(ref), len(cand)), 0, -1):
        for combo in itertools.combinations(range(len(ref)), size):
            if is_subsequence([ref[i] for i in combo], cand):
                return set(combo)
    return set()


def rouge_lsum_brute(output, reference):
    ref_sents = [
        [t.surface.lower() for t in sent] for sent in tokenize(reference).sentences()
    ]
    out_sents = [
        [t.surface.lower() for t in sent] for sent in tokenize(output).sentences()
    ]
    total_ref = sum(len(s) for s in ref_sents)
    total_out = sum(len(s) for s in out_sents)
    hits = 0
    for ref_sent in ref_sents:
        union = set()
        for out_sent in out_sents:
            union |= lcs_positions_brute(ref_sent, out_sent)
        hits += len(union)
    precision = hits / total_out
    recall = hits / total_ref
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def fourgram_overlap_brute(output, source):
    out = word_tokens(output, lowercase=True)
    grams = []
    i = 0
    while i + 4 <= len(out):
        gram = tuple(out[i : i + 4])
        if gram not in grams:
            grams.append(gram)
        i += 1
    if not grams:
        return None
    src = word_tokens(source, lowercase=True)
    matched = 0
    for gram in grams:
        found = False
        j = 0
        while j + 4 <= len(src):
            if tuple(src[j : j + 4]) == gram:
                found = True
                break
            j += 1
        if found:
            matched += 1
    return 100.0 * matched / len(grams)


# ---------------------------------------------------------------------------
# composite score branches


def readability_subscore_brute(f_f):
    if f_f < 4.0:
        return 1.0
    if f_f <= 20.0:
        return (20.0 - f_f) / (20.0 - 4.0)
    return 0.0


def consistency_subscore_brute(f_b):
    if f_b < 0.60:
        return 0.0
    return (f_b - 0.60) / (1.0 - 0.60)


def composite_brute(r_f, r_b):
    total = r_f + r_b
    if total == 0.0:
        return 0.0
    harmonic = 2.0 * r_f * r_b / total
    return harmonic * harmonic


# ---------------------------------------------------------------------------
# candidate scoring from the joined text


def _fk_ref(text):
    tl = tokenize(text)
    words = tl.words()
    syllables = sum(count_syllables(t.surface) for t in words)
    return (
        FK_WORDS_PER_SENTENCE * (len(words) / tl.sentence_count())
        + FK_SYLLABLES_PER_WORD * (syllables / len(words))
        + FK_BASE
    )


def _entities_ref(text, aware):
    """``(mention, word positions)`` for each entity of ``text``, from the
    three rules of the ``textseg`` module docstring over ``tokenize``
    output, with none of its entity helpers.

    Rule 1: each maximal run of consecutive capitalized word tokens in one
    sentence, skipping (when ``aware``) sentence-initial tokens.  Rule 2
    (when ``aware``): a sentence-initial capitalized word token whose
    surface is also capitalized off sentence-initial position.  Rule 3:
    each numeric token; one whose first digit is not ASCII is no word
    token and covers no word position.
    """
    tokens = tokenize(text).tokens
    position = {}
    for i, tok in enumerate(tokens):
        if tok.is_word:
            position[i] = len(position)
    found = []

    def in_run(item):
        tok = item[1]
        eligible = tok.is_word and tok.is_capitalized
        if aware and tok.is_sentence_initial:
            eligible = False
        return eligible, tok.sentence_index

    for (eligible, _), group in itertools.groupby(enumerate(tokens), in_run):
        if eligible:
            group = list(group)
            found.append(
                (
                    " ".join(tok.surface for _, tok in group),
                    tuple(position[i] for i, _ in group),
                )
            )
    if aware:
        later = set()
        for tok in tokens:
            if tok.is_word and tok.is_capitalized and not tok.is_sentence_initial:
                later.add(tok.surface)
        for i, tok in enumerate(tokens):
            if (
                tok.is_word
                and tok.is_capitalized
                and tok.is_sentence_initial
                and tok.surface in later
            ):
                found.append((tok.surface, (position[i],)))
    for i, tok in enumerate(tokens):
        if tok.is_numeric:
            found.append((tok.surface, (position[i],) if tok.is_word else ()))
    return found


def _unsupported_ref(candidate, source, candidate_entities):
    if candidate_entities is None:
        entities = {mention for mention, _ in _entities_ref(candidate, True)}
    else:
        entities = set(candidate_entities)
    source_words = word_tokens(source, lowercase=True)
    numerals = {t.surface for t in tokenize(source).tokens if t.is_numeric}
    return {
        e
        for e in entities
        if not (
            contains_token_span(source_words, word_tokens(e))
            if word_tokens(e)
            else e in numerals
        )
    }


def _score_candidate_ref(
    words, source, f_b_of, heuristic_on, candidate_entities=None
):
    """``score_candidate`` from the tokenized joined text, whatever the
    words; ``f_b_of(text, source)`` gives the consistency score."""
    text = " ".join(words)
    if not word_tokens(text):
        return BeamScore(
            f_f=0.0,
            f_b=0.0,
            r_f=readability_subscore_brute(0.0),
            r_b=0.0,
            r=0.0,
        )
    f_f = _fk_ref(text)
    f_b = f_b_of(text, source)
    r_f = readability_subscore_brute(f_f)
    r_b = consistency_subscore_brute(f_b)
    zeroed = bool(
        heuristic_on and _unsupported_ref(text, source, candidate_entities)
    )
    r = 0.0 if zeroed else composite_brute(r_f, r_b)
    return BeamScore(
        f_f=f_f, f_b=f_b, r_f=r_f, r_b=r_b, r=r, hallucination_zeroed=zeroed
    )


# ---------------------------------------------------------------------------
# loss: central finite differences


def finite_difference_gradient(
    vocab, logits, targets, weights, hallucinated, config, h=1e-5
):
    """Central-difference gradient of the total loss in the logits."""

    def value(matrix):
        model = ToyModel(vocab, matrix)
        steps = [StepDistribution(row) for row in model.probs()]
        return total_loss(
            model.nll(targets), steps, weights, vocab, hallucinated, config
        )

    base = np.asarray(logits, dtype=float)
    grad = np.zeros_like(base)
    for t in range(base.shape[0]):
        for v in range(base.shape[1]):
            plus = base.copy()
            plus[t, v] += h
            minus = base.copy()
            minus[t, v] -= h
            grad[t, v] = (value(plus) - value(minus)) / (2.0 * h)
    return grad


def min_argmax_gap(probs):
    """Smallest top-two probability gap across steps; guards FD validity."""
    gaps = []
    for row in np.asarray(probs, dtype=float):
        top = np.sort(row)[::-1]
        gaps.append(float(top[0] - top[1]))
    return min(gaps)


# ---------------------------------------------------------------------------
# decoder: from-scratch search loop over word-string beams


class TableLM(LanguageModel):
    """Scripted lookup-table model for exact decoder tests.

    Maps emitted-prefix tuples to probability rows.  Unknown prefixes fall
    back to ``default`` when given, otherwise raise KeyError.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        table: Mapping[tuple[str, ...], Sequence[float]],
        default: Sequence[float] | None = None,
    ):
        self.vocab = tuple(vocab)
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("vocab entries must be unique")
        self._table = {tuple(k): tuple(v) for k, v in table.items()}
        self._default = tuple(default) if default is not None else None

    def next_distribution(
        self, prefix: Sequence[str], source: str
    ) -> StepDistribution:
        row = self._table.get(tuple(prefix), self._default)
        if row is None:
            raise KeyError(f"no scripted distribution for prefix {tuple(prefix)!r}")
        return StepDistribution(row)


def greedy_decode(lm, source="", max_length=128):
    """Repeated argmax decoding until EOS or ``max_length`` tokens: the
    width-1 reference for vanilla beam search.

    Ties break toward the lowest vocabulary index; the BOS marker is never
    selected.
    """
    vocab = tuple(lm.vocab)
    out = []
    for _ in range(max_length):
        dist = lm.next_distribution(tuple(out), source)
        if len(dist) != len(vocab):
            raise ValueError("distribution size does not match model vocab")
        best = None
        best_p = 0.0
        for v, p in enumerate(dist.probs):
            if vocab[v] == BOS:
                continue
            if p > best_p:
                best, best_p = v, float(p)
        if best is None or vocab[best] == EOS:
            break
        out.append(vocab[best])
    return out


@dataclass(frozen=True)
class OracleDecode:
    tokens: tuple
    score: BeamScore
    log_prob: float
    fallback_used: bool
    rerank_steps: tuple
    scorer_calls: int
    steps_run: int


class CountingShim:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def score(self, candidate, source):
        self.calls += 1
        return self.inner.score(candidate, source)


def _strip(words):
    if words and words[-1] == EOS:
        return words[:-1]
    return words


def _rank_brute(entries, source, scorer, heuristic_on, top_n=None):
    """Composite ranking of ``(stripped words, log prob)`` entries."""
    scored = []
    for words, lp in entries:
        sc = _score_candidate_ref(words, source, scorer.score, heuristic_on)
        scored.append((words, lp, sc))
    scored.sort(key=lambda e: (-e[2].r, -e[1], len(e[0]), e[0]))
    if top_n is not None:
        scored = scored[:top_n]
    return scored


# Short and long words mixed so random decodes spread across the FK bands.
WORD_POOL = (
    "a", "an", "it", "we", "go", "up", "sat", "cat", "dog", "red",
    "sun", "tea", "medicine", "hemorrhage", "patient", "therapy",
)


def random_table_lm(rng, max_vocab=10, pool=WORD_POOL):
    """Random scripted model plus a source text drawn from its vocabulary.

    The vocabulary words are drawn from ``pool``.  Rows mix zero entries
    (exercising the positive-probability filter) with scripted prefixes up
    to length two; a default row covers the rest.  The vocabulary order is
    shuffled so index tie-breaking varies, BOS is only sometimes present,
    and occasionally a capitalized drug name appears so the hallucination
    heuristic fires.
    """
    n_words = rng.randint(2, min(7, max_vocab - 2))
    words = rng.sample(pool, n_words)
    if rng.random() < 0.25:
        words[rng.randrange(len(words))] = "Aspirin"
    vocab = list(words)
    if rng.random() < 0.3:
        vocab.append(BOS)
    vocab.append(EOS)
    rng.shuffle(vocab)

    def row():
        while True:
            xs = [rng.random() if rng.random() > 0.25 else 0.0 for _ in vocab]
            total = sum(xs)
            if total > 0:
                return [x / total for x in xs]

    emittable = [w for w in vocab if w not in (BOS, EOS)]
    table = {(): row()}
    for _ in range(rng.randint(0, 6)):
        length = rng.randint(1, 2)
        prefix = tuple(rng.choice(emittable) for _ in range(length))
        table[prefix] = row()
    source = " ".join(
        rng.choice(emittable) for _ in range(rng.randint(3, 6))
    )
    return TableLM(vocab, table, default=row()), source


def beam_search_brute(
    lm: LanguageModel,
    source: str,
    config: DecoderConfig = DecoderConfig(),
    scorer=None,
) -> OracleDecode:
    shim = CountingShim(scorer if scorer is not None else LexicalScorer())
    vocab = tuple(lm.vocab)
    index_of = {w: i for i, w in enumerate(vocab)}
    alpha = config.length_penalty

    def plain_key(cand):
        words, lp = cand
        length = len(words)
        adjusted = lp if alpha == 0.0 or length == 0 else lp / (length**alpha)
        return (-adjusted, length, tuple(index_of[w] for w in words))

    active = [((), 0.0)]
    finished = []
    rerank_steps = []
    steps_run = 0
    for step in range(1, config.max_length + 1):
        if not active:
            break
        steps_run = step
        candidates = []
        for words, lp in active:
            dist = lm.next_distribution(words, source)
            for v, p in enumerate(dist.probs):
                if p <= 0.0 or vocab[v] == BOS:
                    continue
                candidates.append((words + (vocab[v],), lp + math.log(p)))
        if not candidates:
            break
        if config.rerank_enabled and step % config.rerank_interval == 0:
            rerank_steps.append(step)
            entries = [(_strip(words), lp) for words, lp in candidates]
            by_words = {}
            for (stripped, _), cand in zip(entries, candidates):
                by_words[stripped] = cand
            ranked = _rank_brute(
                entries,
                source,
                shim,
                config.heuristic_on,
                top_n=min(config.beam_width, len(entries)),
            )
            kept = [by_words[words] for words, _, _ in ranked]
        else:
            candidates.sort(key=plain_key)
            kept = candidates[: config.beam_width]
        active = []
        for cand in kept:
            if cand[0][-1] == EOS:
                finished.append(cand)
            else:
                active.append(cand)

    pool = finished + active
    # A sequence with no word tokens is a final candidate only when every
    # other is too.
    pool = [c for c in pool if word_tokens(" ".join(_strip(c[0])))] or pool
    if not pool:
        empty = BeamScore(f_f=0.0, f_b=0.0, r_f=1.0, r_b=0.0, r=0.0)
        return OracleDecode(
            (), empty, float("-inf"), True, tuple(rerank_steps), shim.calls, steps_run
        )

    fallback = False
    if config.rerank_enabled:
        entries = [(_strip(words), lp) for words, lp in pool]
        by_words = {}
        for (stripped, _), cand in zip(entries, pool):
            by_words[stripped] = cand
        ranked = _rank_brute(entries, source, shim, config.heuristic_on)
        if config.heuristic_on and all(
            sc.hallucination_zeroed for _, _, sc in ranked
        ):
            fallback = True
            best = min(pool, key=plain_key)
            best_words = _strip(best[0])
            best_score = next(sc for w, _, sc in ranked if w == best_words)
        else:
            best_words, _, best_score = ranked[0]
            best = by_words[best_words]
    else:
        best = min(pool, key=plain_key)
        best_words = _strip(best[0])
        best_score = _score_candidate_ref(
            best_words, source, shim.score, config.heuristic_on
        )

    return OracleDecode(
        tokens=best_words,
        score=best_score,
        log_prob=best[1],
        fallback_used=fallback,
        rerank_steps=tuple(rerank_steps),
        scorer_calls=shim.calls,
        steps_run=steps_run,
    )
