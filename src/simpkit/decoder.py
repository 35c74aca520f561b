"""Toy language models and beam search with periodic composite reranking.

The decoder follows standard cumulative-log-probability beam search, except
that at every step ``t`` with ``t % k == 0`` the candidate pool is pruned by
the composite readability/consistency score instead of log probability, and
the final selection over finished beams is again by composite score.  Larger
``k`` means fewer scoring rounds, so consistency-scorer invocations fall as
``k`` grows.

Two deliberate conventions, mirrored by every consumer in this package:

* ``k > max_length`` disables reranking entirely: pruning and the final
  selection run on (length-adjusted) log probability alone, so the decoder
  degenerates to vanilla beam search and, at width 1, to greedy decoding.
* The begin marker is never emitted: expansions onto the BOS symbol are
  skipped, exactly like zero-probability expansions.

Sequences are scored and returned without their markers; a trailing EOS is
stripped before any text is built.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .consistency import ConsistencyScorer, LexicalScorer
from .rerank import BeamScore, rank_beams, score_candidate
from .textseg import word_tokens
from .ulloss import StepDistribution

__all__ = [
    "BOS",
    "EOS",
    "LanguageModel",
    "NGramLM",
    "DecoderConfig",
    "DecodeResult",
    "beam_search",
]

BOS = "<s>"
EOS = "</s>"


class LanguageModel(ABC):
    """Next-token distribution provider over a fixed vocabulary.

    ``prefix`` is the sequence of emitted tokens so far, without markers;
    implementations that need begin padding add it themselves.
    """

    vocab: tuple[str, ...]

    @abstractmethod
    def next_distribution(
        self, prefix: Sequence[str], source: str
    ) -> StepDistribution:
        """Distribution over ``vocab`` for the next token after ``prefix``."""


class NGramLM(LanguageModel):
    """Add-one smoothed n-gram model trained on plain texts.

    The vocabulary is the sorted set of training word tokens followed by the
    BOS and EOS markers, which no word token equals: a word token starts
    with an ASCII letter or digit, so ``<s>`` in a text is the word ``s``.
    Smoothing counts every vocabulary entry, markers included, so with
    context count ``T`` and vocabulary size ``V`` the probability of token
    ``w`` is ``(count(w) + 1) / (T + V)``.  Unseen contexts therefore yield
    the uniform distribution.  ``order=1`` is a context-free unigram model;
    :meth:`train` caps ``order`` at two more than the longest training
    text's word count, which changes no row.

    The model conditions on the source only through what it was trained on;
    ``next_distribution`` ignores the source argument.
    """

    def __init__(self, order: int, vocab: Sequence[str], counts):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.order = order
        self.vocab = tuple(vocab)
        self._counts = counts
        self._index = {w: i for i, w in enumerate(self.vocab)}

    @classmethod
    def train(cls, texts: Iterable[str], order: int = 2) -> "NGramLM":
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        token_lists = [word_tokens(text) for text in texts]
        if not token_lists:
            raise ValueError("training corpus is empty")
        words = {w for tokens in token_lists for w in tokens}
        # A context longer than every text plus its EOS always starts with
        # BOS padding, so larger orders give the same rows.
        order = min(order, max(map(len, token_lists)) + 2)
        sequences = [[BOS] * (order - 1) + t + [EOS] for t in token_lists]
        vocab = sorted(words) + [BOS, EOS]
        counts: dict[tuple[str, ...], Counter[str]] = {}
        for seq in sequences:
            for i in range(order - 1, len(seq)):
                context = tuple(seq[i - order + 1 : i])
                counts.setdefault(context, Counter())[seq[i]] += 1
        return cls(order, vocab, counts)

    def next_distribution(
        self, prefix: Sequence[str], source: str
    ) -> StepDistribution:
        padded = [BOS] * (self.order - 1) + list(prefix)
        context = tuple(padded[len(padded) - (self.order - 1) :])
        counter = self._counts.get(context, {})
        # Only the context's observed followers differ from 1 / (T + V).
        denom = sum(counter.values()) + len(self.vocab)
        probs = [1 / denom] * len(self.vocab)
        for word, count in counter.items():
            probs[self._index[word]] = (count + 1) / denom
        return StepDistribution(probs)


@dataclass(frozen=True)
class DecoderConfig:
    """Beam search settings.  ``rerank_interval`` is the k of rerank-every-k;
    set it above ``max_length`` for vanilla log-probability decoding."""

    beam_width: int = 4
    rerank_interval: int = 5
    max_length: int = 128
    heuristic_on: bool = True
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.rerank_interval < 1:
            raise ValueError(
                f"rerank_interval must be >= 1, got {self.rerank_interval}"
            )
        if self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if not (
            math.isfinite(self.length_penalty) and self.length_penalty >= 0
        ):
            raise ValueError(
                f"length_penalty must be finite and >= 0, "
                f"got {self.length_penalty!r}"
            )

    @property
    def rerank_enabled(self) -> bool:
        return self.rerank_interval <= self.max_length

    @classmethod
    def vanilla(
        cls, beam_width: int = 4, max_length: int = 128, length_penalty: float = 0.0
    ) -> "DecoderConfig":
        return cls(
            beam_width=beam_width,
            rerank_interval=max_length + 1,
            max_length=max_length,
            heuristic_on=False,
            length_penalty=length_penalty,
        )


@dataclass(frozen=True)
class DecodeResult:
    """Chosen sequence plus instrumentation.

    ``rerank_steps`` lists the steps where composite pruning actually ran;
    ``scorer_calls`` counts consistency-scorer invocations end to end;
    ``fallback_used`` flags that the hallucination heuristic zeroed every
    beam of the final ranking, so the best beam by adjusted log probability
    was returned instead; vanilla decoding never sets it.
    """

    tokens: tuple[str, ...]
    score: BeamScore
    log_prob: float
    fallback_used: bool
    rerank_steps: tuple[int, ...]
    scorer_calls: int
    steps_run: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


class _CountingScorer(ConsistencyScorer):
    def __init__(self, inner: ConsistencyScorer):
        self.inner = inner
        self.calls = 0

    def score(self, candidate: str, source: str) -> float:
        self.calls += 1
        return self.inner.score(candidate, source)


def _words(indices: tuple[int, ...], vocab: Sequence[str]) -> tuple[str, ...]:
    """A beam's words without its trailing EOS."""
    words = [vocab[i] for i in indices]
    if words and words[-1] == EOS:
        words.pop()
    return tuple(words)


def beam_search(
    lm: LanguageModel,
    source: str,
    config: DecoderConfig = DecoderConfig(),
    scorer: ConsistencyScorer | None = None,
) -> DecodeResult:
    """Beam search with composite reranking every ``config.rerank_interval``
    steps.

    Beams expand onto positive-probability non-BOS tokens.  At rerank steps
    every such child joins the pool, which :func:`rank_beams` cuts to
    ``beam_width``.  At plain steps the pool is cut by adjusted log
    probability, so each parent adds only the children that can survive
    that cut: walking its tokens by falling probability, those up to the
    ``beam_width``-th child's key plus every later child with an equal key
    (two probabilities can round to one key, and that tie breaks on index),
    at most ``beam_width`` from each run of equal probabilities.  Beams that
    end in EOS freeze and rejoin for the final selection, which reranks the
    finished (or max-length) pool once; with reranking disabled the final
    pick is by log probability.  Either final selection considers only the
    beams whose text has word tokens, the test ``simpkit eval`` applies to
    an output, unless no final beam has any, when it considers them all.
    Never fails to produce an output: when the heuristic zeroes every beam
    the best beam by adjusted log probability is returned with
    ``fallback_used`` set.

    A beam is the tuple ``(-adjusted log_prob, indices, log_prob)``, where
    the adjusted value is ``log_prob / len(indices) ** length_penalty``
    (0.0 for the empty root beam).  Every candidate at a step has the same
    length and distinct indices, so plain tuple order is the pruning order:
    best adjusted log_prob first, ties to the lower vocabulary indices, and
    no comparison reaches the trailing log_prob.  Pools of mixed length add
    the length between the two, so ties go to the shorter sequence.
    """
    counting = _CountingScorer(scorer if scorer is not None else LexicalScorer())
    vocab = tuple(lm.vocab)
    allowed = [v for v, word in enumerate(vocab) if word != BOS]

    active = [(0.0, (), 0.0)]
    finished = []
    rerank_steps: list[int] = []
    steps_run = 0

    for step in range(1, config.max_length + 1):
        if not active:
            break
        steps_run = step
        length_scale = step**config.length_penalty
        rerank_now = config.rerank_enabled and step % config.rerank_interval == 0
        pool = []
        for beam in active:
            indices = beam[1]
            assert len(indices) == step - 1, "beam length out of step"
            prefix = tuple(vocab[i] for i in indices)
            dist = lm.next_distribution(prefix, source)
            if len(dist) != len(vocab):
                raise ValueError("distribution size does not match model vocab")
            pool += _children(
                beam, dist.probs, allowed, length_scale,
                None if rerank_now else config.beam_width,
            )
        if not pool:
            break
        if rerank_now:
            rerank_steps.append(step)
            ranked = _rank_pool(
                pool, vocab, source, counting, config, config.beam_width
            )
            kept = [beam for beam, _ in ranked]
        else:
            kept = heapq.nsmallest(config.beam_width, pool)
        finished += [beam for beam in kept if vocab[beam[1][-1]] == EOS]
        active = [beam for beam in kept if vocab[beam[1][-1]] != EOS]

    # Never empty: the root beam stays active when step 1 cannot expand,
    # and every later step keeps at least one beam.
    pool = finished + active
    # Any beam with word tokens beats one without: ``simpkit eval`` rejects
    # an output with none.
    pool = [
        beam for beam in pool if word_tokens(" ".join(_words(beam[1], vocab)))
    ] or pool
    best = min(pool, key=lambda beam: (beam[0], len(beam[1]), beam[1]))
    fallback_used = False
    if config.rerank_enabled:
        ranked = _rank_pool(pool, vocab, source, counting, config)
        fallback_used = config.heuristic_on and all(
            score.hallucination_zeroed for _, score in ranked
        )
        if fallback_used:
            best_score = next(score for beam, score in ranked if beam is best)
        else:
            best, best_score = ranked[0]
    else:
        best_score = score_candidate(
            _words(best[1], vocab), source, counting, config.heuristic_on
        )

    return DecodeResult(
        tokens=_words(best[1], vocab),
        score=best_score,
        log_prob=best[2],
        fallback_used=fallback_used,
        rerank_steps=tuple(rerank_steps),
        scorer_calls=counting.calls,
        steps_run=steps_run,
    )


def _children(
    beam: tuple[float, tuple[int, ...], float],
    probs: tuple[float, ...],
    allowed: list[int],
    length_scale: float,
    width: int | None,
) -> list[tuple[float, tuple[int, ...], float]]:
    """The children of ``beam`` onto the ``allowed`` tokens of positive
    probability, as beam tuples, by falling probability (equal
    probabilities in index order).

    With ``width`` set, only those that can be among the ``width`` best of a
    step pruned by log probability: the walk stops at the first key past
    the ``width``-th child's.  Children whose key equals that key come
    along, since two probabilities can round to one key and that tie breaks
    on index; of a run of equal probabilities only the first ``width`` can
    be kept.  Keys never fall along the walk, because ``math.log`` never
    decreases as ``p`` grows and float addition and division round
    monotonically.
    """
    _, indices, beam_log_prob = beam
    children = []
    threshold = math.inf
    run_p = run_len = None
    for v in sorted(allowed, key=probs.__getitem__, reverse=True):
        p = probs[v]
        if p != run_p:
            if p <= 0.0:
                break
            log_prob = beam_log_prob + math.log(p)
            key = -log_prob / length_scale
            if key > threshold:
                break
            run_p, run_len = p, 0
        elif run_len == width:
            continue
        run_len += 1
        children.append((key, indices + (v,), log_prob))
        if len(children) == width:
            threshold = key
    return children


def _rank_pool(
    pool: list[tuple[float, tuple[int, ...], float]],
    vocab: tuple[str, ...],
    source: str,
    scorer: ConsistencyScorer,
    config: DecoderConfig,
    top_n: int | None = None,
) -> list[tuple[tuple[float, tuple[int, ...], float], BeamScore]]:
    """:func:`rank_beams` over ``pool`` as (beam, score) pairs, best first.

    Ranking sees only the words without a trailing EOS, so two beams that
    differ by that EOS alone would be indistinguishable.  That cannot
    happen: no beam in a pool that ends in EOS is longer than one that does
    not, so its words without the EOS are strictly shorter.
    """
    words = [_words(beam[1], vocab) for beam in pool]
    beam_of = dict(zip(words, pool))
    assert len(beam_of) == len(pool), "stripped words map to several beams"
    pairs = [(w, beam[2]) for w, beam in zip(words, pool)]
    ranked = rank_beams(pairs, source, scorer, config.heuristic_on, top_n)
    return [(beam_of[rb.words], rb.score) for rb in ranked]
