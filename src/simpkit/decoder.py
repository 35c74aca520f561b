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
    BOS and EOS markers; smoothing counts every vocabulary entry, markers
    included, so with context count ``T`` and vocabulary size ``V`` the
    probability of token ``w`` is ``(count(w) + 1) / (T + V)``.  Unseen
    contexts therefore yield the uniform distribution.  ``order=1`` is a
    context-free unigram model; :meth:`train` caps ``order`` at two more than
    the longest training text's word count, which changes no row.

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
        if BOS in words or EOS in words:
            raise ValueError("training text contains a reserved marker")
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

    Expansion is exhaustive over positive-probability non-BOS tokens.  At
    plain steps the candidate pool is cut to ``beam_width`` by adjusted log
    probability; at rerank steps it is cut by :func:`rank_beams`.  Beams that
    end in EOS freeze and rejoin for the final selection, which reranks the
    finished (or max-length) pool once; with reranking disabled the final
    pick is by log probability.  Either final selection considers the empty
    sequence only when no final beam has words.  Never fails to produce an
    output: when the heuristic zeroes every beam the best beam by adjusted
    log probability is returned with ``fallback_used`` set.

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
    bos = {v for v, word in enumerate(vocab) if word == BOS}

    active = [(0.0, (), 0.0)]
    finished = []
    rerank_steps: list[int] = []
    steps_run = 0

    for step in range(1, config.max_length + 1):
        if not active:
            break
        steps_run = step
        length_scale = step**config.length_penalty
        pool = []
        for _, indices, beam_log_prob in active:
            assert len(indices) == step - 1, "beam length out of step"
            prefix = tuple(vocab[i] for i in indices)
            dist = lm.next_distribution(prefix, source)
            if len(dist) != len(vocab):
                raise ValueError("distribution size does not match model vocab")
            for v, p in enumerate(dist.probs.tolist()):
                if p <= 0.0 or v in bos:
                    continue
                log_prob = beam_log_prob + math.log(p)
                pool.append((-log_prob / length_scale, indices + (v,), log_prob))
        if not pool:
            break
        if config.rerank_enabled and step % config.rerank_interval == 0:
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
    # Any beam with words beats the lone-EOS beam: ``simpkit eval`` rejects
    # an empty output.
    pool = [beam for beam in pool if _words(beam[1], vocab)] or pool
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
