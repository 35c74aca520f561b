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

import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .consistency import ConsistencyScorer, LexicalScorer
from .rerank import BeamScore, RankedBeam, rank_beams, score_candidate
from .textseg import word_tokens
from .ulloss import StepDistribution

__all__ = [
    "BOS",
    "EOS",
    "LanguageModel",
    "TableLM",
    "NGramLM",
    "DecoderConfig",
    "DecodeResult",
    "greedy_decode",
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


class NGramLM(LanguageModel):
    """Add-one smoothed n-gram model trained on plain texts.

    The vocabulary is the sorted set of training word tokens followed by the
    BOS and EOS markers; smoothing counts every vocabulary entry, markers
    included, so with context count ``T`` and vocabulary size ``V`` the
    probability of token ``w`` is ``(count(w) + 1) / (T + V)``.  Unseen
    contexts therefore yield the uniform distribution.  ``order=1`` is a
    context-free unigram model.

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
        sequences = []
        words = set()
        for text in texts:
            tokens = word_tokens(text)
            words.update(tokens)
            sequences.append([BOS] * (order - 1) + tokens + [EOS])
        if not sequences:
            raise ValueError("training corpus is empty")
        if BOS in words or EOS in words:
            raise ValueError("training text contains a reserved marker")
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
        counter = self._counts.get(context, ())
        total = sum(counter.values()) if counter else 0
        size = len(self.vocab)
        probs = [
            (counter[w] + 1 if counter else 1) / (total + size)
            for w in self.vocab
        ]
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
    ``fallback_used`` flags that every beam was zeroed by the hallucination
    heuristic and the highest-log-probability beam was returned instead.
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


@dataclass(frozen=True)
class _Beam:
    indices: tuple[int, ...]
    log_prob: float


def _adjusted(log_prob: float, length: int, alpha: float) -> float:
    if alpha == 0.0:
        return log_prob
    return log_prob / (length**alpha)


def _log_prob_key(config: DecoderConfig):
    """Sort key for log-probability pruning: best adjusted log_prob first,
    ties to the shorter sequence, then to the lower vocabulary indices."""

    def key(beam: _Beam):
        return (
            -_adjusted(beam.log_prob, len(beam.indices), config.length_penalty),
            len(beam.indices),
            beam.indices,
        )

    return key


def _stripped(beam: _Beam, vocab: Sequence[str]) -> tuple[str, ...]:
    words = [vocab[i] for i in beam.indices]
    if words and words[-1] == EOS:
        words.pop()
    return tuple(words)


def greedy_decode(
    lm: LanguageModel, source: str = "", max_length: int = 128
) -> list[str]:
    """Repeated argmax decoding until EOS or ``max_length`` tokens.

    Ties break toward the lowest vocabulary index; the BOS marker is never
    selected.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    vocab = tuple(lm.vocab)
    out: list[str] = []
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
        if best is None:
            break
        if vocab[best] == EOS:
            break
        out.append(vocab[best])
    return out


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
    pick is by log probability.  Never fails to produce an output: when the
    heuristic zeroes every beam the highest-log-probability beam is returned
    with ``fallback_used`` set.
    """
    counting = _CountingScorer(scorer if scorer is not None else LexicalScorer())
    vocab = tuple(lm.vocab)
    log_key = _log_prob_key(config)

    active = [_Beam(indices=(), log_prob=0.0)]
    finished: list[_Beam] = []
    rerank_steps: list[int] = []
    steps_run = 0

    for step in range(1, config.max_length + 1):
        if not active:
            break
        steps_run = step
        candidates: list[_Beam] = []
        for beam in active:
            prefix = tuple(vocab[i] for i in beam.indices)
            dist = lm.next_distribution(prefix, source)
            if len(dist) != len(vocab):
                raise ValueError(
                    "distribution size does not match model vocab"
                )
            for v, p in enumerate(dist.probs):
                if p <= 0.0 or vocab[v] == BOS:
                    continue
                candidates.append(
                    _Beam(beam.indices + (v,), beam.log_prob + math.log(p))
                )
        if not candidates:
            break
        if config.rerank_enabled and step % config.rerank_interval == 0:
            rerank_steps.append(step)
            ranked = _rank_pool(
                candidates, vocab, source, counting, config, config.beam_width
            )
            kept = [beam for beam, _ in ranked]
        else:
            candidates.sort(key=log_key)
            kept = candidates[: config.beam_width]
        active = []
        for beam in kept:
            if vocab[beam.indices[-1]] == EOS:
                finished.append(beam)
            else:
                active.append(beam)

    pool = finished + active
    if not pool:
        empty_score = BeamScore(f_f=0.0, f_b=0.0, r_f=1.0, r_b=0.0, r=0.0)
        return DecodeResult(
            tokens=(),
            score=empty_score,
            log_prob=float("-inf"),
            fallback_used=True,
            rerank_steps=tuple(rerank_steps),
            scorer_calls=counting.calls,
            steps_run=steps_run,
        )

    fallback_used = False
    if config.rerank_enabled:
        ranked = _rank_pool(pool, vocab, source, counting, config)
        if config.heuristic_on and all(
            rb.score.hallucination_zeroed for _, rb in ranked
        ):
            fallback_used = True
            best_beam = min(pool, key=log_key)
            best_score = next(rb.score for b, rb in ranked if b is best_beam)
        else:
            best_beam, top = ranked[0]
            best_score = top.score
        best_words = _stripped(best_beam, vocab)
    else:
        best_beam = min(pool, key=log_key)
        best_words = _stripped(best_beam, vocab)
        best_score = score_candidate(
            best_words, source, counting, config.heuristic_on
        )

    return DecodeResult(
        tokens=best_words,
        score=best_score,
        log_prob=best_beam.log_prob,
        fallback_used=fallback_used,
        rerank_steps=tuple(rerank_steps),
        scorer_calls=counting.calls,
        steps_run=steps_run,
    )


def _rank_pool(
    pool: list[_Beam],
    vocab: tuple[str, ...],
    source: str,
    scorer: ConsistencyScorer,
    config: DecoderConfig,
    top_n: int | None = None,
) -> list[tuple[_Beam, RankedBeam]]:
    """:func:`rank_beams` over ``pool``, each ranked entry paired with the
    beam it came from.

    Ranking sees only the words without a trailing EOS, so two beams that
    differ by that EOS alone would be indistinguishable.  That cannot
    happen: no beam in a pool that ends in EOS is longer than one that does
    not, so its words without the EOS are strictly shorter.
    """
    pairs = [(_stripped(b, vocab), b.log_prob) for b in pool]
    beam_of = {words: b for (words, _), b in zip(pairs, pool)}
    assert len(beam_of) == len(pool), "stripped words map to several beams"
    ranked = rank_beams(
        pairs, source, scorer, heuristic_on=config.heuristic_on, top_n=top_n
    )
    return [(beam_of[rb.words], rb) for rb in ranked]
