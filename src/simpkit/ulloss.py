"""Readability and consistency unlikelihood penalties over step distributions.

Both penalties push probability mass away from the token the model would
pick next.  The readability term weights each step by the FK weight of the
current argmax word, so mass parked on long words is taxed hardest:

    UL_R = sum_t  w(argmax_t) * -log(1 - p_t(argmax_t))

The consistency term applies a unit tax only when the argmax word belongs
to the hallucinated set ``e`` (words the free-running decode emits that
appear in neither the input nor the label):

    UL_C = sum_t  [argmax_t in e] * -log(1 - p_t(argmax_t))

Both clamp ``1 - p`` from below at ``epsilon`` so a saturated argmax yields
a large finite penalty with zero gradient rather than an infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .readability import FkWeightTable
from .textseg import entity_word_positions, word_tokens

__all__ = [
    "MAX_VOCAB",
    "MAX_STEPS",
    "StepDistribution",
    "HallucinationSet",
    "LossConfig",
    "ToyModel",
    "ul_readability",
    "ul_consistency",
    "hallucinated_set",
    "total_loss",
    "loss_gradient",
]

# Desk-scale bounds: everything here is meant to be checkable by hand.
MAX_VOCAB = 100
MAX_STEPS = 20

_SUM_TOLERANCE = 1e-9


class StepDistribution:
    """A validated probability distribution over the vocabulary at one step.

    ``probs`` is a tuple of floats.  Probabilities must be in [0, 1] and sum
    to 1 within 1e-9.  The argmax breaks ties toward the lowest index and is
    fixed at construction.
    """

    __slots__ = ("probs", "argmax_index")

    def __init__(self, probs: Sequence[float]):
        try:
            row = tuple(map(float, probs))
        except OverflowError:  # an integer beyond the float range
            raise ValueError("probs must be finite") from None
        except TypeError:  # a scalar, or a row of rows
            row = ()
        if not row:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if not all(map(math.isfinite, row)):
            raise ValueError("probs must be finite")
        top = max(row)
        if min(row) < 0.0 or top > 1.0:
            raise ValueError("probs must lie in [0, 1]")
        total = math.fsum(row)
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(
                f"probs must sum to 1 within {_SUM_TOLERANCE}, got {total!r}"
            )
        self.probs = row
        self.argmax_index = row.index(top)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class HallucinationSet:
    """Vocabulary indices of words trained away by the consistency term."""

    indices: frozenset[int] = field(default_factory=frozenset)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    @classmethod
    def load_words(
        cls, path: str, vocab: Sequence[str]
    ) -> "HallucinationSet":
        index_of = {word: i for i, word in enumerate(vocab)}
        indices = set()
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                word = line.rstrip("\n")
                if not word:
                    continue
                if word not in index_of:
                    raise ValueError(
                        f"line {lineno}: word {word!r} not in vocabulary"
                    )
                indices.add(index_of[word])
        return cls(frozenset(indices))


@dataclass(frozen=True)
class LossConfig:
    """Loss mixing weights and the clamp floor for ``1 - p``."""

    lambda_r: float = 7.5e-4
    lambda_c: float = 2.5e-4
    epsilon: float = 1e-12

    def __post_init__(self):
        for name in ("lambda_r", "lambda_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class ToyModel:
    """A bag of per-step categorical distributions over a shared vocabulary.

    Parameterized by a (steps, vocab) logit matrix.  There is no recurrence:
    each step's distribution is independent of emitted tokens, which makes
    exact loss and gradient checks tractable while exercising the full loss
    surface.
    """

    def __init__(self, vocab: Sequence[str], logits):
        vocab = tuple(vocab)
        if not vocab:
            raise ValueError("vocab must be non-empty")
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocab entries must be unique")
        if len(vocab) > MAX_VOCAB:
            raise ValueError(f"vocab larger than desk scale ({MAX_VOCAB})")
        matrix = np.asarray(logits, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(vocab):
            raise ValueError(
                "logits must have shape (steps, vocab size), got "
                f"{matrix.shape}"
            )
        if matrix.shape[0] == 0 or matrix.shape[0] > MAX_STEPS:
            raise ValueError(
                f"steps must be in 1..{MAX_STEPS}, got {matrix.shape[0]}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("logits must be finite")
        self.vocab = vocab
        self.logits = matrix.copy()

    @property
    def steps(self) -> int:
        return int(self.logits.shape[0])

    def probs(self) -> np.ndarray:
        return _softmax(self.logits)

    def step_distributions(self) -> list[StepDistribution]:
        return [StepDistribution(row) for row in self.probs().tolist()]

    def nll(self, targets: Sequence[int]) -> float:
        """Cross-entropy of the target index sequence, one index per step."""
        targets = list(targets)
        if len(targets) != self.steps:
            raise ValueError(
                f"expected {self.steps} targets, got {len(targets)}"
            )
        probs = self.probs()
        total = 0.0
        for step, index in enumerate(targets):
            if not 0 <= index < len(self.vocab):
                raise ValueError(f"target index {index} out of range")
            total += -math.log(probs[step, index])
        return total


def _clamped_log_complement(p: float, epsilon: float) -> float:
    return -math.log(max(1.0 - p, epsilon))


def ul_readability(
    steps: Sequence[StepDistribution],
    weights: FkWeightTable,
    vocab: Sequence[str],
    epsilon: float = 1e-12,
) -> float:
    """Readability unlikelihood over a step sequence.

    Example (one step, p(argmax) = 0.7, weight 5):
        >>> dist = StepDistribution([0.7, 0.3])
        >>> table = FkWeightTable({"hard": 5.0, "easy": 0.0})
        >>> round(ul_readability([dist], table, ["hard", "easy"]), 4)
        6.0199
    """
    total = 0.0
    for dist in steps:
        if len(dist) != len(vocab):
            raise ValueError("distribution size does not match vocab")
        word = vocab[dist.argmax_index]
        weight = weights[word]
        p = dist.probs[dist.argmax_index]
        total += weight * _clamped_log_complement(p, epsilon)
    return total


def ul_consistency(
    steps: Sequence[StepDistribution],
    hallucinated: HallucinationSet,
    epsilon: float = 1e-12,
) -> float:
    """Consistency unlikelihood: unit-weight tax on hallucinated argmaxes."""
    total = 0.0
    for dist in steps:
        if dist.argmax_index in hallucinated:
            p = dist.probs[dist.argmax_index]
            total += _clamped_log_complement(p, epsilon)
    return total


def hallucinated_set(
    greedy_sequence: Sequence[str],
    input_text: str,
    label_text: str,
    vocab: Sequence[str],
) -> HallucinationSet:
    """Entity-like words of the free-running decode supported by neither
    the input nor the label.

    Entity detection on the joined decode runs position-insensitively:
    generated word sequences carry meaningful capitalization but no
    meaningful sentence position.
    """
    index_of = {word: i for i, word in enumerate(vocab)}
    supported = set(word_tokens(input_text, lowercase=True))
    supported.update(word_tokens(label_text, lowercase=True))

    # Positions count the word tokens of the joined decode; a decoded word
    # may give none or several, so map each position to the word it came
    # from (space-joined words tokenize apart).
    owner = [i for i, w in enumerate(greedy_sequence) for _ in word_tokens(w)]
    entity_owners = {
        owner[position]
        for position in entity_word_positions(
            " ".join(greedy_sequence), sentence_position_aware=False
        )
    }

    indices = set()
    for i, word in enumerate(greedy_sequence):
        if i not in entity_owners:
            continue
        if word.lower() in supported:
            continue
        if word not in index_of:
            raise ValueError(f"decoded word {word!r} not in vocabulary")
        indices.add(index_of[word])
    return HallucinationSet(frozenset(indices))


def total_loss(
    nll: float,
    steps: Sequence[StepDistribution],
    weights: FkWeightTable,
    vocab: Sequence[str],
    hallucinated: HallucinationSet,
    config: LossConfig = LossConfig(),
) -> float:
    """NLL plus the two lambda-weighted unlikelihood terms."""
    if not math.isfinite(nll):
        raise ValueError(f"nll must be finite, got {nll!r}")
    return (
        nll
        + config.lambda_r
        * ul_readability(steps, weights, vocab, config.epsilon)
        + config.lambda_c
        * ul_consistency(steps, hallucinated, config.epsilon)
    )


def loss_gradient(
    model: ToyModel,
    targets: Sequence[int],
    weights: FkWeightTable,
    hallucinated: HallucinationSet,
    config: LossConfig = LossConfig(),
) -> np.ndarray:
    """Analytic d(total loss)/d(logits) for a toy model.

    The argmax indicators are treated as constants (straight-through), so
    each step contributes the usual softmax NLL gradient plus, writing
    ``m`` for the argmax and ``q = 1 - p_m``, the unlikelihood part

        coeff * p_m * (onehot(m) - p) / q      with
        coeff = lambda_r * w(m) + lambda_c * [m in e],

    which vanishes when ``q`` falls below the clamp floor.
    """
    targets = list(targets)
    if len(targets) != model.steps:
        raise ValueError(f"expected {model.steps} targets, got {len(targets)}")
    probs = model.probs()
    grad = probs.copy()
    for step, index in enumerate(targets):
        if not 0 <= index < len(model.vocab):
            raise ValueError(f"target index {index} out of range")
        grad[step, index] -= 1.0

    for step in range(model.steps):
        row = probs[step]
        m = int(row.argmax())
        p_m = float(row[m])
        q = 1.0 - p_m
        if q <= config.epsilon:
            continue
        coeff = config.lambda_r * weights[model.vocab[m]]
        if m in hallucinated:
            coeff += config.lambda_c
        if coeff == 0.0:
            continue
        onehot = np.zeros(len(model.vocab))
        onehot[m] = 1.0
        grad[step] += coeff * p_m * (onehot - row) / q
    return grad
