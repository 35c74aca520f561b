"""simpkit: readability-aware decoding and evaluation for text simplification.

Desk-scale, dependency-light implementations of:

* deterministic text segmentation, syllable counting and entity heuristics;
* Flesch-Kincaid / ARI readability grades and a per-word FK weight table;
* lexical consistency scoring and an unsupported-entity check;
* composite beam reranking (squared harmonic mean of the two subscores);
* readability and consistency unlikelihood losses with analytic gradients
  for a toy per-step model;
* beam search over toy language models with rerank-every-k pruning;
* SARI / ROUGE-LSum / source 4-gram overlap corpus evaluation;
* a JSONL corpus harness, CLI, and the frozen factuality-judge prompt.
"""

from .consistency import (
    ConsistencyScorer,
    LexicalScorer,
    PrecomputedScorer,
    consistency_subscore,
    unsupported_entities,
)
from .corpus import DataError, Document, dump_jsonl, load_jsonl
from .decoder import (
    BOS,
    EOS,
    DecodeResult,
    DecoderConfig,
    LanguageModel,
    NGramLM,
    beam_search,
)
from .judge import build_judge_prompt
from .readability import (
    FkWeightTable,
    ari,
    flesch_kincaid,
    readability_subscore,
    word_fk,
)
from .rerank import BeamScore, RankedBeam, composite_score, rank_beams
from .simpeval import (
    EvalReport,
    MetricBundle,
    evaluate_corpus,
    fourgram_overlap,
    rouge_lsum,
    sari,
)
from .textseg import (
    Token,
    TokenList,
    count_syllables,
    extract_entities,
    tokenize,
)
from .ulloss import (
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

__version__ = "0.1.0"
