"""Corpus evaluation: SARI, ROUGE-LSum, source n-gram overlap, report tables.

All metrics run on case-folded word tokens from :mod:`simpkit.textseg`.

SARI here is the set-based variant: for each n-gram order 1..4 the add
score is an F1 between output-only and reference-only n-grams, the keep
score an F1 between output/source and reference/source intersections, and
the delete score the precision of dropped source n-grams against those the
references also drop.  Orders with no n-grams in output, source or
references are excluded from the mean; a degenerate pair with no n-grams
anywhere scores 100 vacuously.

ROUGE-LSum is the summary-level variant: each reference sentence is aligned
to all output sentences by union-LCS, with alignment ties resolved toward
the earliest reference positions; recall and precision divide total matched
words by reference and output lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .consistency import ConsistencyScorer, LexicalScorer, prepare_source
from .corpus import Document
from .readability import ari_tokens, flesch_kincaid_tokens
from .textseg import TokenList, tokenize, word_tokens

__all__ = [
    "sari",
    "rouge_lsum",
    "fourgram_overlap",
    "MetricBundle",
    "EvalReport",
    "evaluate_corpus",
    "report_tsv",
    "report_table",
]

_SARI_ORDERS = (1, 2, 3, 4)
_OVERLAP_ORDER = 4

_COLUMNS = ("FK", "ARI", "BScr", "SARI", "RL", "4gram")


def _ngram_set(tokens: Sequence[str], n: int) -> set[tuple[str, ...]]:
    return {
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    }


def _graded_f1(candidate: set, target: set) -> float:
    """F1 of a candidate set against a target set.

    Both empty is vacuously perfect; an empty candidate against a non-empty
    target scores 0.
    """
    if not candidate and not target:
        return 1.0
    if not candidate:
        return 0.0
    overlap = len(candidate & target)
    precision = overlap / len(candidate)
    recall = overlap / len(target) if target else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _graded_precision(candidate: set, target: set) -> float:
    if not candidate and not target:
        return 1.0
    if not candidate:
        return 0.0
    return len(candidate & target) / len(candidate)


def sari(source: str, output: str, references: Sequence[str]) -> float:
    """Set-based SARI in [0, 100].

    Example:
        >>> sari("a", "b", ["a"])
        0.0
    """
    if not references:
        raise ValueError("sari needs at least one reference")
    return _sari_words(
        word_tokens(source, lowercase=True),
        word_tokens(output, lowercase=True),
        [word_tokens(ref, lowercase=True) for ref in references],
    )


def _sari_words(
    src: Sequence[str], out: Sequence[str], refs: Sequence[Sequence[str]]
) -> float:
    """:func:`sari` over case-folded word tokens."""
    order_scores = []
    for n in _SARI_ORDERS:
        src_grams = _ngram_set(src, n)
        out_grams = _ngram_set(out, n)
        ref_grams: set[tuple[str, ...]] = set()
        for ref in refs:
            ref_grams |= _ngram_set(ref, n)
        if not (src_grams or out_grams or ref_grams):
            continue
        add = _graded_f1(out_grams - src_grams, ref_grams - src_grams)
        keep = _graded_f1(out_grams & src_grams, ref_grams & src_grams)
        delete = _graded_precision(src_grams - out_grams, src_grams - ref_grams)
        order_scores.append((add + keep + delete) / 3)
    if not order_scores:
        return 100.0
    return 100.0 * sum(order_scores) / len(order_scores)


def _suffix_lcs_table(ref: Sequence[str], cand: Sequence[str]):
    n, m = len(ref), len(cand)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = table[i]
        below = table[i + 1]
        for j in range(m - 1, -1, -1):
            if ref[i] == cand[j]:
                row[j] = 1 + below[j + 1]
            else:
                row[j] = max(below[j], row[j + 1])
    return table


def _leftmost_lcs_positions(
    ref: Sequence[str], cand: Sequence[str]
) -> set[int]:
    """Reference positions of the longest common subsequence, choosing the
    lexicographically smallest position tuple among maximal alignments."""
    table = _suffix_lcs_table(ref, cand)
    positions: set[int] = set()
    i = j = 0
    n, m = len(ref), len(cand)
    while i < n and j < m and table[i][j] > 0:
        matched = False
        for jp in range(j, m):
            if cand[jp] == ref[i] and 1 + table[i + 1][jp + 1] == table[i][j]:
                positions.add(i)
                i += 1
                j = jp + 1
                matched = True
                break
        if not matched:
            i += 1
    return positions


def rouge_lsum(output: str, reference: str) -> float:
    """Summary-level ROUGE-L F1 in [0, 1].

    Example:
        >>> round(rouge_lsum("a b c", "a c"), 4)
        0.8
    """
    return _rouge_lsum_tokens(tokenize(output), tokenize(reference))


def _rouge_lsum_tokens(out_tl: TokenList, ref_tl: TokenList) -> float:
    """:func:`rouge_lsum` over tokenized texts."""
    ref_sents = [
        [t.surface.lower() for t in sent] for sent in ref_tl.sentences()
    ]
    out_sents = [
        [t.surface.lower() for t in sent] for sent in out_tl.sentences()
    ]
    if not ref_sents:
        raise ValueError("reference has no word tokens")
    if not out_sents:
        raise ValueError("output has no word tokens")

    total_ref = sum(len(s) for s in ref_sents)
    total_out = sum(len(s) for s in out_sents)
    hits = 0
    for ref_sent in ref_sents:
        union: set[int] = set()
        for out_sent in out_sents:
            union |= _leftmost_lcs_positions(ref_sent, out_sent)
        hits += len(union)
    precision = hits / total_out
    recall = hits / total_ref
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def fourgram_overlap(output: str, source: str) -> float | None:
    """Share of distinct output 4-grams copied from the source, in
    [0, 100].  None when the output has fewer than four words (the
    statistic is undefined there, not zero).

    Example:
        >>> fourgram_overlap("a b c d e", "x a b c d y")
        50.0
    """
    return _fourgram_overlap_words(
        word_tokens(output, lowercase=True), word_tokens(source, lowercase=True)
    )


def _fourgram_overlap_words(
    out: Sequence[str], src: Sequence[str]
) -> float | None:
    """:func:`fourgram_overlap` over case-folded word tokens."""
    out_grams = _ngram_set(out, _OVERLAP_ORDER)
    if not out_grams:
        return None
    src_grams = _ngram_set(src, _OVERLAP_ORDER)
    return 100.0 * len(out_grams & src_grams) / len(out_grams)


@dataclass(frozen=True)
class MetricBundle:
    """Per-document metric row.  ``fourgram`` is None when undefined."""

    fk: float
    ari: float
    consistency: float
    sari: float
    rouge_lsum: float
    fourgram: float | None

    def as_cells(self) -> tuple:
        return (
            self.fk,
            self.ari,
            self.consistency,
            self.sari,
            self.rouge_lsum,
            self.fourgram,
        )


@dataclass(frozen=True)
class EvalReport:
    """All per-document rows plus the corpus mean row.

    The mean of the 4-gram overlap column averages only the documents where
    it is defined, and is None when it is defined nowhere.
    """

    rows: tuple[tuple[str, MetricBundle], ...]
    mean: MetricBundle


def evaluate_corpus(
    documents: Sequence[Document],
    outputs: Sequence[str],
    scorer: ConsistencyScorer | None = None,
) -> EvalReport:
    """Score one output per document and aggregate.

    Outputs align with documents by position.  Consistency is scored
    against the document input; SARI uses the label as the single
    reference; ROUGE-LSum compares output to label.  Each row's output,
    input and label are tokenized once and every metric reads those
    tokens; the input is prepared with
    :func:`~simpkit.consistency.prepare_source`, which the lexical scorer
    reuses.
    """
    if not documents:
        raise ValueError("evaluate_corpus needs at least one document")
    if len(outputs) != len(documents):
        raise ValueError(
            f"got {len(outputs)} outputs for {len(documents)} documents"
        )
    scorer = scorer if scorer is not None else LexicalScorer()

    rows = []
    for doc, output in zip(documents, outputs):
        out_tl = tokenize(output)
        out_words = out_tl.word_surfaces(lowercase=True)
        if not out_words:
            raise ValueError(f"document {doc.id!r}: output has no word tokens")
        src_words = prepare_source(doc.input).words
        label_tl = tokenize(doc.label)
        bundle = MetricBundle(
            fk=flesch_kincaid_tokens(out_tl),
            ari=ari_tokens(out_tl),
            consistency=scorer.score(output, doc.input),
            sari=_sari_words(
                src_words, out_words, [label_tl.word_surfaces(lowercase=True)]
            ),
            rouge_lsum=_rouge_lsum_tokens(out_tl, label_tl),
            fourgram=_fourgram_overlap_words(out_words, src_words),
        )
        rows.append((doc.id, bundle))

    count = len(rows)
    fourgram_values = [
        b.fourgram for _, b in rows if b.fourgram is not None
    ]
    mean = MetricBundle(
        fk=sum(b.fk for _, b in rows) / count,
        ari=sum(b.ari for _, b in rows) / count,
        consistency=sum(b.consistency for _, b in rows) / count,
        sari=sum(b.sari for _, b in rows) / count,
        rouge_lsum=sum(b.rouge_lsum for _, b in rows) / count,
        fourgram=(
            sum(fourgram_values) / len(fourgram_values)
            if fourgram_values
            else None
        ),
    )
    return EvalReport(rows=tuple(rows), mean=mean)


def _format_cell(value: float | None) -> str:
    return "NA" if value is None else f"{value:.4f}"


def report_tsv(report: EvalReport) -> str:
    """Tab-separated report: header, one row per document, a MEAN row."""
    lines = ["id\t" + "\t".join(_COLUMNS)]
    for doc_id, bundle in report.rows:
        cells = "\t".join(_format_cell(v) for v in bundle.as_cells())
        lines.append(f"{doc_id}\t{cells}")
    mean_cells = "\t".join(_format_cell(v) for v in report.mean.as_cells())
    lines.append(f"MEAN\t{mean_cells}")
    return "\n".join(lines) + "\n"


def report_table(report: EvalReport) -> str:
    """Aligned plain-text report with the same rows as :func:`report_tsv`."""
    header = ["id", *_COLUMNS]
    body = [
        [doc_id] + [_format_cell(v) for v in bundle.as_cells()]
        for doc_id, bundle in report.rows
    ]
    body.append(["MEAN"] + [_format_cell(v) for v in report.mean.as_cells()])
    widths = [
        max(len(row[col]) for row in [header, *body])
        for col in range(len(header))
    ]
    lines = []
    for row in [header, *body]:
        cells = [
            row[0].ljust(widths[0]),
            *(cell.rjust(width) for cell, width in zip(row[1:], widths[1:])),
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
