"""The four benchmark workloads: inputs, the op, and the output checks.

Every workload draws its inputs from ``random.Random(seed)``, so the same
seed gives the same inputs.  ``setup`` builds them from scratch each time it
is called (the runner calls it several times and times each call);
``expect`` then derives what each output must be without calling the code
under test; ``op`` runs one unit of work; ``check`` raises
:class:`CheckError` when an op's output is wrong.

The package is reached through module attributes (``decoder.beam_search``,
not a bound name) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from collections import Counter
from contextlib import redirect_stdout

import numpy as np

from simpkit import cli, corpus, decoder, readability, synthetic, ulloss


class CheckError(AssertionError):
    """An op's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- decoding


class BigramCounts:
    """Raw bigram counts of whitespace-split training texts.

    The benchmark's own account of what an add-one bigram model assigns; it
    shares no code with ``NGramLM``.
    """

    def __init__(self, texts):
        self.pairs: Counter = Counter()
        self.contexts: Counter = Counter()
        words = set()
        for text in texts:
            tokens = text.split()
            words.update(tokens)
            for prev, word in zip([decoder.BOS] + tokens, tokens + [decoder.EOS]):
                self.pairs[prev, word] += 1
                self.contexts[prev] += 1
        self.vocab_size = len(words) + 2

    def log_prob(self, tokens) -> float:
        total = 0.0
        prev = decoder.BOS
        for word in list(tokens) + [decoder.EOS]:
            total += math.log(
                (self.pairs[prev, word] + 1)
                / (self.contexts[prev] + self.vocab_size)
            )
            prev = word
        return total


def _same_decode(got, want) -> bool:
    return (
        got.tokens == want.tokens
        and got.score == want.score
        and got.log_prob == want.log_prob
        and got.fallback_used == want.fallback_used
        and got.rerank_steps == want.rerank_steps
        and got.scorer_calls == want.scorer_calls
        and got.steps_run == want.steps_run
    )


class _DecodeWorkload:
    """Shared shape of the two decoding workloads: one op decodes one
    synthetic-corpus document with the model assigned to it."""

    config: decoder.DecoderConfig
    oracle_samples: int

    def __init__(self, seed: int, oracles):
        self.seed = seed
        self.oracles = oracles
        self.counts: Counter = Counter()
        self.docs = []  # (example, model index)
        self.models = []

    def op(self, i: int):
        example, m = self.docs[i % len(self.docs)]
        return decoder.beam_search(
            self.models[m], example.document.input, self.config
        )

    def same(self, a, b) -> bool:
        return _same_decode(a, b)

    def final_check(self) -> None:
        """A sample of documents, decoded again, equals the brute-force
        search of ``tests/oracles.py`` field for field."""
        rng = random.Random(self.seed)
        for i in rng.sample(range(len(self.docs)), self.oracle_samples):
            example, m = self.docs[i]
            got = self.op(i)
            want = self.oracles.beam_search_brute(
                self.models[m], example.document.input, self.config
            )
            require(
                _same_decode(got, want),
                f"{example.document.id}: decode differs from the oracle",
            )

    def _check_score(self, doc_id: str, result) -> None:
        """The subscores and composite follow from the reported grade and
        consistency by the oracle's own band and harmonic-mean formulas."""
        o = self.oracles
        score = result.score
        r_f = o.readability_subscore_brute(score.f_f)
        r_b = o.consistency_subscore_brute(score.f_b)
        require(
            (score.r_f, score.r_b, score.r) == (r_f, r_b, o.composite_brute(r_f, r_b)),
            f"{doc_id}: score {score} does not follow from f_F and f_B",
        )

    def _count(self, result) -> None:
        self.counts["steps"] += result.steps_run
        self.counts["rerank_steps"] += len(result.rerank_steps)


class RerankK5(_DecodeWorkload):
    """Composite reranking every 5 steps, one bigram model per document."""

    config = decoder.DecoderConfig(beam_width=4, rerank_interval=5, max_length=20)
    oracle_samples = 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        examples = synthetic.make_examples(200)
        self.models = [
            decoder.NGramLM.train(ex.training_texts, order=2) for ex in examples
        ]
        order = list(range(len(examples)))
        rng.shuffle(order)
        self.docs = [(examples[j], j) for j in order]

    def expect(self) -> None:
        self.expected = [
            (
                tuple(example.simple_text.split()),
                BigramCounts(example.training_texts).log_prob(
                    example.simple_text.split()
                ),
            )
            for example, _ in self.docs
        ]

    def check(self, i: int, result) -> None:
        example, _ = self.docs[i % len(self.docs)]
        tokens, log_prob = self.expected[i % len(self.docs)]
        doc_id = example.document.id
        require(
            result.tokens == tokens,
            f"{doc_id}: decoded {result.text!r}, want {example.simple_text!r}",
        )
        require(not result.fallback_used, f"{doc_id}: fell back")
        require(
            result.log_prob == log_prob,
            f"{doc_id}: log_prob {result.log_prob!r}, want {log_prob!r}",
        )
        self._check_score(doc_id, result)
        self._count(result)


class VanillaWide(_DecodeWorkload):
    """Vanilla beam search at width 8 over models trained on 100 examples
    each, so the vocabulary is several times a single document's."""

    config = decoder.DecoderConfig.vanilla(beam_width=8, max_length=20)
    oracle_samples = 4

    def setup(self) -> None:
        rng = random.Random(self.seed)
        examples = synthetic.make_examples(200)
        subjects = list(synthetic.SUBJECTS)
        rng.shuffle(subjects)
        half = len(subjects) // 2
        group_of = {s: int(k >= half) for k, s in enumerate(subjects)}
        # The simple sentence starts with the example's subject.
        groups = [group_of[ex.simple_text.split()[0]] for ex in examples]
        texts = [[], []]
        for ex, g in zip(examples, groups):
            texts[g].extend(ex.training_texts)
        self.groups = texts
        self.models = [decoder.NGramLM.train(t, order=2) for t in texts]
        order = list(range(len(examples)))
        rng.shuffle(order)
        self.docs = [(examples[j], groups[j]) for j in order]

    def expect(self) -> None:
        self.bigrams = [BigramCounts(texts) for texts in self.groups]
        self.group_decode = {}

    def check(self, i: int, result) -> None:
        example, m = self.docs[i % len(self.docs)]
        doc_id = example.document.id
        require(bool(result.tokens), f"{doc_id}: empty decode")
        require(result.scorer_calls == 1, f"{doc_id}: {result.scorer_calls} scorer calls")
        require(result.rerank_steps == (), f"{doc_id}: reranked")
        require(not result.fallback_used, f"{doc_id}: fell back")
        want = self.bigrams[m].log_prob(result.tokens)
        require(
            result.log_prob == want,
            f"{doc_id}: log_prob {result.log_prob!r}, want {want!r}",
        )
        # The n-gram model ignores the source, so every document sharing a
        # model must decode to the same words.
        first = self.group_decode.setdefault(m, (result.tokens, result.log_prob))
        require(
            first == (result.tokens, result.log_prob),
            f"{doc_id}: decode differs from another document of its model",
        )
        self._check_score(doc_id, result)
        self._count(result)


# -------------------------------------------------------------- evaluation

_LASTS = ("Okafor", "Lindqvist", "Moreau", "Tanaka", "Kowalski", "Haddad",
          "Fernandes", "Novak", "Osei", "Brennan")
_FIRSTS = ("Amara", "Lena", "Jules", "Kenji", "Marta", "Samir", "Ines", "Tomas")
_PLACES = ("St Mary Hospital", "Northfield Clinic", "Riverside Medical Centre",
           "Lakeview Infirmary", "Kingsbridge Health Trust")
_DRUGS = ("Lisinopril", "Metformin", "Atorvastatin", "Warfarin", "Amoxicillin",
          "Omeprazole", "Sertraline")
_CONDITIONS = ("hypertension", "type 2 diabetes", "chronic kidney disease",
               "atrial fibrillation", "asthma")
_SYMPTOMS = ("dizziness", "nausea", "headache", "fatigue", "insomnia", "rash")
_MEASURES = ("blood pressure", "glucose level", "cholesterol level", "heart rate")

_SOURCE = (
    "Dr. {last} of {place} reported that {n} patients with {condition} "
    "received {drug} at approx. {dose} mg per day, i.e. twice the usual "
    "starting dose.",
    "Adverse events, e.g. {sym1} and {sym2}, were recorded in {pct} percent "
    "of treated patients vs. {pct2} percent in the control arm.",
    "As shown in Fig. {fig}, the mean {measure} fell from {a} to {b} within "
    "{weeks} weeks of starting {drug}.",
    "{first} {last2}, a senior nurse at {place}, noted that patients taking "
    "{drug} needed fewer follow-up visits than expected.",
    "The trial, registered as No. {reg}, enrolled adults aged {lo} to {hi} "
    "years and followed them for {months} months.",
    "Prof. {last3} cautioned that the findings, cf. earlier work by Dr. "
    "{last}, may not apply to children or pregnant women.",
    "Patients were advised to report symptoms such as {sym1} promptly, since "
    "early dose changes reduce the risk of complications.",
)

# Reference sentences stay at eight words or fewer: the ROUGE oracle
# enumerates subsets of reference positions.
_LABEL = (
    "{drug} lowered {measure} in most patients.",
    "Doctors gave {drug} to {n} patients.",
    "Some patients had {sym1} or {sym2}.",
    "The drug worked within {weeks} weeks.",
    "Patients needed fewer visits.",
    "It may not suit children.",
)

_EXTRA = (
    "Dr. {last} said {drug} is safe for most adults.",
    "About {pct} percent felt {sym2} at first.",
    "{first} {last2} checked {measure} every {weeks} days.",
)

EVAL_FILES = 24
EVAL_DOCS_PER_FILE = 4
_COLUMNS = ("FK", "ARI", "BScr", "SARI", "RL", "4gram")


def _slots(rng: random.Random) -> dict:
    last, last2, last3 = rng.sample(_LASTS, 3)
    sym1, sym2 = rng.sample(_SYMPTOMS, 2)
    lo = rng.randint(18, 40)
    return {
        "last": last, "last2": last2, "last3": last3,
        "first": rng.choice(_FIRSTS), "place": rng.choice(_PLACES),
        "drug": rng.choice(_DRUGS), "condition": rng.choice(_CONDITIONS),
        "sym1": sym1, "sym2": sym2, "measure": rng.choice(_MEASURES),
        "n": rng.randint(20, 400), "dose": f"{rng.randint(1, 40)}.{rng.randint(0, 9)}",
        "pct": rng.randint(2, 30), "pct2": rng.randint(2, 30),
        "fig": rng.randint(1, 6), "a": f"{rng.randint(120, 180)}.{rng.randint(0, 9)}",
        "b": f"{rng.randint(100, 140)}.{rng.randint(0, 9)}",
        "weeks": rng.randint(2, 12), "reg": rng.randint(1000, 9999),
        "lo": lo, "hi": lo + rng.randint(20, 45), "months": rng.randint(6, 36),
    }


# The make-up of every system output: two reference sentences as they are,
# one with a word swapped, two clipped source sentences and one sentence
# with a name or number of its own, in a seeded order.
_OUTPUT_KINDS = ("label", "label", "swapped", "source", "source", "extra")


def _output_sentence(kind, rng, slots, label_sents, source_sents) -> str:
    if kind == "label":
        return rng.choice(label_sents)
    if kind == "swapped":
        words = rng.choice(label_sents).rstrip(".").split()
        words[rng.randrange(len(words))] = rng.choice(("many", "some", "often", "new"))
        return " ".join(words) + "."
    if kind == "source":
        words = rng.choice(source_sents).split()
        return " ".join(words[: rng.randint(6, 11)]).rstrip(",.") + "."
    return rng.choice(_EXTRA).format(**slots)


def _overwrite(path: str, text: str) -> None:
    """Write ``text`` to ``path`` over the file's old bytes.

    Set-up rewrites the same files with the same bytes each time it runs.
    Truncating and refilling a file, or creating new ones, made the set-up
    timing swing by half with the file system's flushing; writing over the
    old bytes does not.
    """
    data = text.encode("utf-8")
    with open(path, "r+b" if os.path.exists(path) else "wb") as handle:
        handle.write(data)
        handle.truncate()


def make_eval_documents(rng: random.Random, count: int, prefix: str) -> list:
    """Long multi-sentence documents with abbreviations, decimals and names,
    each with a short-sentence reference and a mixed system output."""
    documents = []
    for k in range(count):
        slots = _slots(rng)
        source_sents = [s.format(**slots) for s in _SOURCE]
        label_sents = [s.format(**slots) for s in _LABEL]
        kinds = list(_OUTPUT_KINDS)
        rng.shuffle(kinds)
        output = " ".join(
            _output_sentence(kind, rng, slots, label_sents, source_sents)
            for kind in kinds
        )
        documents.append(
            corpus.Document(
                id=f"{prefix}d{k}",
                input=" ".join(source_sents),
                label=" ".join(label_sents),
                output=output,
            )
        )
    return documents


class EvalLong:
    """``simpkit eval`` run in-process on small corpus files of long
    documents; one op is one invocation on one file."""

    def __init__(self, seed: int, oracles, workdir: str):
        self.seed = seed
        self.oracles = oracles
        self.workdir = workdir
        self.counts: Counter = Counter()

    def _path(self, kind: str, f: int) -> str:
        return os.path.join(self.workdir, f"{kind}-{f:02d}.jsonl")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.files = []
        for f in range(EVAL_FILES):
            docs = make_eval_documents(rng, EVAL_DOCS_PER_FILE, prefix=f"f{f:02d}")
            _overwrite(self._path("corpus", f), "".join(
                json.dumps({"id": d.id, "input": d.input, "label": d.label}) + "\n"
                for d in docs
            ))
            _overwrite(self._path("outputs", f), "".join(
                json.dumps({"id": d.id, "output": d.output}) + "\n" for d in docs
            ))
            self.files.append(docs)

    def expect(self) -> None:
        """Per-document SARI, ROUGE-LSum and 4-gram values from the
        brute-force oracles."""
        o = self.oracles
        self.expected = []
        for docs in self.files:
            rows = []
            for d in docs:
                rows.append((
                    o.sari_brute(d.input, d.output, [d.label]),
                    o.rouge_lsum_brute(d.output, d.label),
                    o.fourgram_overlap_brute(d.output, d.input),
                ))
            self.expected.append(rows)

    def _argv(self, f: int) -> list:
        return [
            "eval",
            "--corpus", self._path("corpus", f),
            "--outputs", self._path("outputs", f),
            "--report", self._report(f),
        ]

    def _report(self, f: int) -> str:
        return os.path.join(self.workdir, f"report-{f:02d}.tsv")

    def op(self, i: int):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.run_cli(self._argv(i % EVAL_FILES))
        return code, buffer.getvalue()

    def same(self, a, b) -> bool:
        return a == b

    def check(self, i: int, output) -> None:
        f = i % EVAL_FILES
        code, table = output
        require(code == 0, f"eval of file {f} exited {code}")
        with open(self._report(f), "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        os.remove(self._report(f))
        docs = self.files[f]
        require(
            len(table.splitlines()) == len(docs) + 2,
            f"file {f}: printed table has {len(table.splitlines())} lines",
        )
        require(lines[0].split("\t") == ["id", *_COLUMNS], f"file {f}: bad header")
        require(len(lines) == len(docs) + 2, f"file {f}: {len(lines)} report lines")
        rows = [line.split("\t") for line in lines[1:]]
        cells = []
        for d, row, want in zip(docs, rows, self.expected[f]):
            require(row[0] == d.id, f"file {f}: row {row[0]!r}, want {d.id!r}")
            values = [None if c == "NA" else float(c) for c in row[1:]]
            require(0.0 <= values[2] <= 1.0, f"{d.id}: consistency {values[2]}")
            sari, rl, fourgram = want
            require(row[4] == f"{sari:.4f}", f"{d.id}: SARI {row[4]}, oracle {sari!r}")
            require(row[5] == f"{rl:.4f}", f"{d.id}: RL {row[5]}, oracle {rl!r}")
            want_4 = "NA" if fourgram is None else f"{fourgram:.4f}"
            require(row[6] == want_4, f"{d.id}: 4gram {row[6]}, oracle {want_4}")
            cells.append(values)
        mean_row = rows[-1]
        require(mean_row[0] == "MEAN", f"file {f}: last row is not MEAN")
        # SARI, RL and 4gram are averaged from the oracle's unrounded values,
        # so only the MEAN cell's own rounding separates them.  FK, ARI and
        # BScr are averaged from the rounded cells, whose rounding adds up to
        # another half unit in the fourth decimal.
        exact = {3: 0, 4: 1, 5: 2}
        for col, name in enumerate(_COLUMNS):
            if col in exact:
                column = [w[exact[col]] for w in self.expected[f]]
                slack = 0.5e-4
            else:
                column = [v[col] for v in cells]
                slack = 1e-4
            column = [v for v in column if v is not None]
            got = mean_row[col + 1]
            if not column:
                require(got == "NA", f"file {f}: MEAN {name} {got}, want NA")
                continue
            want = sum(column) / len(column)
            require(
                abs(float(got) - want) <= slack + 1e-9,
                f"file {f}: MEAN {name} {got}, mean of column {want!r}",
            )
        self.counts["docs"] += len(docs)

    def final_check(self) -> None:
        pass


# ------------------------------------------------------------ unlikelihood

_SYLLABLES = ("ba", "ko", "mi", "ru", "sel", "tan", "vo", "pri", "dex", "lo",
              "fen", "ga", "nu", "tor", "quil")
UL_STEPS = ulloss.MAX_STEPS
UL_PROBLEMS = 200
UL_FD_SAMPLES = 2


def _toy_vocab(rng: random.Random) -> list:
    """100 distinct words: 70 plain words of one to five syllables, 20
    capitalized names and 10 numbers."""
    plain, names, numbers = set(), set(), set()
    while len(plain) < 70:
        plain.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 5))))
    while len(names) < 20:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if name not in plain:
            names.add(name.capitalize())
    while len(numbers) < 10:
        numbers.add(str(rng.randint(2, 999)))
    vocab = sorted(plain) + sorted(names) + sorted(numbers)
    rng.shuffle(vocab)
    return vocab


class ToyProblem:
    def __init__(self, rng: random.Random):
        vocab = _toy_vocab(rng)
        rows = []
        for _ in range(UL_STEPS):
            row = [rng.uniform(-2.0, 2.0) for _ in vocab]
            # A clear favourite per step keeps the argmax away from ties.
            row[rng.randrange(len(vocab))] += 4.0
            rows.append(row)
        self.vocab = tuple(vocab)
        self.logits = rows
        self.model = ulloss.ToyModel(vocab, np.array(rows))
        self.weights = readability.FkWeightTable.for_vocab(vocab)
        self.targets = [rng.randrange(len(vocab)) for _ in range(UL_STEPS)]
        self.input = " ".join(rng.sample(vocab, 15))
        self.label = " ".join(rng.sample(vocab, 10))


def _softmax_rows(logits) -> list:
    probs = []
    for row in logits:
        top = max(row)
        exps = [math.exp(x - top) for x in row]
        total = sum(exps)
        probs.append([e / total for e in exps])
    return probs


class UlLoss:
    """One loss-and-gradient step of the unlikelihood objective on a
    desk-scale toy model."""

    config = ulloss.LossConfig()

    def __init__(self, seed: int, oracles):
        self.seed = seed
        self.oracles = oracles
        self.counts: Counter = Counter()

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.problems = [ToyProblem(rng) for _ in range(UL_PROBLEMS)]

    def expect(self) -> None:
        """Hallucinated set, loss and gradient of every problem, in plain
        Python from the logits and the loss definition."""
        cfg = self.config
        self.expected = []
        for p in self.problems:
            probs = _softmax_rows(p.logits)
            supported = {w.lower() for w in (p.input + " " + p.label).split()}
            argmax = [row.index(max(row)) for row in probs]
            halluc = {
                m for m in argmax
                if (p.vocab[m][0].isupper() or p.vocab[m].isdigit())
                and p.vocab[m].lower() not in supported
            }
            nll = sum(-math.log(row[t]) for row, t in zip(probs, p.targets))
            ul_r = ul_c = 0.0
            grad = []
            for row, m, t in zip(probs, argmax, p.targets):
                q = 1.0 - row[m]
                penalty = -math.log(max(q, cfg.epsilon))
                weight = p.weights[p.vocab[m]]
                ul_r += weight * penalty
                coeff = cfg.lambda_r * weight
                if m in halluc:
                    ul_c += penalty
                    coeff += cfg.lambda_c
                g = list(row)
                g[t] -= 1.0
                if q > cfg.epsilon:
                    for v in range(len(row)):
                        onehot = 1.0 if v == m else 0.0
                        g[v] += coeff * row[m] * (onehot - row[v]) / q
                grad.append(g)
            loss = nll + cfg.lambda_r * ul_r + cfg.lambda_c * ul_c
            self.expected.append((halluc, loss, np.array(grad)))
        self.first = {}

    def op(self, i: int):
        p = self.problems[i % len(self.problems)]
        steps = p.model.step_distributions()
        greedy = [p.vocab[d.argmax_index] for d in steps]
        halluc = ulloss.hallucinated_set(greedy, p.input, p.label, p.vocab)
        loss = ulloss.total_loss(
            p.model.nll(p.targets), steps, p.weights, p.vocab, halluc, self.config
        )
        grad = ulloss.loss_gradient(
            p.model, p.targets, p.weights, halluc, self.config
        )
        return halluc, loss, grad

    def same(self, a, b) -> bool:
        return a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])

    def check(self, i: int, output) -> None:
        k = i % len(self.problems)
        if k in self.first:
            require(self.same(output, self.first[k]), f"problem {k}: output changed on repeat")
            return
        halluc, loss, grad = output
        want_h, want_loss, want_grad = self.expected[k]
        require(set(halluc.indices) == want_h, f"problem {k}: hallucinated set {sorted(halluc.indices)}")
        require(
            math.isclose(loss, want_loss, rel_tol=1e-9),
            f"problem {k}: loss {loss!r}, want {want_loss!r}",
        )
        require(grad.shape == want_grad.shape, f"problem {k}: gradient shape {grad.shape}")
        require(
            np.allclose(grad, want_grad, rtol=1e-9, atol=1e-12),
            f"problem {k}: gradient differs from the plain-Python one",
        )
        self.first[k] = output

    def final_check(self) -> None:
        """On a sample of problems, the analytic gradient matches central
        finite differences, where no argmax is near a tie."""
        o = self.oracles
        rng = random.Random(self.seed)
        checked = 0
        for k in rng.sample(range(len(self.problems)), len(self.problems)):
            p = self.problems[k]
            if o.min_argmax_gap(p.model.probs()) <= 0.01:
                continue
            _, _, grad = self.op(k)
            numeric = o.finite_difference_gradient(
                p.vocab, np.array(p.logits), p.targets, p.weights,
                ulloss.HallucinationSet(frozenset(self.expected[k][0])),
                self.config,
            )
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            require(
                float(np.linalg.norm(grad - numeric)) <= 1e-4 * scale,
                f"problem {k}: gradient differs from finite differences",
            )
            checked += 1
            if checked == UL_FD_SAMPLES:
                return
        raise CheckError("no problem clear of argmax ties for the gradient check")
