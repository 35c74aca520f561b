"""Span tracing for the traced benchmark run, installed from outside the package.

Each wrapped callable records one span per call: its name, the span that was
open when it was called (its parent), and start and end times from
``perf_counter_ns``.  Spans live in flat integer arrays while the run goes on
and are written out once, when it ends.

The package's modules import each other's names directly (``rerank`` binds
``flesch_kincaid`` and ``word_tokens``, ``simpeval`` binds ``tokenize``), so
a function wrapper is installed in every loaded module namespace that binds
the original object, and method wrappers are installed on the class.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# (module, attribute path, span name).  A dotted attribute path names a
# method or classmethod on a class of that module.
TRACED = (
    ("simpkit.textseg", "tokenize", "textseg.tokenize"),
    ("simpkit.textseg", "word_tokens", "textseg.word_tokens"),
    ("simpkit.textseg", "count_syllables", "textseg.count_syllables"),
    ("simpkit.textseg", "extract_entities", "textseg.extract_entities"),
    ("simpkit.textseg", "entity_word_positions", "textseg.entity_word_positions"),
    ("simpkit.readability", "flesch_kincaid", "readability.flesch_kincaid"),
    ("simpkit.readability", "ari", "readability.ari"),
    ("simpkit.readability", "FkWeightTable.for_vocab", "readability.FkWeightTable.for_vocab"),
    ("simpkit.consistency", "LexicalScorer.score", "consistency.LexicalScorer.score"),
    ("simpkit.consistency", "unsupported_entities", "consistency.unsupported_entities"),
    ("simpkit.rerank", "score_candidate", "rerank.score_candidate"),
    ("simpkit.rerank", "rank_beams", "rerank.rank_beams"),
    ("simpkit.decoder", "beam_search", "decoder.beam_search"),
    ("simpkit.decoder", "NGramLM.next_distribution", "decoder.next_distribution"),
    ("simpkit.decoder", "NGramLM.train", "decoder.NGramLM.train"),
    ("simpkit.ulloss", "StepDistribution.__init__", "ulloss.StepDistribution"),
    ("simpkit.ulloss", "hallucinated_set", "ulloss.hallucinated_set"),
    ("simpkit.ulloss", "total_loss", "ulloss.total_loss"),
    ("simpkit.ulloss", "loss_gradient", "ulloss.loss_gradient"),
    ("simpkit.simpeval", "sari", "simpeval.sari"),
    ("simpkit.simpeval", "rouge_lsum", "simpeval.rouge_lsum"),
    ("simpkit.simpeval", "fourgram_overlap", "simpeval.fourgram_overlap"),
    ("simpkit.simpeval", "evaluate_corpus", "simpeval.evaluate_corpus"),
    ("simpkit.simpeval", "report_tsv", "simpeval.report_tsv"),
    ("simpkit.simpeval", "report_table", "simpeval.report_table"),
    ("simpkit.corpus", "load_jsonl", "corpus.load_jsonl"),
    ("simpkit.corpus", "load_outputs", "corpus.load_outputs"),
    ("simpkit.cli", "run_cli", "cli.run_cli"),
)

# Spans whose first argument's length is recorded as the span's size.
SIZED = {"rerank.rank_beams"}

NO_PARENT = -1


class Tracer:
    """In-memory span recorder.  One instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [NO_PARENT]
        self._undo: list[tuple[object, str, object, bool]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def span(self, name: str) -> "_Span":
        """Context manager recording one span, e.g. around one benchmark op."""
        return _Span(self, self.name_id(name))

    def _open(self, name_id: int, size: int = 0) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        sized = name in SIZED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id, len(args[0]) if sized else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return traced

    def install(self) -> None:
        """Wrap every callable in :data:`TRACED` where the package binds it.

        Functions are replaced in each ``simpkit`` module whose namespace
        holds the original object; methods are replaced on their class.
        """
        namespaces = [
            mod
            for modname, mod in list(sys.modules.items())
            if modname == "simpkit" or modname.startswith("simpkit.")
        ]
        for modname, path, span_name in TRACED:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, span_name))
                else:
                    wrapped = self.wrap(raw, span_name)
                self._set(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(original, span_name)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def _set(self, target, attr: str, value) -> None:
        had_own = attr in vars(target)
        self._undo.append((target, attr, vars(target).get(attr), had_own))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        """Put back every original object :meth:`install` replaced."""
        while self._undo:
            target, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                own[parent] -= self.end[sid] - self.start[sid]
        return own

    def roots(self) -> list[int]:
        """The outermost span each span descends from (itself for a root).

        A parent is always opened before its children, so one forward pass
        settles every span.
        """
        root = [0] * len(self.parent)
        for sid, parent in enumerate(self.parent):
            root[sid] = sid if parent == NO_PARENT else root[parent]
        return root

    def under(self, ancestor_name: str) -> list[bool]:
        """Whether each span has an ancestor span called ``ancestor_name``."""
        target = self._name_ids.get(ancestor_name, -2)
        flag = [False] * len(self.parent)
        for sid, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                flag[sid] = flag[parent] or self.name[parent] == target
        return flag

    def dump(self, path: str, summary: dict) -> None:
        """Write every span plus a summary as one JSON object."""
        payload = {
            "summary": summary,
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "size": self.size.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id
        self.sid = NO_PARENT

    def __enter__(self) -> "_Span":
        self.sid = self._tracer._open(self._name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self.sid)
