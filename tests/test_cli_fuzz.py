"""Fuzzed ``run_cli`` calls keep the CLI's documented contract.

Over generated argument lists, config files, corpus, outputs, scores,
entity and steps files, every call returns 0, 1 or 2, prints an ``error:``
line whenever it does not return 0, and never raises.  Numeric values are
kept within a few units, so that a generated decode over a tiny corpus
finishes in milliseconds; the contract is about how inputs are rejected,
not about long runs.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simpkit.cli import run_cli

_WORDS = ["the", "cat", "sat", "Aspirin", "Smith", "Dr.", "12", "e.g.", "٣", "."]
_TEXTS = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
_NONEMPTY_TEXTS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(
    " ".join
)
_STRINGS = st.one_of(_TEXTS, st.text(max_size=8))

_FILES = ["corpus", "outputs", "scores", "config", "entities", "steps"]
# ``@name`` stands for the path of ``name`` in the run's directory.
_PATHS = ["@" + name for name in _FILES + ["out", "missing", "nodir/out", "dir"]]
_NUMBERS = ["-1", "0", "1", "2", "3", "5", "0.5", "1e-3", "nan", "inf", "x", ""]
_SCORERS = ["lexical", "precomputed"]
_VALUES = st.one_of(
    st.sampled_from(_NUMBERS + _PATHS + _SCORERS + ["true", "off"]), _STRINGS
)
_PATH_FLAGS = {
    "--corpus", "--out", "--outputs", "--report", "--scores", "--config",
    "--entities-file", "--steps", "--entities",
}
_NUMBER_FLAGS = {
    "--beam-width", "--rerank-k", "--max-length", "--length-penalty",
    "--ngram-order", "--fk", "--fb", "--nll", "--lambda-r", "--lambda-c",
    "--epsilon", "--limit",
}


def _value_for(flag):
    """Half the time a value of the flag's own kind, else anything."""
    if flag in _PATH_FLAGS:
        kind = st.sampled_from(_PATHS)
    elif flag in _NUMBER_FLAGS:
        kind = st.sampled_from(_NUMBERS)
    elif flag == "--scorer":
        kind = st.sampled_from(_SCORERS)
    else:
        kind = _STRINGS
    return st.one_of(kind, _VALUES)

_SCORER = ["--scorer", "--scores", "--config"]
# Per command: the flags that get it past its required arguments, and the
# flags it accepts.  Most generated runs then reach the file readers.
_COMMANDS = {
    "decode": (
        ["--corpus", "@corpus", "--out", "@out", "--max-length", "8"],
        ["--beam-width", "--rerank-k", "--max-length", "--length-penalty",
         "--ngram-order", "--no-hallucination-heuristic", "--corpus", "--out",
         "--config"],
    ),
    "eval": (
        ["--corpus", "@corpus"],
        ["--outputs", "--report", "--corpus"] + _SCORER,
    ),
    "score": (
        ["--candidate", "the cat", "--source", "Smith sat"],
        ["--candidate", "--source", "--fk", "--fb", "--entities-file",
         "--entities-id", "--no-hallucination-heuristic"] + _SCORER,
    ),
    "loss": (
        ["--steps", "@steps", "--input", "the cat", "--label", "cat"],
        ["--steps", "--input", "--label", "--nll", "--lambda-r", "--lambda-c",
         "--epsilon", "--entities", "--config"],
    ),
    "judge-prompt": (
        ["--corpus", "@corpus"],
        ["--corpus", "--outputs", "--limit", "--out", "--config"],
    ),
    "bogus": ([], ["--corpus"]),
}
_ANY_FLAG = sorted({f for _, flags in _COMMANDS.values() for f in flags}) + [
    "--help", "--bogus",
]
_BAD_CONFIG_KEYS = ["func", "command", "config", "warp_drive"]

_DOC_LINES = st.one_of(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["d1", "d2", ""]), "input": _TEXTS, "label": _TEXTS},
        optional={"output": st.one_of(_TEXTS, st.integers(0, 3))},
    ).map(lambda record: json.dumps(record, ensure_ascii=False)),
    st.sampled_from(["", "{", "[1, 2]", '{"id": "d1"}', '"text"', "null"]),
)
_VALID_DOCS = st.lists(
    st.tuples(_NONEMPTY_TEXTS, _NONEMPTY_TEXTS, _TEXTS), min_size=1, max_size=3
).map(lambda rows: "".join(
    json.dumps({"id": f"d{i}", "input": src, "label": ref, "output": out}) + "\n"
    for i, (src, ref, out) in enumerate(rows, start=1)
))
_JSONL = st.one_of(
    _VALID_DOCS,
    st.lists(_DOC_LINES, max_size=3).map(lambda lines: "\n".join(lines) + "\n"),
)


def _lines(strategy):
    return st.lists(strategy, max_size=3).map("".join)


# Valid rows for a vocabulary of each size, and rows that are not.
_ROWS = {
    1: [[1.0]],
    2: [[0.5, 0.5], [1.0, 0.0]],
    3: [[0.25, 0.25, 0.5], [0.0, 0.0, 1.0]],
}
_BAD_ROWS = [[], [0.5], [-1.0, 2.0], [[1.0]], ["x"]]


def _steps_payloads(word):
    def payload(vocab):
        return st.fixed_dictionaries(
            {"vocab": st.just(vocab),
             "steps": st.one_of(
                 st.lists(st.sampled_from(_ROWS[len(vocab)]), min_size=1, max_size=3),
                 st.lists(st.sampled_from(_ROWS[len(vocab)] + _BAD_ROWS), max_size=3),
             )},
            optional={
                "nll": st.sampled_from(
                    [0.5, 3, -1.0, "x", True, math.inf, math.nan, 10**400]
                ),
                "target": st.lists(
                    st.one_of(word, st.sampled_from([[1], 7, None])), max_size=3
                ),
            },
        ).map(json.dumps)

    return st.lists(word, min_size=1, max_size=3, unique=True).flatmap(payload)


@st.composite
def _runs(draw):
    """An argument list plus the bytes of every input file it may name."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, flags = _COMMANDS[command]
    flag = st.one_of(st.sampled_from(flags), st.sampled_from(_ANY_FLAG))

    argv = [command] + (required if draw(st.integers(0, 3)) else [])
    for name in draw(st.lists(flag, max_size=4)):
        argv += [name, draw(_value_for(name))] if draw(st.integers(0, 3)) else [name]
    if draw(st.booleans()):
        argv += ["--config", "@config"]

    config_line = st.one_of(
        st.sampled_from(flags).flatmap(lambda f: st.builds(
            "{}{} = {}\n".format,
            st.just(f[2:3]),
            st.sampled_from([f[3:], f[3:].replace("-", "_")]),
            _value_for(f),
        )),
        st.builds("{} = {}\n".format, st.sampled_from(_BAD_CONFIG_KEYS), _VALUES),
    )
    word = st.sampled_from(_WORDS)
    files = {
        "corpus": draw(_JSONL),
        "outputs": draw(_JSONL),
        "scores": draw(_lines(st.builds(
            "{}\t{}\n".format, _TEXTS, st.sampled_from(["0.5", "1", "2", "x", ""])
        ))),
        "config": draw(_lines(config_line)),
        "entities": draw(_lines(
            st.lists(st.one_of(st.sampled_from(["d1", "d2", ""]), word), max_size=3)
            .map(lambda parts: "\t".join(parts) + "\n")
        )),
        "steps": draw(st.one_of(_steps_payloads(word), st.sampled_from(
            ["", "[]", "{", '{"vocab": 1}', '{"vocab": [""], "steps": [[1.0]]}']
        ))),
    }
    undecodable = draw(st.sets(st.sampled_from(_FILES), max_size=1))
    contents = {
        name: b"\xff\xfe" if name in undecodable else text.encode("utf-8")
        for name, text in files.items()
    }
    return argv, contents


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_runs())
def test_run_cli_exits_0_1_or_2_with_an_error_line(run):
    argv, contents = run
    with tempfile.TemporaryDirectory() as root:
        os.mkdir(os.path.join(root, "dir"))
        for name, data in contents.items():
            with open(os.path.join(root, name), "wb") as handle:
                handle.write(data.replace(b"@", (root + os.sep).encode()))
        stdout, stderr = io.StringIO(), io.StringIO()
        # Relative paths in the generated arguments land in ``root`` too.
        with contextlib.chdir(root), contextlib.redirect_stdout(
            stdout
        ), contextlib.redirect_stderr(stderr):
            rc = run_cli([arg.replace("@", root + os.sep) for arg in argv])
    assert rc in (0, 1, 2), (argv, rc)
    if rc != 0:
        assert any(
            line.startswith("error: ") for line in stderr.getvalue().splitlines()
        ), (argv, stderr.getvalue())
