"""Command-line entry points: decode, eval, score, loss, judge-prompt."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from simpkit import cli
from simpkit.cli import build_parser, run_cli
from simpkit.corpus import (
    Document,
    apply_config_overrides,
    dump_jsonl,
    load_entity_sets,
    load_jsonl,
    load_outputs,
    parse_config_file,
)

_DOCS = [
    Document(id="d1", input="nurses can use and help the care plan now",
             label="nurses can use and help the care plan now"),
    Document(id="d2", input="doctors can check and test the care plan now",
             label="doctors can check and test the care plan now"),
]


def _with_outputs(output=None):
    """``_DOCS`` with an output field: ``output``, or else each label."""
    return [dataclasses.replace(d, output=output or d.label) for d in _DOCS]


@pytest.fixture
def corpus_path(tmp_path):
    path = str(tmp_path / "corpus.jsonl")
    dump_jsonl(_DOCS, path)
    return path


def test_decode_writes_records(corpus_path, tmp_path):
    out = str(tmp_path / "decoded.jsonl")
    rc = run_cli([
        "decode", "--corpus", corpus_path, "--out", out,
        "--beam-width", "2", "--rerank-k", "2", "--max-length", "8",
    ])
    assert rc == 0
    records = [json.loads(line) for line in open(out, encoding="utf-8")]
    assert [r["id"] for r in records] == ["d1", "d2"]
    for record in records:
        assert set(record) == {
            "id", "output", "r", "f_F", "f_B", "fallback", "scorer_calls",
        }
        assert isinstance(record["output"], str)
        assert record["scorer_calls"] > 0
        assert not record["fallback"]


def test_decode_trains_on_corpus_labels(corpus_path, tmp_path):
    out = str(tmp_path / "decoded.jsonl")
    assert run_cli(["decode", "--corpus", corpus_path, "--out", out]) == 0
    label_words = set()
    for doc in _DOCS:
        label_words.update(doc.label.split())
    for line in open(out, encoding="utf-8"):
        for word in json.loads(line)["output"].split():
            assert word in label_words


def test_decode_missing_corpus_is_a_data_error(tmp_path, capsys):
    rc = run_cli([
        "decode", "--corpus", str(tmp_path / "nope.jsonl"),
        "--out", str(tmp_path / "o.jsonl"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_decode_rejects_bad_width(corpus_path, tmp_path, capsys):
    rc = run_cli([
        "decode", "--corpus", corpus_path,
        "--out", str(tmp_path / "o.jsonl"), "--beam-width", "0",
    ])
    assert rc == 1
    assert "beam_width" in capsys.readouterr().err


def test_eval_prints_table_and_writes_tsv(tmp_path, capsys):
    # Outputs live in the corpus records themselves here.
    corpus = str(tmp_path / "decoded_corpus.jsonl")
    dump_jsonl(_with_outputs(), corpus)
    report = str(tmp_path / "report.tsv")
    rc = run_cli(["eval", "--corpus", corpus, "--report", report])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "MEAN" in shown and "d1" in shown
    lines = open(report, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("id\tFK")
    assert len(lines) == 4


def test_eval_with_outputs_file(corpus_path, tmp_path, capsys):
    outputs = str(tmp_path / "outputs.jsonl")
    with open(outputs, "w", encoding="utf-8") as handle:
        for doc in _DOCS:
            handle.write(json.dumps({"id": doc.id, "output": doc.label}) + "\n")
    assert run_cli(["eval", "--corpus", corpus_path, "--outputs", outputs]) == 0
    assert "MEAN" in capsys.readouterr().out


def test_eval_without_outputs_anywhere(tmp_path, capsys):
    path = str(tmp_path / "bare.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "x", "input": "a b", "label": "a b"}) + "\n")
    rc = run_cli(["eval", "--corpus", path])
    assert rc == 2
    assert "decode first" in capsys.readouterr().err


def _one_line_scores(tmp_path):
    path = str(tmp_path / "scores.tsv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("nurses can use\t0.9\n")
    return path


@pytest.fixture
def second_decode_fails(monkeypatch):
    """``beam_search`` as ``decode`` calls it, raising the ``KeyError`` of a
    scorer miss on the second document, after the first was decoded."""
    real = cli.beam_search
    calls = []

    def fake(lm, source, config, scorer):
        calls.append(source)
        if len(calls) == 2:
            raise KeyError("no precomputed score for candidate key 'x'")
        return real(lm, source, config, scorer)

    monkeypatch.setattr(cli, "beam_search", fake)


def test_decode_missing_precomputed_score_is_a_data_error(
    corpus_path, tmp_path, capsys, second_decode_fails
):
    out = tmp_path / "o.jsonl"
    rc = run_cli(["decode", "--corpus", corpus_path, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: document 'd2': ")
    assert "no precomputed score" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_failed_decode_leaves_out_as_it_was(
    corpus_path, tmp_path, second_decode_fails
):
    out = tmp_path / "o.jsonl"
    out.write_text('{"id": "old"}\n', encoding="utf-8")
    rc = run_cli(["decode", "--corpus", corpus_path, "--out", str(out)])
    assert rc == 2
    assert out.read_text(encoding="utf-8") == '{"id": "old"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "o.jsonl",
    ]


def test_decode_has_no_scorer_flags(corpus_path, tmp_path, capsys):
    for flags in (["--scorer", "lexical"], ["--scores", "s.tsv"]):
        rc = run_cli([
            "decode", "--corpus", corpus_path,
            "--out", str(tmp_path / "o.jsonl"), *flags,
        ])
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_decode_replaces_out_on_success(corpus_path, tmp_path):
    out = tmp_path / "o.jsonl"
    out.write_text("stale\n" * 10, encoding="utf-8")
    rc = run_cli([
        "decode", "--corpus", corpus_path, "--out", str(out),
        "--max-length", "4",
    ])
    assert rc == 0
    ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
    assert ids == ["d1", "d2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "o.jsonl",
    ]


def test_decode_with_a_huge_ngram_order(tmp_path, capsys):
    """Orders past the longest label plus two decode like that order, so
    10**18 neither pads 10**18 markers nor changes the output."""
    corpus = str(tmp_path / "one.jsonl")
    dump_jsonl(_DOCS[:1], corpus)
    outputs = {}
    for order in ("11", "1000000000000000000"):
        out = tmp_path / f"o{order}.jsonl"
        rc = run_cli([
            "decode", "--corpus", corpus, "--out", str(out),
            "--max-length", "8", "--ngram-order", order,
        ])
        assert rc == 0
        outputs[order] = out.read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""
    assert outputs["11"] == outputs["1000000000000000000"]


def test_decode_writes_no_empty_output_that_eval_rejects(tmp_path, capsys):
    """At k=1 every worded beam of the final pool scores r = 0: it names a
    drug or dose the source lacks, or falls below the consistency floor.
    The one-step EOS beam, with no words, used to win that pool on log
    probability and be written as an empty output."""
    drugs = ("Aspirin", "Ibuprofen", "Warfarin", "Insulin", "Heparin",
             "Metformin", "Lisinopril", "Digoxin")
    docs = [
        Document(
            id=f"{drug}-{dose}",
            input=f"the ward said that patients took {drug} {dose} mg "
                  "each day with food",
            label=f"patients took {drug} {dose} mg daily",
        )
        for drug in drugs
        for dose in (5, 10, 20, 40, 80)
    ]
    corpus = str(tmp_path / "drugs.jsonl")
    dump_jsonl(docs, corpus)
    out = str(tmp_path / "decoded.jsonl")
    rc = run_cli([
        "decode", "--corpus", corpus, "--out", out,
        "--rerank-k", "1", "--max-length", "12",
    ])
    assert rc == 0
    records = [json.loads(line) for line in open(out, encoding="utf-8")]
    assert len(records) == 40
    assert all(record["output"] for record in records)
    assert run_cli(["eval", "--corpus", corpus, "--outputs", out]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("target", ["nodir/o.jsonl", "."])
def test_unwritable_out_is_a_data_error(corpus_path, tmp_path, capsys, target):
    out = str(tmp_path / target)
    rc = run_cli(["decode", "--corpus", corpus_path, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_unwritable_report_is_a_data_error(tmp_path, capsys):
    corpus = str(tmp_path / "decoded_corpus.jsonl")
    dump_jsonl(_with_outputs(), corpus)
    report = str(tmp_path / "nodir" / "report.tsv")
    rc = run_cli(["eval", "--corpus", corpus, "--report", report])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_eval_missing_precomputed_score_is_a_data_error(tmp_path, capsys):
    corpus = str(tmp_path / "decoded_corpus.jsonl")
    dump_jsonl(_with_outputs(), corpus)
    rc = run_cli([
        "eval", "--corpus", corpus,
        "--scorer", "precomputed", "--scores", _one_line_scores(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no precomputed score" in err


def test_score_direct_mode(capsys):
    assert run_cli(["score", "--fk", "12.0", "--fb", "0.84"]) == 0
    out = capsys.readouterr().out
    assert "f_F = 12.0000" in out
    assert "r_F = 0.5000" in out
    assert "r_B = 0.6000" in out
    expected = (2.0 * 0.5 * 0.6 / 1.1) ** 2
    assert f"r = {expected:.4f}" in out


def test_score_textual_mode(capsys):
    rc = run_cli([
        "score", "--candidate", "took Aspirin today",
        "--source", "took a pill today",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hallucination_zeroed = true" in out
    assert "unsupported_entities = Aspirin" in out
    assert "r = 0.0000" in out


def test_score_textual_heuristic_off(capsys):
    rc = run_cli([
        "score", "--candidate", "took Aspirin today",
        "--source", "took a pill today", "--no-hallucination-heuristic",
    ])
    assert rc == 0
    assert "hallucination_zeroed = false" in capsys.readouterr().out


def test_score_with_entity_file_zeroes_once(tmp_path, capsys):
    entities = tmp_path / "entities.tsv"
    entities.write_text("c1\tAdvil\tpill\nc2\tpill\n", encoding="utf-8")
    base = [
        "score", "--candidate", "took Aspirin today",
        "--source", "took a pill today", "--entities-file", str(entities),
    ]
    assert run_cli(base + ["--entities-id", "c1"]) == 0
    out = capsys.readouterr().out
    assert "hallucination_zeroed = true" in out
    assert "unsupported_entities = Advil" in out
    assert "r = 0.0000" in out

    # the listed entities replace extraction: Aspirin is not checked
    assert run_cli(base + ["--entities-id", "c2"]) == 0
    out = capsys.readouterr().out
    assert "hallucination_zeroed = false" in out
    assert "unsupported_entities" not in out

    assert run_cli(
        base + ["--entities-id", "c1", "--no-hallucination-heuristic"]
    ) == 0
    assert "hallucination_zeroed = false" in capsys.readouterr().out


def test_score_usage_errors(capsys):
    assert run_cli(["score"]) == 1
    assert run_cli(["score", "--fk", "3.0"]) == 1
    assert run_cli(["score", "--candidate", "x"]) == 1
    assert run_cli([
        "score", "--fk", "1.0", "--fb", "0.5", "--candidate", "x",
        "--source", "y",
    ]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 4


def _steps_payload(tmp_path, **extra):
    payload = {
        "vocab": ["simple", "hemorrhage"],
        "steps": [[0.3, 0.7], [0.5, 0.5]],
        **extra,
    }
    path = str(tmp_path / "steps.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def test_loss_command_computes_all_terms(tmp_path, capsys):
    from simpkit.readability import word_fk

    steps = _steps_payload(tmp_path, target=["simple", "hemorrhage"])
    entities = str(tmp_path / "entities.txt")
    with open(entities, "w", encoding="utf-8") as handle:
        handle.write("hemorrhage\n")
    rc = run_cli([
        "loss", "--steps", steps, "--input", "an easy plan",
        "--label", "an easy plan", "--entities", entities,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, raw = line.partition(" = ")
        values[key] = float(raw)
    nll = -math.log(0.3) - math.log(0.5)
    ul_r = (
        word_fk("hemorrhage") * -math.log(1.0 - 0.7)
        + word_fk("simple") * -math.log(1.0 - 0.5)
    )
    ul_c = -math.log(1.0 - 0.7)
    assert math.isclose(values["NLL"], nll, abs_tol=5e-7)
    assert math.isclose(values["UL_R"], ul_r, abs_tol=5e-7)
    assert math.isclose(values["UL_C"], ul_c, abs_tol=5e-7)
    assert math.isclose(
        values["total"], nll + 7.5e-4 * ul_r + 2.5e-4 * ul_c, abs_tol=5e-7
    )


def test_loss_taxes_the_greedy_word_behind_each_entity(tmp_path, capsys):
    # the greedy decode is [".", "Aspirin"]: only "Aspirin" is an entity
    steps = str(tmp_path / "steps.json")
    with open(steps, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "vocab": [".", "Aspirin", "the"],
                "steps": [[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]],
                "nll": 1.0,
            },
            handle,
        )
    rc = run_cli(["loss", "--steps", steps, "--input", "the", "--label", "the"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"UL_C = {-math.log(1.0 - 0.8):.6f}" in out


def test_loss_nll_flag_overrides_target(tmp_path, capsys):
    steps = _steps_payload(tmp_path, target=["simple", "hemorrhage"])
    rc = run_cli([
        "loss", "--steps", steps, "--input", "a", "--label", "b",
        "--nll", "2.5", "--lambda-r", "0", "--lambda-c", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NLL = 2.500000" in out
    assert "total = 2.500000" in out


def test_loss_needs_some_nll_source(tmp_path, capsys):
    steps = _steps_payload(tmp_path)
    rc = run_cli(["loss", "--steps", steps, "--input", "a", "--label", "b"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_loss_rejects_bad_steps_file(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]")
    rc = run_cli(["loss", "--steps", path, "--input", "a", "--label", "b"])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_judge_prompt_emission(corpus_path, tmp_path):
    outputs = str(tmp_path / "outputs.jsonl")
    with open(outputs, "w", encoding="utf-8") as handle:
        for doc in _DOCS:
            handle.write(json.dumps({"id": doc.id, "output": "care plan"}) + "\n")
    out = str(tmp_path / "prompts.jsonl")
    rc = run_cli([
        "judge-prompt", "--corpus", corpus_path, "--outputs", outputs,
        "--out", out,
    ])
    assert rc == 0
    golden = Path(__file__).parent / "golden" / "judge_prompt_system.txt"
    system = golden.read_text(encoding="utf-8")
    lines = open(out, encoding="utf-8").read()
    assert lines.endswith("\n")
    records = [json.loads(line) for line in lines.splitlines()]
    assert [r["id"] for r in records] == ["d1", "d2"]
    for doc, record in zip(_DOCS, records):
        assert record["system"] == system
        assert doc.input in record["prompt"]
        assert "care plan" in record["prompt"]


def test_judge_prompt_limit(tmp_path, capsys):
    # Outputs embedded in the corpus records, no --outputs flag needed.
    path = str(tmp_path / "with_outputs.jsonl")
    dump_jsonl(_with_outputs("care plan"), path)
    rc = run_cli(["judge-prompt", "--corpus", path, "--limit", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert json.loads(out.splitlines()[0])["id"] == "d1"

    assert run_cli(["judge-prompt", "--corpus", path, "--limit", "0"]) == 1


def test_config_file_overrides_flags(corpus_path, tmp_path):
    config = str(tmp_path / "run.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("# decode settings\nbeam-width = 1\nmax_length = 4\n")
    out = str(tmp_path / "decoded.jsonl")
    rc = run_cli([
        "decode", "--corpus", corpus_path, "--out", out,
        "--beam-width", "3", "--config", config,
    ])
    assert rc == 0
    for line in open(out, encoding="utf-8"):
        assert len(json.loads(line)["output"].split()) <= 4


def test_config_file_unknown_key(corpus_path, tmp_path, capsys):
    config = str(tmp_path / "run.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("warp_drive = on\n")
    rc = run_cli([
        "decode", "--corpus", corpus_path,
        "--out", str(tmp_path / "o.jsonl"), "--config", config,
    ])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_corpus_round_trip_and_errors(tmp_path):
    path = str(tmp_path / "c.jsonl")
    dump_jsonl(_DOCS, path)
    assert load_jsonl(path) == _DOCS

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "input": "a"}\n', encoding="utf-8")
    with pytest.raises(Exception, match="line 1: missing field label"):
        load_jsonl(str(bad))

    dupes = tmp_path / "dupes.jsonl"
    record = json.dumps({"id": "x", "input": "a", "label": "b"})
    dupes.write_text(record + "\n" + record + "\n", encoding="utf-8")
    with pytest.raises(Exception, match="duplicate id"):
        load_jsonl(str(dupes))


def test_outputs_and_entity_files(tmp_path):
    outputs = tmp_path / "outputs.jsonl"
    outputs.write_text(
        json.dumps({"id": "a", "output": "x", "extra": 1}) + "\n",
        encoding="utf-8",
    )
    assert load_outputs(str(outputs)) == {"a": "x"}

    entities = tmp_path / "entities.tsv"
    entities.write_text("d1\tAspirin\tAdvil\nd2\n", encoding="utf-8")
    loaded = load_entity_sets(str(entities))
    assert loaded == {"d1": ("Aspirin", "Advil"), "d2": ()}


def test_config_parsing_and_typed_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\nbeam-width = 6\nlength_penalty = 0.5\n", encoding="utf-8"
    )
    settings = parse_config_file(str(path))
    assert settings == {"beam_width": "6", "length_penalty": "0.5"}

    decode = build_parser().commands["decode"]
    ns = decode.parse_args(["--corpus", "c", "--out", "o"])
    apply_config_overrides(ns, settings, decode.config_actions())
    assert ns.beam_width == 6
    assert ns.length_penalty == 0.5

    apply_config_overrides(
        ns, {"no_hallucination_heuristic": "yes"}, decode.config_actions()
    )
    assert ns.no_hallucination_heuristic is True


@pytest.mark.parametrize(
    "command, lines, rc",
    [
        (["judge-prompt", "--corpus", "@corpus"], "limit = 1\n", 0),
        (["judge-prompt", "--corpus", "@corpus"], "limit = x\n", 2),
        (["score"], "fk = 6\nfb = 0.5\n", 0),
        (["score"], "fk = high\nfb = 0.5\n", 2),
    ],
)
def test_config_values_for_flags_without_defaults_are_typed(
    tmp_path, capsys, command, lines, rc
):
    """A key whose flag defaults to None converts with the flag's type."""
    corpus = tmp_path / "corpus.jsonl"
    dump_jsonl(_with_outputs("the plan"), str(corpus))
    config = tmp_path / "run.cfg"
    config.write_text(lines, encoding="utf-8")
    argv = [str(corpus) if a == "@corpus" else a for a in command]
    assert run_cli(argv + ["--config", str(config)]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert "error: config key" in err
    elif command[0] == "judge-prompt":
        assert len(out.splitlines()) == 1
    else:
        assert "f_F = 6.0000" in out


@pytest.mark.parametrize(
    "command, lines, message",
    [
        (["score", "--candidate", "the cat", "--source", "the cat"],
         "scorer = bogus\n", "error: config key 'scorer': invalid choice"),
        (["decode", "--corpus", "@corpus", "--out", "@out"],
         "scorer = precomputed\n", "error: unknown config key 'scorer'"),
        (["score", "--fk", "6", "--fb", "0.5"],
         "no-hallucination-heuristic = maybe\n",
         "error: config key 'no_hallucination_heuristic': expected a boolean"),
        (["eval", "--corpus", "@corpus"], "help = true\n",
         "error: unknown config key 'help'"),
    ],
    ids=["bogus-choice", "decode-scorer", "bad-boolean", "help"],
)
def test_config_values_go_through_the_flag_action(
    tmp_path, capsys, command, lines, message
):
    """A config value the flag itself would reject is a data error."""
    corpus = tmp_path / "corpus.jsonl"
    dump_jsonl(_with_outputs("the plan"), str(corpus))
    out = tmp_path / "o.jsonl"
    config = tmp_path / "run.cfg"
    config.write_text(lines, encoding="utf-8")
    paths = {"@corpus": str(corpus), "@out": str(out)}
    argv = [paths.get(a, a) for a in command]
    assert run_cli(argv + ["--config", str(config)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith(message)
    assert out_text == ""
    assert not out.exists()


@pytest.mark.parametrize("name", ["corpus", "config", "steps"])
def test_undecodable_files_are_data_errors(tmp_path, capsys, name):
    paths = {n: tmp_path / n for n in ("corpus", "config", "steps")}
    dump_jsonl(_DOCS, str(paths["corpus"]))
    paths["config"].write_text("", encoding="utf-8")
    paths["steps"].write_text('{"vocab": ["a"], "steps": [[1.0]]}', encoding="utf-8")
    paths[name].write_bytes(b"\xff\xfe")
    argv = (
        ["loss", "--steps", str(paths["steps"]), "--input", "a", "--label", "a"]
        if name == "steps"
        else ["eval", "--corpus", str(paths["corpus"])]
    )
    assert run_cli(argv + ["--config", str(paths["config"])]) == 2
    assert f"error: cannot read {name}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, flags, rc, message",
    [
        ('{"vocab": ["a"], "steps": [[1.0]], "target": [[1]]}', [], 2,
         "bad target sequence"),
        ('{"vocab": ["a", "b"], "steps": [[1.0, 0.0]], "target": ["b"]}', [], 2,
         "has probability 0"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": Infinity}', [], 2,
         "nll must be finite"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": 1' + "0" * 400 + "}", [], 2,
         "nll must be finite"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": true}', [], 2,
         "steps file: nll must be a number"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": "3.5"}', [], 2,
         "steps file: nll must be a number"),
        ('{"vocab": [""], "steps": [[1.0]], "nll": 1}', [], 2,
         "non-empty strings"),
        ('{"vocab": ["a"], "steps": [[1.0]]}', ["--nll", "nan"], 1,
         "--nll must be finite"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": 1}', ["--lambda-r", "nan"],
         1, "error: lambda_r must be finite and >= 0, got nan"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": 1}', ["--lambda-r", "inf"],
         1, "error: lambda_r must be finite and >= 0, got inf"),
        ('{"vocab": ["a"], "steps": [[1.0]], "nll": 1}', ["--lambda-c", "nan"],
         1, "error: lambda_c must be finite and >= 0, got nan"),
    ],
    ids=["list-target", "zero-target", "inf-nll", "huge-nll", "bool-nll",
         "string-nll", "empty-word",
         "nan-flag", "nan-lambda-r", "inf-lambda-r", "nan-lambda-c"],
)
def test_loss_rejects_bad_values(tmp_path, capsys, payload, flags, rc, message):
    steps = tmp_path / "steps.json"
    steps.write_text(payload, encoding="utf-8")
    argv = ["loss", "--steps", str(steps), "--input", "a", "--label", "a"]
    assert run_cli(argv + flags) == rc
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["[1" + "0" * 400 + ", 0]", '["0.5", "0.5"]', "[true, false]"],
    ids=["huge-int", "strings", "bools"],
)
def test_loss_rejects_step_rows_that_are_not_probabilities(tmp_path, capsys, row):
    steps = tmp_path / "steps.json"
    steps.write_text(
        '{"vocab": ["a", "b"], "steps": [' + row + '], "nll": 1}', encoding="utf-8"
    )
    argv = ["loss", "--steps", str(steps), "--input", "a", "--label", "a"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "error: steps file:" in err
    assert "Traceback" not in err


def test_help_returns_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["decode", "--help"]) == 0
    assert "--corpus" in capsys.readouterr().out
