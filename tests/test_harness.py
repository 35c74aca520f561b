"""Command-line entry points: decode, eval, score, loss, judge-prompt."""

import json
import math
from pathlib import Path

import pytest

from simpkit.cli import run_cli
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
    dump_jsonl([doc.with_output(doc.label) for doc in _DOCS], corpus)
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


def test_decode_missing_precomputed_score_is_a_data_error(
    corpus_path, tmp_path, capsys
):
    out = tmp_path / "o.jsonl"
    rc = run_cli([
        "decode", "--corpus", corpus_path, "--out", str(out),
        "--scorer", "precomputed", "--scores", _one_line_scores(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: document 'd1': ")
    assert "no precomputed score" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_decode_leaves_out_as_it_was(corpus_path, tmp_path):
    out = tmp_path / "o.jsonl"
    out.write_text('{"id": "old"}\n', encoding="utf-8")
    rc = run_cli([
        "decode", "--corpus", corpus_path, "--out", str(out),
        "--scorer", "precomputed", "--scores", _one_line_scores(tmp_path),
    ])
    assert rc == 2
    assert out.read_text(encoding="utf-8") == '{"id": "old"}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "o.jsonl", "scores.tsv",
    ]


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
    dump_jsonl([doc.with_output(doc.label) for doc in _DOCS], corpus)
    report = str(tmp_path / "nodir" / "report.tsv")
    rc = run_cli(["eval", "--corpus", corpus, "--report", report])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_eval_missing_precomputed_score_is_a_data_error(tmp_path, capsys):
    corpus = str(tmp_path / "decoded_corpus.jsonl")
    dump_jsonl([doc.with_output(doc.label) for doc in _DOCS], corpus)
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
    dump_jsonl([doc.with_output("care plan") for doc in _DOCS], path)
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

    class Namespace:
        beam_width = 2
        length_penalty = 0.0

    ns = Namespace()
    apply_config_overrides(ns, settings)
    assert ns.beam_width == 6
    assert ns.length_penalty == 0.5
