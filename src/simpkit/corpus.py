"""Corpus documents, JSONL input/output, run configuration files.

A corpus is JSON-lines: one object per line with string fields ``id``
(unique), ``input`` and ``label`` (both non-empty), and optionally
``output``.  Unknown fields are ignored on load and dropped on save.

All malformed-data conditions raise :class:`DataError` with the failing
line number, e.g. ``line 7: missing field label``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "DataError",
    "Document",
    "load_jsonl",
    "dump_jsonl",
    "load_outputs",
    "load_entity_sets",
    "parse_config_file",
    "apply_config_overrides",
]


class DataError(Exception):
    """Malformed data file: bad JSON, missing fields, broken invariants."""


@dataclass(frozen=True)
class Document:
    """One corpus example: a source text, its reference simplification, and
    optionally a system output."""

    id: str
    input: str
    label: str
    output: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.input:
            raise ValueError(f"document {self.id!r}: input must be non-empty")
        if not self.label:
            raise ValueError(f"document {self.id!r}: label must be non-empty")


def _field_string(record: dict, name: str, lineno: int, required: bool) -> str | None:
    if name not in record:
        if required:
            raise DataError(f"line {lineno}: missing field {name}")
        return None
    value = record[name]
    if not isinstance(value, str):
        raise DataError(f"line {lineno}: field {name} must be a string")
    if required and not value:
        raise DataError(f"line {lineno}: field {name} must be non-empty")
    return value


def _read_lines(path: str, what: str) -> list[str]:
    """Lines of a UTF-8 text file.  A file that cannot be opened, read or
    decoded is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path!r}: {exc}") from None


def _json_records(path: str, what: str):
    """``(line number, id, JSON object)`` for each line of a JSON-lines
    file, one line at a time.

    Every line must hold one JSON object with a string ``id`` that no
    earlier line used; anything else raises DataError naming the line.
    """
    seen_ids: set[str] = set()
    for lineno, line in enumerate(_read_lines(path, what), start=1):
        stripped = line.strip()
        if not stripped:
            raise DataError(f"line {lineno}: empty line")
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise DataError(f"line {lineno}: expected a JSON object")
        doc_id = _field_string(record, "id", lineno, required=True)
        if doc_id in seen_ids:
            raise DataError(f"line {lineno}: duplicate id {doc_id!r}")
        seen_ids.add(doc_id)
        yield lineno, doc_id, record


def load_jsonl(path: str) -> list[Document]:
    """Load a corpus file, enforcing the documented invariants.

    Raises DataError naming the first offending line.  Blank lines are not
    allowed: every line must hold one JSON object.
    """
    return [
        Document(
            id=doc_id,
            input=_field_string(record, "input", lineno, required=True),
            label=_field_string(record, "label", lineno, required=True),
            output=_field_string(record, "output", lineno, required=False),
        )
        for lineno, doc_id, record in _json_records(path, "corpus")
    ]


def dump_jsonl(documents: Iterable[Document], path: str) -> None:
    """Write documents back out, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            record = {"id": doc.id, "input": doc.input, "label": doc.label}
            if doc.output is not None:
                record["output"] = doc.output
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_outputs(path: str) -> dict[str, str]:
    """Load a decode-output JSONL file into an id -> output map.

    Each line needs string fields ``id`` and ``output``; extra fields (for
    example decode diagnostics) are ignored.
    """
    outputs: dict[str, str] = {}
    for lineno, doc_id, record in _json_records(path, "outputs"):
        value = record.get("output")
        if not isinstance(value, str):
            raise DataError(f"line {lineno}: field output must be a string")
        outputs[doc_id] = value
    return outputs


def load_entity_sets(path: str) -> dict[str, tuple[str, ...]]:
    """Load an external entity file: ``id<TAB>entity<TAB>entity...`` lines.

    An id with no entities (a line holding just the id) maps to an empty
    tuple.
    """
    entity_sets: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(_read_lines(path, "entity"), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        doc_id = parts[0]
        if not doc_id:
            raise DataError(f"line {lineno}: empty id")
        if doc_id in entity_sets:
            raise DataError(f"line {lineno}: duplicate id {doc_id!r}")
        entity_sets[doc_id] = tuple(p for p in parts[1:] if p)
    return entity_sets


def parse_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` config file into raw string settings.

    Keys mirror long CLI flag names (with ``-`` or ``_`` spelling).  Blank
    lines and ``#`` comment lines are skipped.
    """
    settings: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path, "config"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(
                f"line {lineno}: expected key = value, got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key:
            raise DataError(f"line {lineno}: empty key")
        if key in settings:
            raise DataError(f"line {lineno}: duplicate key {key!r}")
        settings[key] = value
    return settings


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise DataError(f"config key {key!r}: expected a boolean, got {raw!r}")


def apply_config_overrides(
    namespace, settings: dict[str, str], actions
) -> None:
    """Apply parsed config settings onto an argparse namespace, in place.

    Values from the file override flag values.  ``actions`` maps each key a
    config file may set to the argparse action of its flag, and a value
    goes through that action as it would on the command line: a flag that
    takes no argument (``nargs == 0``) reads a boolean, any other converts
    with the action's ``type`` (a string when it has none) and must be one
    of its ``choices``.  Unknown keys and rejected values raise DataError.
    """
    for key, raw in settings.items():
        action = actions.get(key)
        if action is None:
            raise DataError(f"unknown config key {key!r}")
        if action.nargs == 0:
            setattr(namespace, key, _parse_bool(raw, key))
            continue
        try:
            value = (action.type or str)(raw)
        except ValueError:
            raise DataError(
                f"config key {key!r}: cannot parse value {raw!r}"
            ) from None
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise DataError(
                f"config key {key!r}: invalid choice {raw!r} "
                f"(choose from {choices})"
            )
        setattr(namespace, key, value)
