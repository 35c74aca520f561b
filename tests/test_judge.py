"""The frozen judge prompt: its bytes equal the golden files."""

from pathlib import Path

import pytest

from simpkit.corpus import Document
from simpkit.judge import SYSTEM_ROLE, USER_TEMPLATE, build_judge_prompt

_GOLDEN = Path(__file__).parent / "golden"

# The document/summary pair the filled golden file was rendered from.
_DOC = Document(
    id="gp1",
    input="The patient was given 20 {mg} of Ibuprofen. Dr. Lee noted a hemorrhage.",
    label="The patient got Ibuprofen. A doctor saw bleeding.",
)
_SUMMARY = "The patient took Ibuprofen and bled a little."


def _golden(name):
    return (_GOLDEN / name).read_text(encoding="utf-8")


def test_system_role_matches_golden_bytes():
    assert SYSTEM_ROLE == _golden("judge_prompt_system.txt")


def test_user_template_matches_golden_bytes():
    assert USER_TEMPLATE == _golden("judge_prompt_user_template.txt")


def test_filled_prompt_matches_golden_bytes():
    system, user = build_judge_prompt(_DOC, _SUMMARY)
    assert system == SYSTEM_ROLE
    assert user == _golden("judge_prompt_filled.txt")


def test_prompt_placeholders_are_substituted():
    _, user = build_judge_prompt(_DOC, _SUMMARY)
    assert "{document}" not in user
    assert "{summary}" not in user
    assert _DOC.input in user
    assert _SUMMARY in user


def test_prompt_keeps_unrelated_braces_and_has_no_trailing_newline():
    # "{mg}" is ordinary text in the source, not a placeholder.
    _, user = build_judge_prompt(_DOC, _SUMMARY)
    assert "{mg}" in user
    assert user.endswith("Why: ")


def test_empty_summary_rejected():
    with pytest.raises(ValueError, match="summary must be non-empty"):
        build_judge_prompt(_DOC, "")
