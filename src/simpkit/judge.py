"""Frozen factual-consistency judge prompt.

The prompt pair (system role, user prompt) is frozen text; the user prompt
ends with the rationale elicitation line ``Why: `` and no trailing newline,
so the judged completion starts in place.  simpkit only renders the pair
(``simpkit judge-prompt`` writes one JSON line per document); sending it
to a judge model is left to the caller.
"""

from __future__ import annotations

from .corpus import Document

__all__ = ["SYSTEM_ROLE", "USER_TEMPLATE", "build_judge_prompt"]

SYSTEM_ROLE = "Your task is to rate the summary on one metric."

USER_TEMPLATE = (
    "Human Evaluation of Text Summarization Systems: Factual Consistency: "
    "Does the summary have untruthful or misleading facts that are not "
    "supported by the source text?\n"
    "Source Text: {document}\n"
    "Summary: {summary}\n"
    "Does the summary contain factual inconsistencies?\n"
    "Answer: \n"
    "Why: "
)


def build_judge_prompt(document: Document, summary: str) -> tuple[str, str]:
    """Render the (system, user) prompt pair for one document and summary."""
    if not summary:
        raise ValueError("summary must be non-empty")
    user = USER_TEMPLATE.replace("{document}", document.input).replace(
        "{summary}", summary
    )
    return SYSTEM_ROLE, user
