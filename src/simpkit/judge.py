"""Factual-consistency judge: prompt construction, transport, parsing.

The prompt pair (system role, user prompt) is frozen text; the user prompt
ends with the rationale elicitation line ``Why: `` and no trailing newline,
so the judged completion starts in place.  Transport is a plain JSON POST
and is injectable for tests; no network is touched unless a request is
made.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .corpus import Document

__all__ = [
    "SYSTEM_ROLE",
    "USER_TEMPLATE",
    "ENDPOINT_ENV",
    "API_KEY_ENV",
    "JudgeError",
    "Judgment",
    "build_judge_prompt",
    "judge_request",
    "parse_judgment",
]

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

ENDPOINT_ENV = "SIMPKIT_JUDGE_ENDPOINT"
API_KEY_ENV = "SIMPKIT_JUDGE_API_KEY"

_RETRIES = 3
_BACKOFF_SECONDS = 0.5


class JudgeError(Exception):
    """Judge transport failed after retries, or no endpoint is configured."""


@dataclass(frozen=True)
class Judgment:
    """Parsed verdict.  ``inconsistent`` is None when the reply fits neither
    a yes nor a no; such replies are kept, never dropped."""

    inconsistent: bool | None
    rationale: str

    @property
    def indeterminate(self) -> bool:
        return self.inconsistent is None


def build_judge_prompt(document: Document, summary: str) -> tuple[str, str]:
    """Render the (system, user) prompt pair for one document and summary."""
    if not summary:
        raise ValueError("summary must be non-empty")
    user = USER_TEMPLATE.replace("{document}", document.input).replace(
        "{summary}", summary
    )
    return SYSTEM_ROLE, user


def _default_transport(
    endpoint: str, payload: dict, timeout: float, api_key: str | None
) -> str:
    # Imported here: urllib.request pulls in http.client and ssl, which
    # cost every simpkit process several MB that only a judge call needs.
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    # A non-2xx reply raises urllib.error.HTTPError, which is retried.
    with urllib.request.urlopen(request, timeout=timeout) as response:
        charset = response.headers.get_content_charset() or "utf-8"
        return response.read().decode(charset)


def judge_request(
    prompt_pair: tuple[str, str],
    endpoint: str | None = None,
    timeout: float = 30.0,
    *,
    api_key: str | None = None,
    transport=None,
    sleep=time.sleep,
) -> str:
    """POST a prompt pair as JSON ``{"system": ..., "prompt": ...}``.

    Endpoint and API key default to the ``SIMPKIT_JUDGE_ENDPOINT`` and
    ``SIMPKIT_JUDGE_API_KEY`` environment variables.  Failures retry up to
    three times with doubling backoff before raising :class:`JudgeError`.
    Returns the raw response text.
    """
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise JudgeError(
            f"no judge endpoint: pass one or set {ENDPOINT_ENV}"
        )
    api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
    system, user = prompt_pair
    payload = {"system": system, "prompt": user}
    send = transport if transport is not None else _default_transport

    last_error: Exception | None = None
    for attempt in range(_RETRIES):
        try:
            return send(endpoint, payload, timeout, api_key)
        except Exception as exc:  # transport errors are all retryable
            last_error = exc
            if attempt + 1 < _RETRIES:
                sleep(_BACKOFF_SECONDS * (2**attempt))
    raise JudgeError(
        f"judge request failed after {_RETRIES} attempts: {last_error}"
    ) from last_error


def parse_judgment(text: str) -> Judgment:
    """Parse a raw judge reply into a :class:`Judgment`.

    The verdict is the leading "Yes" or "No" word (case-insensitive); the
    rationale is everything after the first "Why:" marker when present,
    otherwise the remainder after the verdict word.  Replies with no
    leading verdict come back indeterminate with the full text as
    rationale.
    """
    stripped = text.strip()
    lowered = stripped.lower()

    verdict: bool | None = None
    rest = stripped
    for word, value in (("yes", True), ("no", False)):
        if lowered == word or (
            lowered.startswith(word)
            and not lowered[len(word) : len(word) + 1].isalnum()
        ):
            verdict = value
            rest = stripped[len(word) :]
            break

    marker = rest.lower().find("why:")
    if marker >= 0:
        rationale = rest[marker + len("why:") :].strip()
    else:
        rationale = rest.lstrip(".,:;!? \t\n").strip()
    if verdict is None:
        rationale = stripped
    return Judgment(inconsistent=verdict, rationale=rationale)
