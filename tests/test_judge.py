"""Judge prompt freezing, reply parsing, and transport retry behavior."""

import email.message
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from simpkit.corpus import Document
from simpkit.judge import (
    API_KEY_ENV,
    ENDPOINT_ENV,
    SYSTEM_ROLE,
    USER_TEMPLATE,
    JudgeError,
    Judgment,
    build_judge_prompt,
    judge_request,
    parse_judgment,
)

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


# ---------------------------------------------------------------- prompts


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


# --------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "reply,verdict,rationale",
    [
        ("Yes", True, ""),
        ("No", False, ""),
        ("YES", True, ""),
        ("nO.", False, ""),
        ("yes, because the numbers differ.", True, "because the numbers differ."),
        ("No. Why: the facts all match.", False, "the facts all match."),
        ("No\nWhy: the summary adds a drug name.", False,
         "the summary adds a drug name."),
        ("yes WHY: dosage changed", True, "dosage changed"),
    ],
)
def test_parse_judgment_verdicts(reply, verdict, rationale):
    judgment = parse_judgment(reply)
    assert judgment.inconsistent is verdict
    assert judgment.rationale == rationale
    assert not judgment.indeterminate


@pytest.mark.parametrize(
    "reply",
    [
        "Maybe",
        "Answer: unclear",
        "Nothing here is wrong",  # "No" needs a word boundary
        "Yesterday it rained",
        "",
    ],
)
def test_parse_judgment_indeterminate(reply):
    judgment = parse_judgment(reply)
    assert judgment.inconsistent is None
    assert judgment.indeterminate
    assert judgment.rationale == reply.strip()


def test_parse_judgment_indeterminate_keeps_marker_text():
    # Without a leading verdict the whole reply is the rationale, marker
    # included.
    reply = "Unclear. Why: mixed evidence."
    assert parse_judgment(reply).rationale == reply


def test_parse_judgment_strips_whitespace():
    judgment = parse_judgment("  \n Yes \n ")
    assert judgment.inconsistent is True
    assert judgment.rationale == ""


def test_judgment_is_frozen():
    judgment = Judgment(inconsistent=False, rationale="fine")
    with pytest.raises(AttributeError):
        judgment.rationale = "other"


# ------------------------------------------------------------- transport


class _Transport:
    """Scripted transport: raises per the failure count, then echoes."""

    def __init__(self, failures=0, reply="No"):
        self.failures = failures
        self.reply = reply
        self.calls = []

    def __call__(self, endpoint, payload, timeout, api_key):
        self.calls.append((endpoint, payload, timeout, api_key))
        if len(self.calls) <= self.failures:
            raise ConnectionError(f"boom {len(self.calls)}")
        return self.reply


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    monkeypatch.delenv(API_KEY_ENV, raising=False)


def test_judge_request_posts_prompt_pair(clean_env):
    transport = _Transport(reply="Yes")
    reply = judge_request(
        ("sys", "user"),
        endpoint="http://judge.test/api",
        timeout=9.0,
        api_key="sk-test",
        transport=transport,
    )
    assert reply == "Yes"
    assert transport.calls == [
        ("http://judge.test/api", {"system": "sys", "prompt": "user"}, 9.0,
         "sk-test"),
    ]


def test_judge_request_reads_endpoint_and_key_from_env(clean_env, monkeypatch):
    monkeypatch.setenv(ENDPOINT_ENV, "http://env.test/api")
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    transport = _Transport()
    judge_request(("s", "u"), transport=transport)
    endpoint, _, _, api_key = transport.calls[0]
    assert endpoint == "http://env.test/api"
    assert api_key == "sk-env"


def test_judge_request_explicit_key_beats_env(clean_env, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    transport = _Transport()
    judge_request(
        ("s", "u"), endpoint="http://judge.test/api", api_key="",
        transport=transport,
    )
    # Empty string is an explicit "no key", not a fallthrough to the env.
    assert transport.calls[0][3] == ""


def test_judge_request_requires_endpoint(clean_env):
    with pytest.raises(JudgeError, match="no judge endpoint"):
        judge_request(("s", "u"), transport=_Transport())


def test_judge_request_retries_with_doubling_backoff(clean_env):
    transport = _Transport(failures=2)
    naps = []
    reply = judge_request(
        ("s", "u"), endpoint="http://judge.test/api",
        transport=transport, sleep=naps.append,
    )
    assert reply == "No"
    assert len(transport.calls) == 3
    assert naps == [0.5, 1.0]


def test_judge_request_raises_after_three_failures(clean_env):
    transport = _Transport(failures=3)
    naps = []
    with pytest.raises(JudgeError, match="failed after 3 attempts") as info:
        judge_request(
            ("s", "u"), endpoint="http://judge.test/api",
            transport=transport, sleep=naps.append,
        )
    assert len(transport.calls) == 3
    assert naps == [0.5, 1.0]  # no sleep after the final attempt
    assert isinstance(info.value.__cause__, ConnectionError)
    assert "boom 3" in str(info.value)


class _Reply:
    """Stands in for the response ``urllib.request.urlopen`` returns."""

    def __init__(self, body, content_type="application/json; charset=utf-8"):
        self._body = body
        self.headers = email.message.Message()
        self.headers["Content-Type"] = content_type

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_default_transport_posts_json_with_stdlib(clean_env, monkeypatch):
    sent = []

    def fake_urlopen(request, timeout):
        sent.append((request, timeout))
        return _Reply("Yes. Why: the dose is wrong — 5 mg".encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    reply = judge_request(
        ("sys", "user"), endpoint="http://judge.test/api", timeout=7.5,
        api_key="sk-test",
    )
    assert reply == "Yes. Why: the dose is wrong — 5 mg"
    [(request, timeout)] = sent
    assert timeout == 7.5
    assert request.full_url == "http://judge.test/api"
    assert request.get_method() == "POST"
    assert json.loads(request.data) == {"system": "sys", "prompt": "user"}
    assert request.get_header("Content-type") == "application/json"
    assert request.get_header("Authorization") == "Bearer sk-test"


def test_default_transport_sends_no_bearer_without_key(clean_env, monkeypatch):
    sent = []

    def fake_urlopen(request, timeout):
        sent.append(request)
        return _Reply(b"No")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    assert judge_request(("s", "u"), endpoint="http://judge.test/api") == "No"
    assert not sent[0].has_header("Authorization")


def test_default_transport_retries_http_errors(clean_env, monkeypatch):
    calls = []

    def failing_urlopen(request, timeout):
        calls.append(request)
        raise urllib.error.HTTPError(
            request.full_url, 503, "Service Unavailable",
            email.message.Message(), None,
        )

    monkeypatch.setattr(urllib.request, "urlopen", failing_urlopen)
    naps = []
    with pytest.raises(JudgeError, match="failed after 3 attempts") as info:
        judge_request(
            ("s", "u"), endpoint="http://judge.test/api", sleep=naps.append
        )
    assert len(calls) == 3
    assert naps == [0.5, 1.0]
    assert isinstance(info.value.__cause__, urllib.error.HTTPError)
    assert info.value.__cause__.code == 503
