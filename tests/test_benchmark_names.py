"""Every name the benchmark's tracer wraps still exists in the package.

The tracer (``perfbench/tracer.py``) looks its names up when a traced run
starts, so a renamed or deleted function would otherwise fail only the
benchmark's own tests, which run apart from this suite.
"""

import importlib
import importlib.util
from pathlib import Path

from simpkit import readability, rerank, textseg

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for modname, path, _ in _load_tracer().TRACED:
        owner = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), (modname, path)
        else:
            assert hasattr(owner, path), (modname, path)
    # the tracer's own test checks that these two bindings are wrapped
    assert rerank.flesch_kincaid is readability.flesch_kincaid
    assert rerank.word_tokens is textseg.word_tokens
