"""The benchmark's traced run wraps mixprec functions by name.

``bench/spans.py`` lists them in ``TRACED``; a renamed or deleted function
would only surface as a crash of a traced benchmark run, so every listed
name must resolve here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for module_name, path in traced:
        owner = importlib.import_module(f"mixprec.{module_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"mixprec.{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"mixprec.{module_name}.{path}"
