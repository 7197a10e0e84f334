"""CLI output documents."""

from __future__ import annotations

import json
import math

from mismatchlab.cli import _dumps


def test_non_finite_floats_are_written_as_null() -> None:
    doc = {"a": math.nan, "b": [math.inf, 1.5, {"c": -math.inf}], "d": (math.nan, 2)}
    assert _dumps(doc) == '{"a": null, "b": [null, 1.5, {"c": null}], "d": [null, 2]}'


def test_finite_documents_keep_json_dumps_bytes() -> None:
    doc = {"x": 0.1, "y": [1, 2.5e-300, -0.0], "z": {"s": "t", "n": None, "b": True}}
    assert _dumps(doc) == json.dumps(doc)
