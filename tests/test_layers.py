"""The benchmark's tracer wraps each public function it names by getattr, so
a name deleted or renamed in the package breaks only the traced benchmark.
This reads the tracer's LAYERS table (without importing the tracer) and
checks every name against the package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_function_exists():
    layers = _layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"normalroots.{layer}"), name, None))
    ]
    assert missing == []
