"""The bench tracer's layer table against the library it wraps.

``bench/spans.py`` replaces each layer target by module attribute, so a
renamed or moved function makes its span go quiet rather than fail.  This
check catches that in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_layer_target_resolves_to_a_callable():
    spans = load_spans()
    targets = [target for layer in spans.LAYERS for target in layer.targets]
    assert len(targets) == len(set(targets)) > 0
    for target in targets:
        owner, attr = spans._resolve(target)
        assert callable(vars(owner).get(attr)), target

