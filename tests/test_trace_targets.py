"""The traced benchmark, ``perfbench/spans.py``, wraps pucl functions by
module and attribute path. A renamed or deleted target would break only a
traced benchmark run, so every target is resolved here on the imported
package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"trace target {module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"trace target {module_name}.{path} is not callable"
