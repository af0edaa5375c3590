"""The traced benchmark, ``perfbench/spans.py``, wraps pucl functions by
module and attribute path. A renamed or deleted target would break only a
traced benchmark run, so every target is resolved here on the imported
package."""

import importlib
import importlib.util
import subprocess
import sys
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


# Installs the tracer, then imports every pucl module, the ones the CLI
# loads only inside a command included, and prints each module-level name
# still bound to a target's unwrapped function.
UNWRAPPED_NAMES = """
import importlib, importlib.util, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
spans.Tracer().install()
for path in sorted(Path(sys.argv[2]).glob("*.py")):
    if path.stem != "__main__":  # it runs the CLI
        importlib.import_module(f"pucl.{path.stem}")
originals = {}
for module_name, attr_path, _ in spans.TARGETS:
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    originals[id(getattr(owner, "__wrapped__", owner))] = f"{module_name}.{attr_path}"
for name, module in sorted(sys.modules.items()):
    if name.startswith("pucl."):
        for key, value in vars(module).items():
            if id(value) in originals:
                print(f"{name}.{key} is {originals[id(value)]} unwrapped")
"""


def test_every_name_bound_to_a_target_is_traced():
    # The tracer rebinds names only in the modules loaded when it installs;
    # a module loaded later must find the targets it imports already wrapped.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", UNWRAPPED_NAMES, str(SPANS), str(src / "pucl")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
