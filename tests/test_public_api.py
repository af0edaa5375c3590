"""Every module-level function and class of ``src/pucl`` is used by the
package itself. A name that only its own tests call is a second path that
production never runs, so it goes, and its tests move onto the path the
package does run. ``__init__.py`` holds only the package docstring and
version, and is not read.
"""

import ast
from pathlib import Path

from test_trace_targets import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "pucl"

# Names kept although nothing in src/pucl calls them, each with its reason.
EXCEPTIONS = {
    # The one-pair form of the difficulty criterion: the reference that the
    # vectorised `difficulty_scores` is checked against. Acceptance
    # criterion 4 imports it from `pucl.voters`.
    "pairwise_disagreement",
}


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in ``tree`` as variables or attributes, outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_names() -> set[tuple[str, str]]:
    """(module, name) of every module-level function or class that no code
    in the package reads outside the name's own definition."""
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    return {
        (f"pucl.{module}", node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            node.name in used_names(other, node if name == module else None)
            for name, other in modules.items()
        )
    }


def test_every_module_level_name_has_a_use_in_the_package():
    traced = {(module, path) for module, path, _ in load_spans().TARGETS}
    unused = sorted(
        f"{module}.{name}" for module, name in unused_names() - traced if name not in EXCEPTIONS
    )
    assert not unused, f"only tests use: {', '.join(unused)}"


def test_every_exception_is_still_unused():
    # An exception that gains a caller in the package loses its entry.
    assert EXCEPTIONS <= {name for _, name in unused_names()}
