"""``src/`` holds only what ``src/`` reaches.

Every module under ``src/repro`` must be named by an ``import`` or a
``from ... import`` in some *other* module under ``src/repro`` (a
package counts as imported when any of its submodules is).  The roots
are exempt: the package itself, its ``__main__`` and the experiment
modules the registry loads by name.  A module only tests or examples
reach is dead weight on every reader of ``src/``.

The scan reads source text only; it imports nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def builtin_experiment_modules() -> set[str]:
    tree = ast.parse((PACKAGE / "experiments" / "api.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_BUILTIN_MODULES"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("repro.experiments.api._BUILTIN_MODULES not found")


def imported_names(path: Path, name: str) -> set[str]:
    """Every dotted name ``path``'s imports can refer to, its prefixes
    included (importing a submodule imports its packages)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            # ``from pkg import mod`` names the submodule ``pkg.mod``.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {
        ".".join(parts[:end])
        for parts in (n.split(".") for n in names)
        for end in range(1, len(parts) + 1)
    }


def test_every_module_is_imported_by_another_module():
    modules = {module_name(path): path for path in PACKAGE.rglob("*.py")}
    reached = set()
    for name, path in modules.items():
        reached |= imported_names(path, name) - {name}
    roots = {"repro", "repro.__main__"} | builtin_experiment_modules()
    assert roots <= set(modules)
    assert sorted(set(modules) - reached - roots) == []
