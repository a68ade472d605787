"""``src/`` holds only what ``src/`` reaches.

Every module under ``src/repro`` must be named by an ``import`` or a
``from ... import`` in some *other* module under ``src/repro`` (a
package counts as imported when any of its submodules is).  The roots
are exempt: the package itself, its ``__main__`` and the experiment
modules the registry loads by name.  A module only tests or examples
reach is dead weight on every reader of ``src/``.

The same holds one and two levels down: every public top-level
function and class, and every public method and property of a public
class, must be *used* -- read as a name or an attribute -- somewhere in
``src/repro``, the CLI included.  An ``import`` or an ``__all__`` entry
alone is no use: a package re-exporting a name does not call it.  The
few public names kept for callers outside ``src/`` are listed in
:data:`KEPT_FOR_OUTSIDE_CALLERS` (a member as ``Class.member``), each
with its reason.  A member counts as used when its name is read as an
attribute anywhere, whatever the object: the scan is by name.

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


#: Public names nothing in ``src/repro`` uses, kept on purpose.
KEPT_FOR_OUTSIDE_CALLERS = {
    "forward_distributed_many": "the perf ledger's frozen filtering probes time it",
    "run_resync": "the perf ledger's frozen fleet probe runs it",
    "BatchKernel": "the perf ledger's frozen batchkernel probe imports it",
    "run_experiment": "the documented programmatic entry to the registry",
    "format_explanation": "documented `repro.obs` API the explain tests render with",
    "ConstantDelayModel": "documented delay-model API the network tests drive",
    "full_transfer_cost": "the anti-entropy baseline the fleet tests compare with",
    "SimulationBase.delivery_log": "the perf ledger's frozen fidelity probe re-scores from it",
    "RepositoryNode.on_message": "the perf ledger's frozen on_message_ns probe times it",
    "Forward.from_update": "the perf ledger's frozen frame probe builds its frame with it",
    "ShardPlan.worker_of": "the perf ledger's frozen fleet workload counts cut edges",
    "SimulationResult.fidelity": "the paper's metric (100 - loss), the documented result field",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions() -> list[tuple[str, str]]:
    """``(name, module)`` for every public top-level function and class,
    and ``(Class.member, module)`` for every public method and property
    of a public class."""
    found = []
    for path in PACKAGE.rglob("*.py"):
        module = module_name(path)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found.append((node.name, module))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{member.name}", module)
                    for member in node.body
                    if isinstance(member, FUNCTIONS) and not member.name.startswith("_")
                )
    return found


def used_names() -> set[str]:
    """Every name ``src/repro`` reads, bare or as an attribute."""
    used = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_function_and_class_is_used_in_src():
    used = used_names()
    unused = {
        (name, module)
        for name, module in public_definitions()
        if name.rpartition(".")[2] not in used
    }
    kept = {(name, module) for name, module in unused if name in KEPT_FOR_OUTSIDE_CALLERS}
    assert sorted(unused - kept) == []
    # A kept name that src/ uses, or that is gone, leaves the list.
    assert sorted(name for name, _module in kept) == sorted(KEPT_FOR_OUTSIDE_CALLERS)
