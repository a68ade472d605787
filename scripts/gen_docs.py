#!/usr/bin/env python
"""Generate the derived documentation pages (CLI + API reference).

Renders the ``--help`` of ``python -m repro`` and of every subcommand
into ``docs/cli.md``, and a docstring-driven API reference for the public
modules into ``docs/api/``.  Everything is generated deterministically
from the package itself (argparse output width is pinned, docstring
roles are rewritten to plain markdown), so the pages can never drift
from the code silently: ``tests/docs/test_docs_sync.py`` regenerates
them and diffs against the committed files, and CI runs
``python scripts/gen_docs.py --check`` before ``mkdocs build --strict``.

Usage::

    PYTHONPATH=src python scripts/gen_docs.py           # (re)write pages
    PYTHONPATH=src python scripts/gen_docs.py --check   # diff, exit 1 on drift
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import os
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: Modules rendered into ``docs/api/``, in nav order.  Each page is
#: named after the module with the ``repro.`` prefix dropped.
API_MODULES = (
    "repro.engine.config",
    "repro.engine.builder",
    "repro.engine.simulation",
    "repro.engine.oracle",
    "repro.engine.sweep",
    "repro.engine.churn",
    "repro.engine.failures",
    "repro.engine.adaptive",
    "repro.engine.reconfig",
    "repro.engine.results",
    "repro.core.fidelity",
    "repro.core.dissemination.policy",
    "repro.core.dissemination.filtering",
    "repro.live.harness",
    "repro.live.protocol",
    "repro.live.transport",
    "repro.live.wire",
    "repro.fleet.sharding",
    "repro.fleet.antientropy",
    "repro.fleet.worker",
    "repro.fleet.quiescence",
    "repro.fleet.supervisor",
    "repro.workloads",
    "repro.workloads.base",
    "repro.workloads.registry",
    "repro.traces.io",
    "repro.traces.model",
    "repro.traces.schedule",
    "repro.experiments.api",
    "repro.experiments.cache",
    "repro.experiments.defaults",
    "repro.experiments.figures",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.explain",
)

#: argparse folds help text to the terminal width; pin it so the
#: committed page is identical on every machine.
_HELP_COLUMNS = "80"

_ROLE = re.compile(r":(?:class|mod|func|meth|attr|data|exc):`~?([^`]+)`")


def _mdify(docstring: str) -> str:
    """Rewrite Sphinx-style docstring roles to plain markdown."""
    text = _ROLE.sub(lambda m: f"`{m.group(1).split('.')[-1]}`", docstring)
    text = text.replace("``", "`")
    return text.strip()


def _subcommands(parser) -> dict:
    """``name -> parser`` of each subcommand of ``parser``, in order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _render_help() -> str:
    from repro.__main__ import build_parser

    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = _HELP_COLUMNS
    try:
        parser = build_parser()
        sections = [
            "## `python -m repro`\n\n"
            "Run one dissemination simulation or a degree sweep.\n\n"
            "```text\n" + parser.format_help().rstrip() + "\n```\n"
        ]
        for command, group in _subcommands(parser).items():
            sections.append(f"## `python -m repro {command}`\n\n{group.description}\n")
            sections += [
                f"### `python -m repro {command} {action}`\n\n"
                "```text\n" + leaf.format_help().rstrip() + "\n```\n"
                for action, leaf in _subcommands(group).items()
            ]
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns
    return (
        "# CLI reference\n\n"
        "*Generated by `scripts/gen_docs.py` — do not edit by hand; "
        "regenerate with `PYTHONPATH=src python scripts/gen_docs.py`.*\n\n"
        + "\n".join(sections)
    )


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj, eval_str=True))
    except (TypeError, ValueError, NameError):
        try:
            return str(inspect.signature(obj))
        except (TypeError, ValueError):
            return "(...)"


def _render_function(name: str, obj, heading: str) -> list[str]:
    lines = [f"{heading} `{name}{_signature(obj)}`", ""]
    doc = inspect.getdoc(obj)
    if doc:
        lines += [_mdify(doc), ""]
    return lines


def _render_class(name: str, cls) -> list[str]:
    lines = [f"## `{name}`", ""]
    fields: list[str] = []
    if dataclasses.is_dataclass(cls):
        fields = [f.name for f in dataclasses.fields(cls)]
        lines += [f"*Dataclass* — fields: `{', '.join(fields) or '(none)'}`", ""]
    doc = inspect.getdoc(cls)
    if doc:
        lines += [_mdify(doc), ""]
    for method_name, method in sorted(vars(cls).items()):
        # A field's default sits on the class too: a function default
        # is a value, not a method.
        if method_name.startswith("_") or method_name in fields:
            continue
        if isinstance(method, (staticmethod, classmethod)):
            method = method.__func__
        if isinstance(method, property):
            doc = method.fget and inspect.getdoc(method.fget)
            if doc:
                lines += [
                    f"### `{name}.{method_name}` *(property)*",
                    "",
                    _mdify(doc),
                    "",
                ]
            continue
        if not inspect.isfunction(method):
            continue
        lines += _render_function(f"{name}.{method_name}", method, "###")
    return lines


def _render_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    lines = [f"# `{module_name}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines += [_mdify(doc), ""]
    exported = list(getattr(module, "__all__", ()))
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            lines += _render_class(name, obj)
        elif inspect.isfunction(obj):
            lines += _render_function(name, obj, "##")
        else:
            lines += [
                f"## `{name}`",
                "",
                f"Module-level value of type `{type(obj).__name__}`.",
                "",
            ]
    return "\n".join(lines).rstrip() + "\n"


def _api_index() -> str:
    lines = [
        "# API reference",
        "",
        "*Generated by `scripts/gen_docs.py` — do not edit by hand.*",
        "",
        "Docstring-rendered reference for the public surface. One page",
        "per module:",
        "",
    ]
    for module_name in API_MODULES:
        page = module_name.removeprefix("repro.")
        lines.append(f"- [`{module_name}`]({page}.md)")
    return "\n".join(lines) + "\n"


def generate_pages() -> dict[Path, str]:
    """All derived pages as ``{path: content}``."""
    pages = {DOCS / "cli.md": _render_help(), DOCS / "api" / "index.md": _api_index()}
    for module_name in API_MODULES:
        page = module_name.removeprefix("repro.")
        pages[DOCS / "api" / f"{page}.md"] = _render_module(module_name)
    return pages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed pages match the code; write nothing",
    )
    args = parser.parse_args(argv)

    pages = generate_pages()
    if args.check:
        stale = [
            str(path.relative_to(REPO_ROOT))
            for path, content in sorted(pages.items())
            if not path.exists() or path.read_text() != content
        ]
        if stale:
            print(
                "derived docs out of sync with the code: "
                + ", ".join(stale)
                + "\nregenerate with: PYTHONPATH=src python scripts/gen_docs.py"
            )
            return 1
        print(f"{len(pages)} derived doc pages in sync")
        return 0

    for path, content in sorted(pages.items()):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
