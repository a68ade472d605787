#!/usr/bin/env python
"""Generate the derived documentation pages (CLI + API reference).

Renders ``python -m repro --help`` and ``run_all --help`` into
``docs/cli.md``, and a docstring-driven API reference for the public
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


def _subparser(parser, *path):
    """Walk argparse's subcommand tree (for rendering nested help)."""
    for name in path:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction) and name in action.choices:
                parser = action.choices[name]
                break
        else:
            raise KeyError(f"no subcommand {name!r}")
    return parser


def _render_help() -> str:
    from repro.__main__ import build_parser as cli_parser
    from repro.experiments.run_all import build_parser as run_all_parser

    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = _HELP_COLUMNS
    try:
        parser = cli_parser()
        cli_help = parser.format_help()
        experiments_help = {
            action: _subparser(parser, "experiments", action).format_help()
            for action in ("list", "show", "run")
        }
        live_help = {
            action: _subparser(parser, "live", action).format_help()
            for action in ("run", "loadgen")
        }
        fleet_help = {
            action: _subparser(parser, "fleet", action).format_help()
            for action in ("run", "loadgen")
        }
        obs_help = {
            action: _subparser(parser, "obs", action).format_help()
            for action in ("trace", "metrics", "explain")
        }
        run_all_help = run_all_parser().format_help()
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns
    experiment_sections = "".join(
        f"### `python -m repro experiments {action}`\n\n"
        "```text\n" + text.rstrip() + "\n```\n\n"
        for action, text in experiments_help.items()
    )
    live_sections = "".join(
        f"### `python -m repro live {action}`\n\n"
        "```text\n" + text.rstrip() + "\n```\n\n"
        for action, text in live_help.items()
    )
    fleet_sections = "".join(
        f"### `python -m repro fleet {action}`\n\n"
        "```text\n" + text.rstrip() + "\n```\n\n"
        for action, text in fleet_help.items()
    )
    obs_sections = "".join(
        f"### `python -m repro obs {action}`\n\n"
        "```text\n" + text.rstrip() + "\n```\n\n"
        for action, text in obs_help.items()
    )
    return (
        "# CLI reference\n\n"
        "*Generated by `scripts/gen_docs.py` — do not edit by hand; "
        "regenerate with `PYTHONPATH=src python scripts/gen_docs.py`.*\n\n"
        "## `python -m repro`\n\n"
        "Run one dissemination simulation or a degree sweep.\n\n"
        "```text\n" + cli_help.rstrip() + "\n```\n\n"
        "## `python -m repro experiments`\n\n"
        "Discover and run the declarative experiment registry through the "
        "shared cached execution plane.\n\n"
        + experiment_sections +
        "## `python -m repro live`\n\n"
        "Run the cooperative repository network for real: live servers "
        "replaying the config's workload through the same LeLA `d3g` and "
        "coherency filter the simulator uses.\n\n"
        + live_sections +
        "## `python -m repro fleet`\n\n"
        "Shard the live repository network across worker processes: every "
        "worker computes the same shard plan from the frozen config, and a "
        "supervisor spawns the fleet, waits for it to go quiet, and merges "
        "per-worker reports into one conserved result.\n\n"
        + fleet_sections +
        "## `python -m repro obs`\n\n"
        "Observe a traced run: per-update spans, the metrics snapshot, "
        "and the fidelity-violation explainer that names the hop and "
        "reason behind every loss segment.\n\n"
        + obs_sections +
        "## `python -m repro.experiments.run_all`\n\n"
        "Regenerate every table and figure of the paper (one deduplicated "
        "sweep; warm reruns skip simulation via the result cache).\n\n"
        "```text\n" + run_all_help.rstrip() + "\n```\n"
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
    if dataclasses.is_dataclass(cls):
        fields = ", ".join(f.name for f in dataclasses.fields(cls))
        lines += [f"*Dataclass* — fields: `{fields or '(none)'}`", ""]
    doc = inspect.getdoc(cls)
    if doc:
        lines += [_mdify(doc), ""]
    for method_name, method in sorted(vars(cls).items()):
        if method_name.startswith("_"):
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
