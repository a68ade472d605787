"""Documentation health: derived pages in sync, links unbroken.

The CLI and API reference under ``docs/`` are generated by
``scripts/gen_docs.py``; these tests regenerate them in memory and diff
against the committed files, so any code change that alters a public
docstring or ``--help`` text without regenerating the docs fails
tier-1. The link checker runs over the whole site, with a negative
control proving it actually detects breakage.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = REPO_ROOT / "scripts"


def _load(module_name: str):
    spec = importlib.util.spec_from_file_location(
        module_name, SCRIPTS / f"{module_name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen_docs():
    return _load("gen_docs")


@pytest.fixture(scope="module")
def link_checker():
    return _load("check_docs_links")


def test_derived_docs_are_in_sync(gen_docs):
    """Regenerate-and-diff: docs/cli.md and docs/api/* match the code."""
    stale = []
    for path, content in gen_docs.generate_pages().items():
        if not path.exists():
            stale.append(f"{path} is missing")
        elif path.read_text() != content:
            stale.append(f"{path} is stale")
    assert not stale, (
        "; ".join(stale)
        + " -- regenerate with: PYTHONPATH=src python scripts/gen_docs.py"
    )


def test_cli_reference_covers_every_leaf_command(gen_docs):
    cli_md = (REPO_ROOT / "docs" / "cli.md").read_text()
    assert "## `python -m repro`" in cli_md
    for leaf in (
        "experiments list",
        "experiments show",
        "experiments run",
        "live run",
        "fleet run",
        "obs trace",
        "obs metrics",
        "obs explain",
    ):
        assert f"### `python -m repro {leaf}`" in cli_md
        assert f"usage: repro {leaf} " in cli_md
    assert "--workload" in cli_md
    assert "--churn" in cli_md
    assert "--jobs" in cli_md


def test_api_reference_covers_the_public_surface(gen_docs):
    for module_name in gen_docs.API_MODULES:
        page = REPO_ROOT / "docs" / "api" / (
            module_name.removeprefix("repro.") + ".md"
        )
        assert page.exists(), f"missing API page for {module_name}"


def test_docs_links_and_nav_are_clean(link_checker):
    assert link_checker.check() == []


def test_link_checker_detects_breakage(link_checker, tmp_path, monkeypatch):
    """Negative control: a broken link, a bad anchor and an orphan page."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "index.md").write_text(
        "# Home\n\n[gone](missing.md)\n[bad](other.md#nope)\n"
    )
    (docs / "other.md").write_text("# Other page\n")
    (docs / "orphan.md").write_text("# Orphan\n")
    mkdocs = tmp_path / "mkdocs.yml"
    mkdocs.write_text("nav:\n  - Home: index.md\n  - Other: other.md\n")
    monkeypatch.setattr(link_checker, "DOCS", docs)
    monkeypatch.setattr(link_checker, "MKDOCS_YML", mkdocs)
    problems = "\n".join(link_checker.check())
    assert "broken link -> missing.md" in problems
    assert "missing anchor -> other.md#nope" in problems
    assert "orphan.md: not reachable" in problems


def test_mkdocs_config_is_strict():
    config = (REPO_ROOT / "mkdocs.yml").read_text()
    assert "strict: true" in config


def test_a_dataclass_field_defaulting_to_a_function_is_not_a_method(gen_docs):
    import dataclasses

    def weigh(x: float) -> float:
        """Twice ``x``."""
        return 2 * x

    @dataclasses.dataclass
    class Inputs:
        """Inputs with a pluggable weight."""

        seed: int = 0
        weight: object = weigh

        def scaled(self, x: float) -> float:
            """``weight(x)``."""
            return self.weight(x)

    page = "\n".join(gen_docs._render_class("Inputs", Inputs))
    assert "fields: `seed, weight`" in page
    assert "### `Inputs.scaled(" in page
    assert "Inputs.weight" not in page
