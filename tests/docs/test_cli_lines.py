"""Every documented ``python -m repro`` command line still parses.

Collects the command lines quoted in the README, the docs site (the
generated ``docs/cli.md`` aside: it is the parser's own help), the CI
workflow and the verify skill notes, and parses each with the CLI's own
``build_parser()`` -- parse only, nothing runs -- so a deleted flag or a
retired entry point cannot linger in the docs.

A command line is a shell line that starts with ``python -m repro``
(after indentation, a ``$`` prompt and ``PYTHONPATH=src``), joined with
its continuation lines, or an inline code span that starts with
``PYTHONPATH=src python -m repro``.  A prose mention such as
``python -m repro obs trace|metrics|explain`` names commands; it is not
a command line.
"""

from __future__ import annotations

import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from repro.__main__ import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCES = (
    [REPO_ROOT / "README.md"]
    + sorted(
        path for path in (REPO_ROOT / "docs").rglob("*.md")
        if path != REPO_ROOT / "docs" / "cli.md"
    )
    + [
        REPO_ROOT / ".github" / "workflows" / "ci.yml",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
)

_SHELL_LINE = re.compile(
    r"^\s*(?:\$ )?(?:PYTHONPATH=src )?python -m (repro[\w.]*)(.*)$"
)
_INLINE_SPAN = re.compile(r"`PYTHONPATH=src python -m (repro[\w.]*)([^`]*)`")
_SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>"}


def command_lines(text: str) -> list[tuple[int, str, str]]:
    """``(line number, module, arguments)`` of each command line in ``text``."""
    found = []
    lines = text.splitlines()
    for number, line in enumerate(lines):
        match = _SHELL_LINE.match(line)
        if not match:
            continue
        module, rest = match.groups()
        follow = number + 1
        while follow < len(lines) and (
            rest.rstrip().endswith("\\")
            or lines[follow].lstrip().startswith("--")
        ):
            rest = rest.rstrip().removesuffix("\\") + " " + lines[follow].strip()
            follow += 1
        found.append((number + 1, module, rest))
    for match in _INLINE_SPAN.finditer(text):
        number = text.count("\n", 0, match.start()) + 1
        found.append((number, match.group(1), " ".join(match.group(2).split())))
    return found


def argv_of(arguments: str) -> list[str]:
    """The argument vector of one command line, up to any shell operator."""
    argv = []
    for token in shlex.split(arguments, comments=True):
        if token in _SHELL_OPERATORS:
            break
        argv.append(token)
    return argv


def problem(module: str, arguments: str) -> str | None:
    """Why a command line would not run as written, or ``None``."""
    if module != "repro":
        return f"python -m {module} is not the command line (python -m repro)"
    try:
        build_parser().parse_args(argv_of(arguments))
    except SystemExit as exc:
        if exc.code:
            return f"does not parse: python -m repro {arguments.strip()}"
    return None


def case_ids(cases) -> list[str]:
    """A stable test id per ``(place, module, arguments)`` case: the place
    and the command's shell words (comments and spacing dropped), so an
    edit above a command renames nothing; a command repeated in one
    place gets ``#2``, ``#3``, ... on its later copies."""
    seen: Counter = Counter()
    ids = []
    for place, module, arguments in cases:
        words = " ".join(shlex.split(arguments, comments=True))
        case = f"{place}:python -m {module} {words}".rstrip()
        seen[case] += 1
        ids.append(case if seen[case] == 1 else f"{case}#{seen[case]}")
    return ids


DOCUMENTED = [
    (str(path.relative_to(REPO_ROOT)), module, arguments)
    for path in SOURCES
    for _number, module, arguments in command_lines(path.read_text())
]


def test_collector_finds_the_documented_lines():
    places = {place for place, _, _ in DOCUMENTED}
    assert len(DOCUMENTED) >= 40
    assert {
        "README.md",
        "docs/reproduce.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    } <= places


@pytest.mark.parametrize(
    "module,arguments",
    [(module, arguments) for _, module, arguments in DOCUMENTED],
    ids=case_ids(DOCUMENTED),
)
def test_documented_command_line_parses(module, arguments, capsys):
    assert problem(module, arguments) is None, capsys.readouterr().err


def test_no_retired_entry_point_or_flag_is_documented():
    lines = [f"{module} {arguments}" for _, module, arguments in DOCUMENTED]
    assert not [line for line in lines if "run_all" in line]
    assert not [line for line in lines if "--kernel" in line]


def test_checker_flags_retired_lines(capsys):
    """Negative control: continuation joining, comments and pipes are
    handled, and a retired module or flag is reported."""
    text = (
        "```sh\n"
        "PYTHONPATH=src python -m repro.experiments.run_all --preset tiny\n"
        "PYTHONPATH=src python -m repro --preset tiny \\\n"
        "    --kernel scalar\n"
        "$ python -m repro live run --preset tiny  # a comment\n"
        "```\n"
        "        run: >\n"
        "          PYTHONPATH=src python -m repro fleet run --preset tiny\n"
        "          --workers 2 | tee fleet.txt\n"
        "and `PYTHONPATH=src python -m repro experiments\n  run table1`.\n"
    )
    found = command_lines(text)
    assert [number for number, _, _ in found] == [2, 3, 5, 8, 10]
    verdicts = [problem(module, arguments) for _, module, arguments in found]
    assert "not the command line" in verdicts[0]
    assert "does not parse" in verdicts[1] and "--kernel scalar" in verdicts[1]
    assert verdicts[2:] == [None, None, None]
    assert argv_of(found[3][2]) == [
        "fleet", "run", "--preset", "tiny", "--workers", "2"
    ]
    capsys.readouterr()


def test_case_ids_survive_edits_above_them():
    """An id names the place and the command, not its line: a line
    added above a command keeps every id, and only a repeat of the same
    command in one place carries an ordinal."""
    before = "PYTHONPATH=src python -m repro --preset tiny\n"
    after = "# a new first line\n" + before + "$ python -m repro --preset  tiny  # again\n"
    ids = [
        case_ids(("doc.md", module, arguments) for _, module, arguments in command_lines(text))
        for text in (before, after)
    ]
    assert ids == [
        ["doc.md:python -m repro --preset tiny"],
        ["doc.md:python -m repro --preset tiny", "doc.md:python -m repro --preset tiny#2"],
    ]
    assert len(set(case_ids(DOCUMENTED))) == len(DOCUMENTED)
