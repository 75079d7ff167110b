#!/usr/bin/env python3
"""Generate docs/cli.md from the live argparse tree.

The reference is *generated*, never hand-edited: every command,
subcommand, positional and flag is walked out of ``repro.cli
.build_parser()``, so the page cannot drift from the code.  CI runs
``--check`` to fail the build whenever a flag changes without the
page being regenerated.

Usage::

    PYTHONPATH=src python tools/gen_cli_docs.py            # rewrite docs/cli.md
    PYTHONPATH=src python tools/gen_cli_docs.py --check    # exit 1 if stale
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

OUTPUT = ROOT / "docs" / "cli.md"

HEADER = """\
# CLI reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_cli_docs.py -->

Every command of `python -m repro`, generated from the argparse tree
(so this page cannot drift from the code; CI checks it is current).
Start with [../README.md](../README.md) for task-oriented examples;
the deeper story behind each flag lives in the linked topic pages —
[scenarios.md](scenarios.md), [experiments.md](experiments.md),
[observability.md](observability.md), [tracing.md](tracing.md),
[performance.md](performance.md), [vectorization.md](vectorization.md).
"""


def subcommands(
    parser: argparse.ArgumentParser,
) -> List[Tuple[str, argparse.ArgumentParser]]:
    """(name, parser) for each subcommand, in declaration order."""
    found: List[Tuple[str, argparse.ArgumentParser]] = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for name, sub in action.choices.items():
                if id(sub) not in seen:  # aliases share the parser
                    seen.add(id(sub))
                    found.append((name, sub))
    return found


def command_table(
    parser: argparse.ArgumentParser, prefix: str, heading: str
) -> Iterator[str]:
    """A linked table of ``parser``'s subcommands and their ``help=``."""
    blurbs = {
        choice.dest: choice.help or ""
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for choice in action._choices_actions
    }
    yield f"| {heading} | what it does |"
    yield "|---|---|"
    for name, _ in subcommands(parser):
        command = f"{prefix} {name}".strip()
        anchor = "#repro-" + command.replace(" ", "-")
        yield f"| [`repro {command}`]({anchor}) | {blurbs.get(name, '')} |"
    yield ""


def flag_rows(parser: argparse.ArgumentParser) -> List[Tuple[str, str]]:
    """(rendered invocation, help) for each argument of one parser."""
    rows: List[Tuple[str, str]] = []
    for action in parser._actions:
        if isinstance(action, (argparse._SubParsersAction, argparse._HelpAction)):
            continue
        if action.option_strings:
            name = ", ".join(action.option_strings)
            if action.nargs != 0:
                metavar = action.metavar or (
                    "{" + ",".join(map(str, action.choices)) + "}"
                    if action.choices
                    else action.dest.upper()
                )
                name = f"{name} {metavar}"
        else:
            name = action.metavar or action.dest
            if action.choices and not action.metavar:
                name = "{" + ",".join(map(str, action.choices)) + "}"
        help_text = " ".join((action.help or "").split())
        if action.default not in (None, False, argparse.SUPPRESS) and (
            "%(default)" not in (action.help or "")
        ):
            help_text = (
                f"{help_text} (default: `{action.default}`)"
                if help_text
                else f"(default: `{action.default}`)"
            )
        help_text = help_text.replace("|", "\\|")
        rows.append((name, help_text))
    return rows


def walk(
    name: str, parser: argparse.ArgumentParser, depth: int
) -> Iterator[str]:
    """Markdown sections for one command and, recursively, its subcommands."""
    title = f"repro {name}" if name else "repro"
    yield f"{'#' * min(depth + 2, 6)} `{title}`"
    yield ""
    description = parser.description or ""
    if name:  # the root description duplicates the README lede
        blurb = " ".join(description.split())
        if blurb:
            yield blurb
            yield ""
    rows = flag_rows(parser)
    if rows:
        yield "| argument | description |"
        yield "|---|---|"
        for invocation, help_text in rows:
            yield f"| `{invocation}` | {help_text} |"
        yield ""
    children = subcommands(parser)
    if children and name:
        yield from command_table(parser, name, "subcommand")
    for child, sub in children:
        yield from walk(f"{name} {child}".strip(), sub, depth + 1)


def render() -> str:
    parser = build_parser()
    lines: List[str] = [HEADER]
    lines.extend(command_table(parser, "", "command"))
    for name, sub in subcommands(parser):
        lines.extend(walk(name, sub, 1))
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def main(argv: List[str]) -> int:
    check = "--check" in argv
    text = render()
    if check:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != text:
            print(
                "docs/cli.md is stale — regenerate with:\n"
                "    PYTHONPATH=src python tools/gen_cli_docs.py",
                file=sys.stderr,
            )
            return 1
        print("docs/cli.md is up to date")
        return 0
    OUTPUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
