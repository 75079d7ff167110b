"""The CLI's surface, pinned: what each command parses to, and how it fails.

Two goldens hold what a rewrite of :mod:`repro.cli` must keep:

* ``cli_defaults.json`` — for every subcommand, the namespace a bare
  invocation parses to (every dest but the handler), so no flag's
  default, type or dest can change unnoticed;
* ``cli_options.json`` — ``options_from_args(...).canonical()`` for each
  subcommand that builds run options, once bare and once with every
  option flag it takes set.

Both are compared as JSON text, so a default that turns from ``False``
into ``0`` fails.  Regenerate only for a deliberate surface change with
``PYTHONPATH=src python tests/test_cli_surface.py``.

The error tests hold the other half of the surface: a value the service
rejects ends the command with the service's one-line message, never a
traceback.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import build_parser, main
from repro.service import options_from_args

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_RUN_FLAGS = ["--metrics", "--emit-jsonl", "E.jsonl", "--profile",
              "--progress", "5", "--timebase", "lattice", "--engine",
              "object", "--trace", "T.json"]

#: (bare argv, argv with every option flag the subcommand takes).
OPTION_INVOCATIONS: Dict[str, Tuple[List[str], List[str]]] = {
    "run": (["run"], ["run"] + _RUN_FLAGS),
    "scenario run": (["scenario", "run", "S.json"],
                     ["scenario", "run", "S.json"] + _RUN_FLAGS),
    "grid": (["grid"], [
        "grid", "--backlog-stride", "3", "--jobs", "2", "--no-cache",
        "--cache-dir", "C", "--task-timeout", "1.5", "--retries", "2",
        "--journal", "J.jsonl", "--resume", "--csv", "G.csv", "--progress",
        "--engine", "batch", "--trace", "T.json",
    ]),
    "sst": (["sst"], ["sst", "--max-events", "10"]),
    "submit": (["submit", "S.json"], [
        "submit", "S.json", "--engine", "batch", "--timebase", "fraction",
    ]),
}


def _leaves(
    parser: argparse.ArgumentParser, path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], argparse.ArgumentParser]]:
    """(command path, parser) of every leaf subcommand, in declaration order."""
    children = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not children:
        yield path, parser
        return
    for name, sub in children[0].choices.items():
        yield from _leaves(sub, path + (name,))


def _bare_argv(path: Tuple[str, ...], parser: argparse.ArgumentParser) -> List[str]:
    """The command path plus a placeholder for each required positional."""
    argv = list(path)
    for action in parser._actions:
        if action.option_strings or action.nargs in ("?", "*"):
            continue
        argv.append(str(action.choices[0]) if action.choices else "1")
    return argv


def _dump(document: object) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def parsed_defaults() -> str:
    """Every leaf subcommand's bare namespace, minus the handler."""
    parser = build_parser()
    document = {}
    for path, leaf in _leaves(parser):
        argv = _bare_argv(path, leaf)
        namespace = vars(parser.parse_args(argv))
        namespace.pop("handler")
        document[" ".join(argv)] = namespace
    return _dump(document)


def option_canonicals() -> str:
    """``options_from_args(...).canonical()``, bare and fully flagged."""
    parser = build_parser()
    document = {}
    for name, (bare, flagged) in OPTION_INVOCATIONS.items():
        document[name] = {
            label: options_from_args(parser.parse_args(argv)).canonical()
            for label, argv in (("defaults", bare), ("every flag", flagged))
        }
    return _dump(document)


GOLDENS = {
    "cli_defaults.json": parsed_defaults,
    "cli_options.json": option_canonicals,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_surface_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert GOLDENS[name]() == expected


#: Values the service rejects, with the one line each must end with.
SERVICE_ERRORS = [
    (["grid", "--jobs", "-1"],
     "options.jobs: must be an integer >= 0, got -1"),
    (["grid", "--retries", "-2"],
     "options.retries: must be an integer >= 0, got -2"),
    (["grid", "--backlog-stride", "0"],
     "options.backlog_stride: must be an integer >= 1, got 0"),
    (["grid", "--task-timeout", "0"],
     "options.task_timeout: must be a positive number of seconds, got 0.0"),
    (["sst", "--max-events", "0"],
     "options.max_events: must be an integer >= 1, got 0"),
    (["bounds", "--max-slot", "0"], "R must be >= 1, got 0"),
    (["adversary", "mirror", "--realized-r", "0"],
     "the mirror construction needs integer r >= 2, got 0"),
]


@pytest.mark.parametrize(
    "argv, message", SERVICE_ERRORS, ids=[" ".join(a) for a, _ in SERVICE_ERRORS]
)
def test_rejected_value_exits_with_the_named_error(argv, message, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == message
    assert capsys.readouterr().out == ""


#: Text the CLI cannot convert, for every string-typed time or rate flag
#: a command reads and for the integer ``--realized-r``.
MALFORMED_VALUES = [
    command + [flag, value]
    for command, flags, values in (
        (["bounds"], ("--max-slot", "--rho", "--burstiness"), ("abc", "1/0")),
        (["adversary", "thm4"], ("--max-slot", "--rho"), ("abc", "1/0")),
        (["adversary", "rate1"], ("--max-slot", "--horizon"), ("abc", "1/0")),
        (["run"], ("--max-slot", "--rho", "--horizon"), ("abc", "1/0")),
        (["adversary", "mirror"], ("--realized-r",), ("abc", "1/2")),
    )
    for flag in flags
    for value in values
]


@pytest.mark.parametrize("argv", MALFORMED_VALUES, ids=" ".join)
def test_malformed_value_exits_without_a_traceback(argv, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    code = info.value.code
    assert code == 2 or (isinstance(code, str) and code and "\n" not in code)
    assert capsys.readouterr().out == ""


#: A valid value for each flag some ``repro adversary`` construction reads.
ADVERSARY_FLAGS = {
    "--n": "16", "--realized-r": "4", "--queue-limit": "8", "--rho": "1/2",
    "--max-slot": "2", "--algorithm": "ca-arrow", "--horizon": "50",
    "--seed": "1",
}

#: (construction, a flag it does not read).
IGNORED_FLAGS = [
    (construction, flag)
    for construction, reads in (
        ("mirror", ("--n", "--realized-r")),
        ("thm4", ("--queue-limit", "--rho", "--max-slot")),
        ("rate1", ("--n", "--max-slot", "--algorithm", "--horizon", "--seed")),
    )
    for flag in ADVERSARY_FLAGS
    if flag not in reads
]


@pytest.mark.parametrize(
    "construction, flag", IGNORED_FLAGS, ids=[" ".join(c) for c in IGNORED_FLAGS]
)
def test_adversary_rejects_a_flag_its_construction_ignores(construction, flag,
                                                           capsys):
    with pytest.raises(SystemExit) as info:
        main(["adversary", construction, flag, ADVERSARY_FLAGS[flag]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_rejected_value_prints_one_line_and_exits_1(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "grid", "--jobs", "-1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 1
    assert completed.stdout == ""
    assert completed.stderr == "options.jobs: must be an integer >= 0, got -1\n"


if __name__ == "__main__":
    for name, render in GOLDENS.items():
        (GOLDEN / name).write_text(render(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
