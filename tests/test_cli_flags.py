"""Every option a subcommand defines is read by the code that runs it.

No linter is a dependency of the project, so this parses ``cli.py`` with
``ast``, like ``tests/test_unused_imports.py``. A subcommand's reads are the
``args.<dest>`` and ``getattr(args, "<dest>", ...)`` expressions of its
``cmd_*`` function and of every ``cli`` function it passes ``args`` to.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

import pytest

from mixprec import cli

SOURCE = Path(cli.__file__).read_text()
FUNCTIONS = {
    node.name: node for node in ast.parse(SOURCE).body if isinstance(node, ast.FunctionDef)
}

# Accepted but unread, with the reason each stays.
UNREAD = {
    ("search", "json"): "scripts pass it; the search prints the same output with or without it",
}


def subcommands(parser: argparse.ArgumentParser, prefix: str = ""):
    """(name, parser) of every subcommand that runs a ``cmd_*`` function."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.get_default("func") is not None:
                    yield f"{prefix}{name}", sub
                yield from subcommands(sub, f"{prefix}{name} ")


def reads(function: str, param: str, seen: set[str] | None = None) -> set[str]:
    """The attributes of ``param`` that ``function`` reads, following every
    call that hands ``param`` on to another function of ``cli.py``."""
    seen = set() if seen is None else seen
    if function in seen:
        return set()
    seen.add(function)
    found = set()
    for node in ast.walk(FUNCTIONS[function]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            found.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [arg for arg in node.args if isinstance(arg, ast.Name) and arg.id == param]
            if node.func.id == "getattr" and passed and isinstance(node.args[1], ast.Constant):
                found.add(node.args[1].value)
            elif node.func.id in FUNCTIONS and passed:
                callee = FUNCTIONS[node.func.id].args.args
                for index, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name) and arg.id == param:
                        found |= reads(node.func.id, callee[index].arg, seen)
    return found


SUBCOMMANDS = list(subcommands(cli.build_parser()))


@pytest.mark.parametrize("name, parser", SUBCOMMANDS, ids=[name for name, _ in SUBCOMMANDS])
def test_every_option_is_read(name, parser):
    func = parser.get_default("func").__name__
    read = reads(func, FUNCTIONS[func].args.args[0].arg)
    dests = [action.dest for action in parser._actions
             if not isinstance(action, argparse._HelpAction)]
    unread = [dest for dest in dests if dest not in read and (name, dest) not in UNREAD]
    assert not unread, f"{name}: {func} never reads {unread}"


def test_every_exception_is_still_an_option():
    defined = {(name, action.dest) for name, parser in SUBCOMMANDS for action in parser._actions}
    assert set(UNREAD) <= defined
