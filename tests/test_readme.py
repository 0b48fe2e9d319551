"""README stays honest: its CLI lines parse and the API it names exists."""

import importlib
import pathlib
import re
import shlex

import pytest

import superalt
import superalt.io
from superalt.cli import build_parser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def cli_lines():
    block = README.split("## CLI", 1)[1].split("```", 2)[1]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("superalt ")]


def api_names():
    """Every name called in a backticked span; one-letter names are math (`T(u)`)."""
    names = set()
    for span in re.findall(r"`([^`\n]+)`", README):
        names.update(re.findall(r"([A-Za-z_][\w.]*)\(", span))
    return sorted(n for n in names if len(n) > 1)


def resolve(name):
    """The object a README name stands for: from superalt or superalt.io, a
    dotted name from its module (superalt.corpus, or the standard library)."""
    head, _, rest = name.partition(".")
    if not rest:
        for module in (superalt, superalt.io):
            if hasattr(module, name):
                return getattr(module, name)
        raise AttributeError(name)
    obj = getattr(superalt, head, None)
    if obj is None:
        obj = importlib.import_module(head)
    for part in rest.split("."):
        obj = getattr(obj, part)
    return obj


def test_the_readme_has_cli_lines_and_api_names():
    assert len(cli_lines()) >= 10
    assert "check_operator" in api_names()


@pytest.mark.parametrize("line", cli_lines())
def test_every_cli_line_of_the_readme_parses(line):
    argv = shlex.split(line)[1:]
    args = build_parser().parse_args(argv)
    assert args.verb == argv[0]


@pytest.mark.parametrize("name", api_names())
def test_every_api_name_of_the_readme_resolves(name):
    assert callable(resolve(name)), name
