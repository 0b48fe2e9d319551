"""README stays honest: its CLI lines parse, the API it names exists, and its
table of bimodule axioms is the derivation table the checks use."""

import importlib
import logging
import pathlib
import re
import shlex

import pytest

import superalt
import superalt.io
from superalt.bimodules import _DERIVATIONS
from superalt.cli import build_parser, main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def cli_block():
    """The lines of the README's CLI block, comments cut, each with the exit
    code it is to end with: 1 where the line says `# exit 1`, else 0."""
    block = README.split("## CLI", 1)[1].split("```", 2)[1]
    return [(line.split("#", 1)[0].strip(), 1 if "# exit 1" in line else 0)
            for line in block.splitlines() if line.strip()]


def cli_lines():
    return [line for line, _ in cli_block() if line.startswith("superalt ")]


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


def test_the_readme_cli_block_runs_in_order(tmp_path, monkeypatch):
    """Every line of the block, run in order in an empty directory, ends
    with its exit code; the python3 line runs the code it quotes."""
    monkeypatch.chdir(tmp_path)
    for line, code in cli_block():
        program, *argv = shlex.split(line)
        if program == "python3":
            assert argv[0] == "-c", line
            exec(argv[1], {})
        else:
            assert program == "superalt", line
            assert main(argv) == code, line


@pytest.mark.parametrize("name", api_names())
def test_every_api_name_of_the_readme_resolves(name):
    assert callable(resolve(name)), name


def derivation_rows():
    """The rows (axiom, identity, arrangement, sign) of the README's table of
    bimodule axioms, in bimodules._DERIVATIONS's spelling: the arrangement
    as the slot letters the identity reads, the sign as +, - or the two
    slots of (-1)^(|a||b|)."""
    table = README.split("| axiom | identity at | sign |", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.strip().splitlines()[1:]:
        axiom, at, sign = (cell.strip() for cell in line.strip("|").split(" | "))
        identity, *slots = re.fullmatch(r"`([\w-]+)` at \((\w), (\w), (\w)\)", at).groups()
        power = re.fullmatch(r"\(-1\)\^\(\\\|(\w)\\\|\\\|(\w)\\\|\)", sign)
        rows.append((axiom, identity, "".join(slots),
                     "".join(power.groups()) if power else {"+": "+", "−": "-"}[sign]))
    return rows


def test_the_readme_table_of_bimodule_axioms_is_the_derivation_table():
    rows = [row for _, _, law_rows in _DERIVATIONS.values() for row in law_rows]
    assert len(rows) == 14
    assert derivation_rows() == rows


def test_the_readme_debug_line_of_the_plus_jordan_check(caplog):
    """The contracted group's DEBUG line of the hom-jordan check of
    plus_jordan(l1-oct) ends with the work the README quotes for it."""
    quoted = re.search(r"\(`(\d+ slices, \d+ polynomial terms, \d+ shared)` on the `plus_jordan`",
                       README).group(1)
    a = superalt.plus_jordan(superalt.tensor_alt(superalt.grassmann1(), superalt.octonions()))
    with caplog.at_level(logging.DEBUG, logger="superalt"):
        assert superalt.check_product_law(a, "hom-jordan").passed
    [line] = [r.getMessage() for r in caplog.records
              if r.name == "superalt" and ": contract: " in r.getMessage()]
    assert line.startswith("hom-jordan group 2/2: contract: 65536 tuples")
    assert line.endswith(quoted)
