"""README names only what exists: every --flag, verb, exit code and
artifact file name it mentions is read from the code that defines it, the
parser (cli.build_parser), the verb table (cli.COMMANDS), cli's docstring
and the file names cli.py hands to run.path, so the prose cannot drift
from the program."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from hmaxwell import cli
from hmaxwell.inverse_lab import SweepRow

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SRC = ROOT / "src" / "hmaxwell"
ARTIFACT = re.compile(r"(?<![\w./*-])([\w-]+\.(?:csv|json|svg|npy|npz|txt))\b")


def parser_flags() -> set:
    """Every option string of the parser and of each verb's subparser."""
    parser = cli.build_parser()
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action.choices, dict)  # the verbs
                          for sub in action.choices.values()]
    return {flag for p in parsers for action in p._actions
            for flag in action.option_strings}


def test_every_flag_readme_names_is_an_option():
    """A --flag in README is one the parser accepts; the command lines of
    pip and pytest, which README also shows, are not hmaxwell's."""
    text = re.sub(r"(pip install|python3 -m pytest)[^`\n]*", "", README)
    named = set(re.findall(r"(?<![\w-])(--[a-z][a-z-]*)", text))
    assert named, "README names no flag"
    assert named <= parser_flags(), sorted(named - parser_flags())


def test_readme_lists_every_verb_and_runs_only_verbs():
    """The verb list names each verb of cli.COMMANDS once, and every
    example command line runs one of them."""
    listed = re.findall(r"^- `([a-z-]+)`: ", README, re.M)
    assert sorted(listed) == sorted(cli.COMMANDS)
    run = re.findall(r"^hmaxwell ([a-z][a-z-]*)", README, re.M)
    assert run and set(run) <= set(cli.COMMANDS), run


def test_exit_codes_match_the_cli_docstring():
    """README's exit codes, each with its label, are the ones cli's
    docstring declares, and no others."""
    declared = next(par for par in cli.__doc__.split("\n\n")
                    if par.startswith("Exit codes:"))
    codes = re.findall(r"(?:Exit codes:|;)\s+(\d+) ([a-z]+(?: [a-z]+)*)",
                       " ".join(declared.split()))
    listed = re.findall(r"^- (\d+): ([a-z ]+)\.", README, re.M)
    assert codes and sorted(listed) == sorted(codes), (listed, codes)


def artifact_patterns() -> list:
    """A full-match regex per file name cli.py passes to run.path (an
    f-string's fields match any word), and the manifest's."""
    patterns = [re.escape("manifest.json")]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "path" and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "run"):
            arg = call.args[0]
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            patterns.append("".join(re.escape(p.value) if isinstance(p, ast.Constant)
                                    else r"\w+" for p in parts))
    return patterns


def test_every_artifact_readme_names_is_written():
    """Each artifact file name in README is one a verb writes, and README
    names every file a verb writes."""
    patterns = artifact_patterns()
    report = (SRC / "report.py").read_text(encoding="utf-8")
    assert '"manifest.json"' in report
    named = set(ARTIFACT.findall(README))
    unknown = [name for name in named
               if not any(re.fullmatch(p, name) for p in patterns)]
    assert not unknown, unknown
    unnamed = [p for p in patterns if not any(re.fullmatch(p, n) for n in named)]
    assert not unnamed, unnamed


def test_sweep_columns_are_the_sweep_row_fields():
    """README lists sweep.csv's columns in the order rank-sweep writes them."""
    columns = re.search(r"columns of `sweep\.csv` are `([^`]+)`", README)
    assert columns is not None
    assert columns.group(1).replace(",", " ").split() == [
        f.name for f in fields(SweepRow)]
