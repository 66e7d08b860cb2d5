import re
import runpy
import shlex
from pathlib import Path

import pytest

from gsvdkit import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_runs():
    # the README's first python block, so no name it uses can go stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md library tour", "exec"), {})


def test_readme_command_lines_parse():
    # every `gsvdkit ...` line of the README's "Command line" block, its
    # backslash continuations joined, is one the parser accepts, and the
    # block shows each subcommand once
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    parsed = [cli.build_parser().parse_args(words[1:]).command
              for words in lines if words and words[0] == "gsvdkit"]
    assert sorted(parsed) == ["angles", "anova", "ellipse", "gsvd", "jacobi", "reduce",
                              "tikhonov", "verify"]
