"""The README's python examples run in order, in one namespace, and every
expression followed by a comment holding a python literal evaluates to it;
its `$ dunkl-spectra ...` examples print the lines they show."""

import ast
import pathlib
import re
import shlex

from dunkl_spectra.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _shown(lines, stmt):
    """The literal in the comment that ends stmt's last line or fills the
    next one, or None when there is no such comment."""
    rest = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
    after = lines[stmt.end_lineno].strip() if stmt.end_lineno < len(lines) else ""
    comment = rest or after
    if not comment.startswith("#"):
        return None
    try:
        return [ast.literal_eval(comment[1:].strip())]
    except (ValueError, SyntaxError):
        return None


def test_readme_python_blocks_show_their_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    namespace, checked = {}, []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            shown = _shown(lines, stmt)
            if shown is not None:
                assert value == shown[0], ast.unparse(stmt)
                checked.append(shown[0])
    assert checked == [[2.7, 4.7, 6.7], -0.10330578512396693, True,
                       [False, True], True]


def test_readme_command_blocks_print_their_lines(capsys):
    # the lines shown follow the command in order; a "..." line skips any
    # number of output lines
    blocks = re.findall(r"```\n\$ dunkl-spectra (.*?)\n(.*?)```",
                        README.read_text("utf-8"), re.S)
    assert [argv for argv, _ in blocks] == [
        "spectrum --potential coulomb --d 3 --mu 0 --levels 3",
        "spectrum --potential oscillator --d 2 --mu -0.3,-0.1 --levels 2"]
    for argv, shown in blocks:
        assert main(shlex.split(argv)) == 0
        pattern = "".join(r"(?:.*\n)*?" if line == "..." else
                          re.escape(line) + r"\n"
                          for line in shown.splitlines())
        assert re.fullmatch(pattern, capsys.readouterr().out)
