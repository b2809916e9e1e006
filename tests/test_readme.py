"""The README's python examples run in order, in one namespace, and every
expression followed by a comment holding a python literal evaluates to it."""

import ast
import pathlib
import re

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
    assert checked == [[2.7, 4.7, 6.7], -0.10330578512396693, True]
