"""The README's Library example runs as written.

Each line of the form ``expr  # repr``, whose comment is itself a Python
expression, must evaluate to exactly that repr; any other comment is
prose.  The example's output goes to pytest's capture.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def _repr_comment(line: str) -> str | None:
    """The comment of ``line`` if it parses as an expression, else None."""
    _, hash_, comment = line.partition("  # ")
    if not hash_:
        return None
    try:
        ast.parse(comment.strip(), mode="eval")
    except SyntaxError:
        return None
    return comment.strip()


def test_the_library_block_runs_and_each_repr_comment_holds(capsys):
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            value = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        expected = _repr_comment(lines[node.end_lineno - 1])
        if expected is not None:
            assert repr(value) == expected, ast.unparse(node)
            checked.append(expected)
    assert len(checked) >= 2
    report = namespace["report"]
    out = capsys.readouterr().out
    assert out == report.to_text() + "\n" + 2 * report.to_json()
