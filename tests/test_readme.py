"""README's Library example, run as it is printed.

Each top-level statement of the example is executed in order; where a
statement ends in a comment, the comment must be the exact ``to_text()`` of
the value: of the expression, or of the name an assignment binds.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block of README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def comments(source: str) -> dict[int, str]:
    """The text of each comment, by line."""
    return {token.start[0]: token.string[1:].strip()
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT}


def test_every_comment_of_the_library_example_is_the_value_it_follows():
    source = library_example()
    said = comments(source)
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.Module([statement], type_ignores=[])
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        else:
            exec(compile(code, "README.md", "exec"), namespace)
            value = namespace[statement.targets[0].id] if isinstance(statement, ast.Assign) else None
        if statement.end_lineno in said:
            assert value.to_text() == said[statement.end_lineno]
            checked.append(said[statement.end_lineno])
    assert len(checked) == 4
