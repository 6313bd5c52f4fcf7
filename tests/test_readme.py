import ast
import re

from conftest import FIXTURES


def test_readme_library_example_runs_and_gives_its_commented_result():
    readme = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    *body, last = block.strip().splitlines()
    expression, expected = last.split("#", 1)
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert eval(expression, namespace) == ast.literal_eval(expected.strip())
