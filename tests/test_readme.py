"""The README's Library example runs as written, so an API change breaks a
test and not only the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert scope["result"].success
    assert scope["cert"].defect is None
    assert scope["cover"] == scope["cert"].cover
