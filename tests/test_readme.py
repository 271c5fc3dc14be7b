"""The README's library quick start runs as written, so a public name the docs use cannot go missing."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_and_prints_its_verdict():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2  # the point example, then the matrix example, which reuses its np
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == ["True ['EDGE_LN', 'EDGE_LQ', 'SPE']"]
