import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_as_documented():
    # the library quick start, exactly as README shows it
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().split() == ["5.0"]
    assert namespace["ok"] is True


def test_star_import_gives_every_public_name():
    # every name in mgincept.__all__ resolves, so a removed public name
    # cannot linger there, and `from mgincept import *` binds them all
    import mgincept

    namespace = {}
    exec("from mgincept import *", namespace)
    for name in mgincept.__all__:
        assert namespace[name] is getattr(mgincept, name)
    assert len(set(mgincept.__all__)) == len(mgincept.__all__)
    for gone in ("LpSolution", "LinearProgram", "solve_lp"):
        assert gone not in namespace
