"""The README's library tour runs as written, so a removed name cannot linger there."""

import re
from pathlib import Path

import ojainfer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README}:library-tour", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_exported_name_resolves():
    missing = [name for name in ojainfer.__all__ if not hasattr(ojainfer, name)]
    assert missing == []
