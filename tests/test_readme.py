"""The README's "Library use" example runs as documented: its Python block,
run in a fresh interpreter with `src/` on the path, prints what the
comments on its `print` lines say, so a renamed or broken name in the
example fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_use_block():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_its_comments():
    code = library_use_block()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected, "the example documents no output"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert r.stdout.splitlines() == expected
