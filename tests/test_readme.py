"""The README's examples run as written, and its figures match the code."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first python code block under the ``## heading`` section."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_runs_as_written(capsys):
    exec(compile(_python_block("Library use"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("{'gray1'")


def test_check_count_matches_the_registry():
    from nklab import suites

    counts = re.findall(r"\((\d+) checks\)", README.read_text())
    assert counts and all(int(n) == len(suites.CHECKS) for n in counts)
