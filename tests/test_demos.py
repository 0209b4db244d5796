"""Every demo script runs to the end without raising.

The demos import only the public package API, so a stale name or a
changed signature there shows up here rather than in a user's terminal.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # anything a demo writes lands in a scratch directory
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()
