"""Smoke-run every example script and the engine snippets of the docs
(the documentation must execute)."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _engine_snippets(*docs):
    """``(id, code)`` of each fenced python block importing repro.engine."""
    found = []
    for name in docs:
        text = (ROOT / "docs" / name).read_text(encoding="utf-8")
        for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
            code = match.group(1)
            if re.search(r"^(from|import) repro\.engine\b", code, re.M):
                line = text.count("\n", 0, match.start()) + 1
                found.append(pytest.param(code, id=f"{name}:{line}"))
    return found


DOC_SNIPPETS = _engine_snippets("robustness.md", "observability.md")


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
    # no stack traces slipped into successful output
    assert "Traceback" not in proc.stderr


def test_doc_snippets_found():
    assert len(DOC_SNIPPETS) >= 2


@pytest.mark.parametrize("code", DOC_SNIPPETS)
def test_doc_snippet_runs_clean(code, tmp_path):
    env = dict(os.environ, QBSS_CACHE_DIR=str(tmp_path / "cache"))
    env.pop("QBSS_FAULT_PLAN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
