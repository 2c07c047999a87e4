"""The CI workflow's inline Python scripts compile, so a syntax slip in one
fails here rather than only on the CI runner."""

from __future__ import annotations

import textwrap
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def inline_scripts(text: str) -> list[str]:
    """The body of each ``python - <<'EOF'`` here-document, dedented."""
    scripts, body = [], None
    for line in text.splitlines():
        if body is None:
            if line.rstrip().endswith("python - <<'EOF'"):
                body = []
        elif line.strip() == "EOF":
            scripts.append(textwrap.dedent("\n".join(body)))
            body = None
        else:
            body.append(line)
    assert body is None, "a here-document has no closing EOF line"
    return scripts


def test_inline_scripts_compile():
    text = WORKFLOW.read_text(encoding="utf-8")
    scripts = inline_scripts(text)
    # Every here-document is a Python script that the parser above found.
    assert scripts and len(scripts) == text.count("<<'EOF'")
    for i, script in enumerate(scripts):
        compile(script, f"{WORKFLOW.name}, inline script {i + 1}", "exec")
