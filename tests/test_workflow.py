"""The CI workflow runs the documented Tier-1 command on the supported Python range."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_tier1_step_runs_the_roadmap_command():
    command = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"),
                        re.MULTILINE).group(1)
    runs = re.findall(r"^\s+run: (.+)$", WORKFLOW.read_text(encoding="utf-8"), re.MULTILINE)
    assert runs[-1] == command


def test_matrix_starts_at_the_oldest_supported_python():
    oldest = re.search(r'^requires-python = ">=(3\.\d+)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                       re.MULTILINE).group(1)
    versions = re.search(r"^\s+python-version: \[(.+)\]$", WORKFLOW.read_text(encoding="utf-8"), re.MULTILINE).group(1)
    assert [v.strip().strip('"') for v in versions.split(",")] == [oldest, "3.13"]
