"""Unit tests for the docs link checker under tools/."""

import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_links = _load("check_links")


class TestLinkChecker:
    def test_heading_anchors_github_slugs(self):
        anchors = check_links.heading_anchors(
            "# Reading run_result.json\n"
            "## Choosing `workers`\n"
            "## Exact vs. sketch mode\n"
            "## Dup\n## Dup\n"
        )
        assert "reading-run_resultjson" in anchors
        assert "choosing-workers" in anchors
        assert "exact-vs-sketch-mode" in anchors
        assert {"dup", "dup-1"} <= anchors

    def test_fenced_code_not_a_heading(self):
        anchors = check_links.heading_anchors("```bash\n# not a heading\n```\n")
        assert anchors == set()

    def test_broken_anchor_detected(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Section\n", encoding="utf-8")
        source = tmp_path / "source.md"
        source.write_text(
            "[ok](target.md#real-section) [bad](target.md#missing-section)\n",
            encoding="utf-8",
        )
        errors = check_links.check_file(source)
        assert len(errors) == 1
        assert "missing-section" in errors[0]

    def test_same_file_anchor(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Alpha\n\n[up](#alpha) [down](#beta)\n", encoding="utf-8")
        errors = check_links.check_file(doc)
        assert len(errors) == 1
        assert "#beta" in errors[0]

    def test_missing_file_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[gone](nowhere.md)\n", encoding="utf-8")
        errors = check_links.check_file(doc)
        assert len(errors) == 1
