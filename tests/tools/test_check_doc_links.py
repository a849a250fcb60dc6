"""The documentation gate: dead links and stale script paths fail it."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_doc_links.py"


@pytest.fixture
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plant(root, readme):
    (root / "README.md").write_text(readme, encoding="utf-8")


def test_repository_docs_pass(checker, capsys):
    assert checker.main() == 0
    assert "docs links ok" in capsys.readouterr().out


@pytest.mark.parametrize("readme", [
    "Run `benchmarks/gone.py` for the study.\n",
    "Run `python benchmarks/gone.py --quick` for the study.\n",
    "Run it:\n\n```bash\npython benchmarks/gone.py --quick\n```\n",
], ids=["inline", "inline-command", "fenced"])
def test_missing_backticked_script_fails(checker, monkeypatch, tmp_path,
                                         capsys, readme):
    _plant(tmp_path, readme)
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    assert checker.main() == 1
    assert "benchmarks/gone.py" in capsys.readouterr().err


def test_existing_script_and_bare_names_pass(checker, monkeypatch, tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "here.py").write_text("", encoding="utf-8")
    # A bare file name has no directory part, so it is not a repo path.
    _plant(tmp_path, "Run `benchmarks/here.py`, or just `here.py`.\n")
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    assert checker.main() == 0
