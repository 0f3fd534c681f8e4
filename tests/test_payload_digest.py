"""``scripts/payload_digest.py --compare`` prints the lines that differ and
fails on any difference."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "payload_digest.py"


@pytest.fixture
def digest(monkeypatch):
    """The script's module, digesting one command on one preset."""
    spec = importlib.util.spec_from_file_location("payload_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", {"ratios": module.COMMANDS["ratios"]})
    monkeypatch.setattr(module, "PRESETS", ["m2-worked-example"])
    monkeypatch.setattr(module, "LIBRARY_SWEEPS", {})
    return module


def test_compare_prints_the_tampered_line_and_fails(digest, tmp_path, capsys):
    assert digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[66:] for line in lines] == ["ratios m2-worked-example",
                                             "ratios --config m2-worked-example"]
    before = tmp_path / "before.txt"
    before.write_text("\n".join(lines) + "\n")
    assert digest.main(["--compare", str(before)]) == 0
    assert capsys.readouterr().out == ""

    tampered = "0" * 64 + lines[1][64:]
    before.write_text("\n".join([lines[0], tampered]) + "\n")
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"- {tampered}", f"+ {lines[1]}"]

    before.write_text(lines[0] + "\n")  # a line missing from the earlier output
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"+ {lines[1]}"]
