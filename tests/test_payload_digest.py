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
    kernel, *lines = capsys.readouterr().out.splitlines()
    assert kernel == f"blas-kernel {digest.blas_kernel()}"
    assert [line[66:] for line in lines] == ["ratios m2-worked-example",
                                             "ratios --config m2-worked-example"]
    before = tmp_path / "before.txt"
    before.write_text("\n".join([kernel, *lines]) + "\n")
    assert digest.main(["--compare", str(before)]) == 0
    assert capsys.readouterr().out == ""

    tampered = "0" * 64 + lines[1][64:]
    before.write_text("\n".join([kernel, lines[0], tampered]) + "\n")
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"- {tampered}", f"+ {lines[1]}"]

    before.write_text("\n".join([kernel, lines[0]]) + "\n")  # a line missing from it
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"+ {lines[1]}"]


def test_compare_names_a_kernel_mismatch_first_and_fails(digest, tmp_path, capsys):
    assert digest.main([]) == 0
    kernel, *lines = capsys.readouterr().out.splitlines()
    before = tmp_path / "before.txt"
    before.write_text("\n".join(["blas-kernel Prescott", *lines]) + "\n")
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"blas kernel mismatch: Prescott before, {digest.blas_kernel()} now"]

    tampered = "0" * 64 + lines[0][64:]
    before.write_text("\n".join([tampered, lines[1]]) + "\n")  # no kernel line at all
    assert digest.main(["--compare", str(before)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"blas kernel mismatch: none named before, {digest.blas_kernel()} now",
        f"- {tampered}", f"+ {lines[0]}"]


def test_kernel_is_named_or_unknown(digest, monkeypatch):
    name = digest.blas_kernel()
    assert name and name == name.strip() and " " not in name
    monkeypatch.setattr(digest.ctypes, "CDLL", lambda path: object())  # no such symbol
    assert digest.blas_kernel() == "unknown"
