"""``scripts/bench_snapshot.py`` folds runs of one tree only."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"


@pytest.fixture
def snapshot(tmp_path, monkeypatch):
    """The script's module, writing its snapshot under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def fake_run(checkout, seed, commit, value):
    """One untraced identity-suite run of ``commit`` under ``checkout``."""
    run = checkout / ".bench_out" / f"identity-suite-seed{seed}-trace0"
    run.mkdir(parents=True)
    (run / "metrics.json").write_text(json.dumps({"instances_per_s": [value, "1/s"]}))
    (run / "result.json").write_text(json.dumps({"provenance": {"git_commit": commit}}))


def test_runs_of_two_commits_are_refused(snapshot, tmp_path, capsys):
    checkout = tmp_path / "checkout"
    fake_run(checkout, 0, "a" * 40, 100.0)
    fake_run(checkout, 1, "b" * 40, 200.0)
    assert snapshot.main(["mixed", "--from", str(checkout)]) == 2
    err = capsys.readouterr().err
    assert "a" * 40 in err and "b" * 40 in err
    assert not (tmp_path / "BENCH_mixed.json").exists()


def test_runs_of_one_commit_are_folded(snapshot, tmp_path):
    checkout = tmp_path / "checkout"
    fake_run(checkout, 0, "a" * 40, 100.0)
    fake_run(checkout, 1, "a" * 40, 200.0)
    assert snapshot.main(["one", "--from", str(checkout)]) == 0
    written = json.loads((tmp_path / "BENCH_one.json").read_text())
    metric = written["workloads"]["identity-suite"]["metrics"]["instances_per_s"]
    assert (metric["median"], metric["values"]) == (150.0, [100.0, 200.0])
