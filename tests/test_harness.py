"""Config validation, presets, commands, CLI surface, determinism, containment
and pinned payloads."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmart as nc
from ncmart.harness import (ExperimentConfig, cmd_kolmogorov, cmd_ratios, cmd_refine,
                            cmd_verify, load_config, midpoint_chain, preset)
from ncmart.harness import commands
from ncmart.harness.cli import main
from ncmart.harness.config import MAX_ALGEBRA_DIM, MAX_INSTANCES
from ncmart.harness import checks
from ncmart.harness.report import VerificationReport, _strict
from ncmart.tolerances import worst
from conftest import structures

PINS = Path(__file__).parent / "data" / "payload_pins.json"
PIN_INSTANCES = {"m2-worked-example": 1, "m4-random": 3, "m2m3-random": 3}
REFINE_ADDED = ("gap_orthogonality", "gap_fourth_moment",
                "kolmogorov_trace_bound", "kolmogorov_sup_norm")


def m2_config(**overrides):
    data = preset("m2-worked-example")
    data.update(overrides)
    return data


class TestConfigValidation:
    def test_preset_roundtrip(self):
        cfg = load_config(preset("m2-worked-example"))
        assert cfg.block_dims == (2,)
        assert load_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_construction_copies_the_json_parts(self):
        data = preset("m2-worked-example")
        levels, terminal = list(data["levels"]), data["terminal"]
        cfg = ExperimentConfig(block_dims=(2,), block_weights=None, times=tuple(data["times"]),
                               levels=tuple(levels), terminal=terminal)
        before = json.dumps(cfg.to_dict())
        terminal["blocks"][0]["real"][0][1] = 99.0
        levels[0]["groups"] = [[0]]
        levels[1].clear()
        assert json.dumps(cfg.to_dict()) == before
        assert cfg.fixed_terminal.blocks[0][0, 1] == 1.0

    def test_unknown_preset(self):
        with pytest.raises(nc.ConfigError):
            preset("no-such-preset")

    def test_non_increasing_filtration_names_level(self):
        data = m2_config(levels=[
            {"kind": "block_full", "groups": [[[0], [1]]]},
            {"kind": "scalars"},
            {"kind": "block_full", "groups": [[[0, 1]]]},
        ])
        with pytest.raises(nc.ConfigError) as err:
            load_config(data)
        assert "level 0" in str(err.value)

    def test_bad_groups_path(self):
        data = m2_config(levels=[
            {"kind": "scalars"},
            {"kind": "block_full", "groups": [[[0], [0, 1]]]},
            {"kind": "block_full", "groups": [[[0, 1]]]},
        ])
        with pytest.raises(nc.ConfigError) as err:
            load_config(data)
        assert err.value.field == "levels[1]"

    @pytest.mark.parametrize("general", [{"kind": "general", "basis": []},
                                         {"kind": "general"}])
    def test_empty_general_basis_names_its_level(self, general):
        data = m2_config(levels=[
            {"kind": "scalars"}, general, {"kind": "block_full", "groups": [[[0, 1]]]}])
        with pytest.raises(nc.ConfigError) as err:
            load_config(data)
        assert err.value.field == "levels[1]"

    def test_p_values_validated(self):
        with pytest.raises(nc.ConfigError):
            load_config(m2_config(p_values=[]))
        with pytest.raises(nc.ConfigError):
            load_config(m2_config(p_values=[1.5]))

    def test_level_count_must_match_times(self):
        data = m2_config(times=[0.0, 1.0])
        with pytest.raises(nc.ConfigError):
            load_config(data)

    # the fields that each optional config key sets
    OPTIONAL_KEYS = {"seed": ("seed",), "instances": ("instances",), "p_values": ("p_values",),
                     "epsilon": ("epsilon_mode", "epsilon_value"),
                     "partition_chain": ("partition_chain",),
                     "output": ("output_path", "output_format")}

    @pytest.mark.parametrize("key", OPTIONAL_KEYS)
    def test_omitted_key_is_the_field_default(self, tmp_path, key):
        data = m2_config(seed=7, instances=3, p_values=[2.0, 5.0],
                         epsilon={"mode": "fixed", "value": 0.5},
                         partition_chain=[[0, 2], [0, 1, 2]],
                         output={"path": str(tmp_path / "out.csv"), "format": "csv"})
        given = load_config(data)
        del data[key]
        fields = {f.name: getattr(given, f.name) for f in dataclasses.fields(ExperimentConfig)
                  if f.init and f.name not in self.OPTIONAL_KEYS[key]}
        assert load_config(data) == ExperimentConfig(**fields)
        assert load_config(data) != given

    def test_epsilon_validation(self):
        with pytest.raises(nc.ConfigError):
            load_config(m2_config(epsilon={"mode": "fixed", "value": -1.0}))
        with pytest.raises(nc.ConfigError):
            load_config(m2_config(epsilon={"mode": "quantile", "value": 10.0}))

    def test_explicit_chain_must_nest(self):
        with pytest.raises(nc.ConfigError):
            load_config(m2_config(partition_chain=[[0, 1], [0, 2]]))

    def test_midpoint_chain_nested_and_terminates(self):
        for n in (2, 3, 5, 9, 12):
            chain = midpoint_chain(n)
            assert chain[0] == (0, n - 1)
            assert chain[-1] == tuple(range(n))
            for a, b in zip(chain, chain[1:]):
                assert set(a) <= set(b)


def with_value(path, value):
    """The m2-worked-example preset with the entry at ``path`` set to ``value``."""
    data = preset("m2-worked-example")
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


# (path into the preset, malformed value, field the ConfigError must name)
MALFORMED = [
    (("algebra", "block_dims"), ["a"], "algebra.block_dims[0]"),
    (("instances",), "x", "instances"),
    (("instances",), 2.7, "instances"),
    (("seed",), 1.5, "seed"),
    (("seed",), -1, "seed"),
    (("times",), ["a", 1.0, 2.0], "times[0]"),
    (("algebra", "block_weights"), ["x"], "algebra.block_weights[0]"),
    (("partition_chain",), [["a"]], "partition_chain[0][0]"),
    (("levels", 1, "groups"), 5, "levels[1]"),
    # a field the level's kind does not read is an error, not dropped
    (("levels", 1, "basis"), [[{"real": [[0.0, 1.0], [0.0, 0.0]]}]], "levels[1].basis"),
    (("levels", 0, "groups"), [[[0, 1]]], "levels[0].groups"),
    (("output",), "x", "output"),
    (("terminal",), "x", "terminal"),
    (("p_values",), [math.nan], "p_values[0]"),
    (("epsilon", "value"), math.nan, "epsilon.value"),
    (("terminal", "blocks", 0, "real", 0, 1), math.nan, "terminal.blocks[0]"),
]

JSON_KEYS = st.text(max_size=6) | st.sampled_from(
    ["kind", "groups", "basis", "blocks", "real", "imag", "mode", "value", "path", "format",
     "block_dims", "block_weights"])
# small integers only, so that no draw asks for a huge algebra or sweep
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-16, 16) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=16)
FUZZED_PATHS = ([(key,) for key in [*preset("m2-worked-example"), "output"]]
                + [("algebra", "block_dims"), ("algebra", "block_weights"),
                   ("epsilon", "value"), ("terminal", "blocks")])


class TestMalformedConfig:
    """Every malformed value is a ConfigError naming its field, and exit code 2."""

    @pytest.mark.parametrize("path, value, field", MALFORMED,
                             ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v, _ in MALFORMED])
    def test_config_error_names_the_field(self, tmp_path, capsys, path, value, field):
        data = with_value(path, value)
        with pytest.raises(nc.ConfigError) as err:
            load_config(data)
        assert err.value.field == field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    def test_negative_seed_override_is_exit_two(self, capsys):
        assert main(["verify", "--preset", "m2-worked-example", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_integral_floats_load_as_integers(self):
        cfg = load_config(m2_config(seed=5.0, instances=2.0, partition_chain=[[0.0, 2.0]]))
        assert (cfg.seed, cfg.instances, cfg.chain) == (5, 2, ((0, 2),))
        assert type(cfg.seed) is int and type(cfg.instances) is int

    @pytest.fixture
    def nothing_allocated(self, monkeypatch):
        """Fail the test if a filtration is built or an instance stream drawn."""
        def allocates(*args, **kwargs):
            raise AssertionError("a capped config allocated before it was rejected")
        monkeypatch.setattr(ExperimentConfig, "build_filtration", allocates)
        monkeypatch.setattr(commands, "spawn_generators", allocates)

    def test_instance_count_above_the_cap_is_exit_two(self, capsys, nothing_allocated):
        assert main(["ratios", "--preset", "m4-random",
                     "--instances", str(MAX_INSTANCES + 1)]) == 2
        assert f"config error: instances: must be at most {MAX_INSTANCES}" \
            in capsys.readouterr().err

    def test_algebra_above_the_cap_is_exit_two(self, tmp_path, capsys, nothing_allocated):
        data = preset("m4-random")
        data["algebra"] = {"block_dims": [1] * (MAX_ALGEBRA_DIM + 1)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "config error: algebra.block_dims: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, name", [
        ("instances", MAX_INSTANCES + 1, "instances"),
        ("block_dims", (1,) * (MAX_ALGEBRA_DIM + 1), "algebra.block_dims"),
        ("epsilon_mode", "bogus", "epsilon"),
        ("epsilon_value", 150.0, "epsilon.value"),
        ("seed", -1, "seed"),
        ("p_values", (1.0,), "p_values"),
        ("output_format", "xml", "output.format")])
    def test_direct_construction_above_the_cap_is_a_config_error(
            self, nothing_allocated, field, value, name):
        data = preset("m2-worked-example")
        fields = {"block_dims": tuple(data["algebra"]["block_dims"]), "block_weights": None,
                  "times": tuple(data["times"]), "levels": tuple(data["levels"])}
        with pytest.raises(nc.ConfigError) as err:
            ExperimentConfig(**{**fields, field: value})
        assert err.value.field == name

    def test_the_instance_cap_admits_itself(self):
        assert load_config(m2_config(instances=MAX_INSTANCES)).instances == MAX_INSTANCES

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(path=st.sampled_from(FUZZED_PATHS), value=JSON_VALUES)
    def test_any_json_value_loads_or_names_its_field(self, path, value):
        try:
            load_config(with_value(path, value))
        except nc.ConfigError as err:
            assert err.field


class TestParseOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = ExperimentConfig.build_filtration

        def counting(self):
            calls.append(None)
            return real(self)
        monkeypatch.setattr(ExperimentConfig, "build_filtration", counting)
        return calls

    def test_config_file_run_builds_the_filtration_once(self, tmp_path, builds):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(preset("m2-worked-example")))
        assert main(["refine", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
        assert len(builds) == 1

    def test_preset_run_builds_the_filtration_once(self, tmp_path, builds):
        assert main(["verify", "--preset", "m2-worked-example",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert len(builds) == 1

    def test_commands_read_the_built_fields(self):
        cfg = load_config(m2_config(partition_chain=[[0, 2], [0, 1, 2]]))
        assert cfg.chain == ((0, 2), (0, 1, 2))
        assert cfg.fixed_terminal.blocks[0][0, 1] == 1.0
        assert cfg.filtration.algebra.block_dims == (2,)
        assert cfg == load_config(cfg.to_dict())  # derived fields take no part in equality


class TestRandomStructures:
    """The identity checks of verify, kolmogorov and refine hold on random
    nested chains, beyond the fixed structures of the presets and the pool."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(config=structures())
    def test_every_record_passes(self, config):
        for command in (cmd_verify, cmd_kolmogorov, cmd_refine):
            report = command(config)
            assert report.records
            failed = [vars(r) for r in report.records if not r.passed]
            assert not failed, (command.__name__, failed[:3])


class TestCommands:
    def test_verify_m2_preset_all_pass_tightly(self):
        report = cmd_verify(load_config(preset("m2-worked-example")))
        assert report.all_passed
        assert max(r.residual for r in report.records) <= 1e-10
        assert report.summary["all_passed"]

    def test_verify_covers_contracted_checks(self):
        report = cmd_verify(load_config(preset("m2-worked-example")))
        names = {r.check for r in report.records}
        for expected in ("trace_duality", "increment_projection", "increment_energy",
                         "tower_property", "module_property", "refinement_invariance",
                         "integral_martingale_left", "bracket_equals_qv",
                         "naturality_pairing", "gap_orthogonality",
                         "uniqueness_residual", "cross_expansion", "cross_polarization"):
            assert expected in names

    def test_ratios_table_and_summary(self):
        cfg = load_config(m2_config(instances=4, p_values=[2.0, 4.0]))
        report = cmd_ratios(cfg)
        rows = report.tables["ratios"]
        assert {r["p"] for r in rows} == {2.0, 4.0}
        assert all(set(r) == {"p", "instance", "bg_ratio", "dual_doob_ratio", "seed"}
                   for r in rows)
        p2 = [r["bg_ratio"] for r in rows if r["p"] == 2.0]
        assert all(v <= 1.0 + 1e-9 for v in p2)
        assert report.summary["all_finite"]

    def test_kolmogorov_certificates(self):
        report = cmd_kolmogorov(load_config(preset("m2-worked-example")))
        assert report.all_passed
        sides = {c["side"] for c in report.certificates}
        assert sides == {"left", "right"}

    def test_refine_terminal_entry(self):
        report = cmd_refine(load_config(preset("m4-random")))
        assert report.all_passed
        rows = report.tables["refinement"]
        last = [r for r in rows if r["chain_level"] == max(x["chain_level"] for x in rows)]
        assert all(r["decay"] <= 1e-12 for r in last)
        assert "segal_modulus" in report.summary

    def test_refine_full_grid_chain_single_zero_row(self):
        cfg = load_config(m2_config(partition_chain=[[0, 1, 2]]))
        report = cmd_refine(cfg)
        rows = report.tables["refinement"]
        assert len(rows) == 1
        assert rows[0]["decay"] == 0.0

    def test_determinism_minus_timing(self):
        cfg = load_config(m2_config(instances=3))
        a, b = cmd_verify(cfg), cmd_verify(cfg)
        assert json.dumps(a.numeric_payload()) == json.dumps(b.numeric_payload())


class TestCli:
    def test_verify_preset_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--preset", "m2-worked-example", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["all_passed"] is True
        assert "timing" in payload

    def test_missing_config_is_exit_two(self, capsys):
        assert main(["verify"]) == 2
        assert "config" in capsys.readouterr().err

    def test_bad_config_file_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_config_error_field_path(self, tmp_path, capsys):
        cfg = m2_config(p_values=[1.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["ratios", "--config", str(path)]) == 2
        assert "p_values" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_unwritable_output_path_is_exit_two(self, tmp_path, capsys, monkeypatch, target):
        calls = []
        monkeypatch.setitem(commands.COMMANDS, "ratios", lambda config: calls.append(config))
        out = tmp_path / target
        assert main(["ratios", "--preset", "m2-worked-example", "--out", str(out)]) == 2
        assert "config error: output.path: " in capsys.readouterr().err
        assert calls == []  # rejected before the sweep

    def test_output_write_failure_after_the_sweep_is_exit_two(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only")
        monkeypatch.setattr(VerificationReport, "write", refuse)
        code = main(["ratios", "--preset", "m2-worked-example", "--out",
                     str(tmp_path / "r.json")])
        assert code == 2
        assert "config error: output.path: read-only" in capsys.readouterr().err

    def test_ratio_csv_columns(self, tmp_path):
        out = tmp_path / "ratios.csv"
        code = main(["ratios", "--preset", "m4-random", "--instances", "3",
                     "--p", "3,4", "--format", "csv", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "p,instance,bg_ratio,dual_doob_ratio,seed"

    def test_overrides_applied(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", "--preset", "m4-random", "--instances", "2",
                     "--seed", "123", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 123
        assert payload["config"]["instances"] == 2

    def test_stdout_when_no_out(self, capsys):
        code = main(["refine", "--preset", "m2-worked-example", "--format", "csv"])
        assert code == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("instance,chain_level,partition_size,decay,naturality_gap")

    def test_seed_repetition_identical_minus_timing(self, tmp_path):
        out = tmp_path / "report.json"
        outs = []
        for _ in range(2):
            assert main(["kolmogorov", "--preset", "m4-random", "--instances", "4",
                         "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            payload.pop("timing")
            outs.append(json.dumps(payload))
        assert outs[0] == outs[1]


def strict_json(text):
    """Parse JSON that must be standard (no NaN or Infinity literals); the
    report's names of non-finite floats, "inf", "-inf" and "nan", come back
    as those floats."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    def decode(obj):
        if isinstance(obj, dict):
            return {key: decode(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [decode(value) for value in obj]
        return float(obj) if obj in ("inf", "-inf", "nan") else obj
    return decode(json.loads(text, parse_constant=reject))


def run_cli(tmp_path, argv):
    """Run the CLI into a report file; return the exit code and the report,
    parsed as strict JSON."""
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, strict_json(out.read_text())


def failing(report, check):
    return [r for r in report["records"] if r["check"] == check and not r["passed"]]


def first_call_returns(monkeypatch, name, value):
    """Patch ``commands.<name>`` so that its first call returns ``value``,
    or raises it if it is an exception."""
    real = getattr(commands, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) > 1:
            return real(*args, **kwargs)
        if isinstance(value, Exception):
            raise value
        return value
    monkeypatch.setattr(commands, name, patched)


def ratios_of_three(bg):
    """What ``square_function_ratios`` returns for a stack of three instances
    whose bg ratios are all ``bg``: (bg, dual Doob, defined)."""
    return np.full(3, bg), np.ones(3), np.ones(3, dtype=bool)


class TestContainment:
    """An identity that fails mid-sweep is a failing record in a written report."""

    @pytest.mark.parametrize("command", ["kolmogorov", "refine"])
    def test_broken_certificate_keeps_the_report(self, tmp_path, monkeypatch, command):
        real = commands.kolmogorov_projection

        def broken(*args, **kwargs):
            cert = real(*args, **kwargs)
            return dataclasses.replace(cert, trace_defect=cert.trace_bound + 1)
        monkeypatch.setattr(commands, "kolmogorov_projection", broken)
        code, report = run_cli(tmp_path, [command, "--preset", "m4-random",
                                          "--instances", "2"])
        assert code == 1
        assert failing(report, "kolmogorov_trace_bound")
        assert report["summary"]["all_passed"] is False

    def test_nan_ratio_keeps_the_report(self, tmp_path, monkeypatch):
        first_call_returns(monkeypatch, "square_function_ratios", ratios_of_three(math.nan))
        code, report = run_cli(tmp_path, ["ratios", "--preset", "m4-random",
                                          "--instances", "3"])
        assert code == 1
        assert failing(report, "ratios_finite")

    def test_negative_ratio_fails_ratios_finite(self, tmp_path, monkeypatch):
        first_call_returns(monkeypatch, "square_function_ratios", ratios_of_three(-1.0))
        code, report = run_cli(tmp_path, ["ratios", "--preset", "m4-random",
                                          "--instances", "3"])
        assert code == 1
        assert failing(report, "ratios_finite")
        assert report["summary"]["all_finite"] is False

    def test_failed_precondition_in_refine_keeps_the_report(self, tmp_path):
        # entries of order 1e4 leave the integral process a martingale only to
        # 2.6e-9, so its certificate's precondition raises DomainError
        data = preset("m4-random")
        data["instances"] = 1
        terminal = np.random.default_rng(0).standard_normal((4, 4)) * 1e4
        data["terminal"] = {"kind": "fixed", "blocks": [{"real": terminal.tolist()}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, report = run_cli(tmp_path, ["refine", "--config", str(cfg)])
        assert code == 1
        [rec] = failing(report, "instance_completed")
        assert rec["instance"] == 0 and "DomainError" in rec["formula"]
        assert rec["residual"] == math.inf and rec["tolerance"] == 0.0

    def test_non_finite_floats_are_written_as_strict_json(self, tmp_path):
        data = preset("m4-random")
        data["instances"] = 1
        terminal = np.random.default_rng(0).standard_normal((4, 4)) * 1e4
        data["terminal"] = {"kind": "fixed", "blocks": [{"real": terminal.tolist()}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main(["refine", "--config", str(cfg), "--out", str(out)]) == 1
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        [rec] = [r for r in json.loads(text)["records"] if not r["passed"]]
        assert rec["residual"] == "inf"

    def test_finite_report_keeps_its_bytes(self):
        report = cmd_ratios(load_config(preset("m2-worked-example")))
        assert report.to_json() == json.dumps(report.to_dict(), separators=(",", ":"))

    @pytest.mark.parametrize("command, name", [
        ("verify", "identity_rows"), ("ratios", "square_function_ratios"),
        ("kolmogorov", "kolmogorov_projection"), ("refine", "refinement_table")])
    def test_lapack_failure_is_one_failing_record(self, tmp_path, monkeypatch,
                                                  command, name):
        first_call_returns(monkeypatch, name, np.linalg.LinAlgError("SVD did not converge"))
        code, report = run_cli(tmp_path, [command, "--preset", "m4-random",
                                          "--instances", "3"])
        assert code == 1
        [rec] = [r for r in report["records"] if not r["passed"]]
        assert (rec["check"], rec["instance"]) == ("instance_completed", 0)
        assert "LinAlgError: SVD did not converge" in rec["formula"]
        if command != "ratios":  # ratios records once per sweep, not per instance
            assert {r["instance"] for r in report["records"]} == {0, 1, 2}

    @staticmethod
    def huge_terminal_config(tmp_path, name):
        """A one-instance config of preset ``name`` whose fixed terminal has
        entries of order 1e100: finite, so the config accepts it, but its
        p = 4 norms and fourth moments overflow."""
        data = preset(name)
        data["instances"] = 1
        rng = np.random.default_rng(0)
        data["terminal"] = {"kind": "fixed", "blocks": [
            {"real": (rng.standard_normal((n, n)) * 1e100).tolist()}
            for n in data["algebra"]["block_dims"]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        return cfg

    def test_overflowed_norms_fail_with_nan(self, tmp_path):
        # the report carries the NaN, so no floating-point warning repeats it
        cfg = self.huge_terminal_config(tmp_path, "m4-random")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report = run_cli(tmp_path, ["verify", "--config", str(cfg)])
        assert code == 1
        for check in ("norm_contraction", "norm_monotonicity", "gap_fourth_moment"):
            [rec] = failing(report, check)
            assert math.isnan(rec["residual"])
            assert math.isnan(report["summary"]["checks"][check]["max_residual"])

    def test_unadapted_computed_process_is_one_failing_record(self, tmp_path):
        # rounding at 1e100 leaves the compensator unadapted by ~1e83
        cfg = self.huge_terminal_config(tmp_path, "m2m3-random")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report = run_cli(tmp_path, ["verify", "--config", str(cfg)])
        assert code == 1
        [rec] = failing(report, "instance_completed")
        assert "StructureError" in rec["formula"] and "not adapted" in rec["formula"]


def pinned_payload(command, name):
    """The numeric payload of one command on one preset, as plain JSON data."""
    data = preset(name)
    data["instances"] = PIN_INSTANCES[name]
    report = commands.COMMANDS[command](load_config(data))
    return json.loads(json.dumps(report.numeric_payload()))


def assert_payload_close(ref, got, path="$"):
    """Same structure and key order; numbers within 1e-12 relative (absolute below 1)."""
    assert type(got) is type(ref), f"{path}: {type(got).__name__} != {type(ref).__name__}"
    if isinstance(ref, dict):
        assert list(got) == list(ref), f"{path}: keys {list(got)} != {list(ref)}"
        for key in ref:
            assert_payload_close(ref[key], got[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), f"{path}: length {len(got)} != {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            assert_payload_close(a, b, f"{path}[{i}]")
    elif isinstance(ref, float):
        assert got == ref or abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), \
            f"{path}: {got!r} != {ref!r}"
    else:
        assert got == ref, f"{path}: {got!r} != {ref!r}"


class TestPayloadPins:
    """Payloads match ``tests/data/payload_pins.json`` up to the documented deltas.

    The pins were written before the operations stopped verifying their own
    identities.  Since then ``refine`` carries four more records per
    instance, ``kolmogorov`` no longer repeats its rows as
    ``tables.certificates`` and ``ratios`` no longer repeats its statistics
    as ``summary.ratio_estimates``; nothing else may change.
    """

    @pytest.mark.parametrize("name", sorted(PIN_INSTANCES))
    @pytest.mark.parametrize("command", sorted(commands.COMMANDS))
    def test_payload_matches_pin(self, command, name):
        ref = json.loads(PINS.read_text(encoding="utf-8"))[command][name]
        got = pinned_payload(command, name)
        if command == "refine":
            added = [r for r in got["records"] if r["check"] in REFINE_ADDED]
            assert len(added) == len(REFINE_ADDED) * PIN_INSTANCES[name]
            assert all(r["passed"] for r in added)
            got["records"] = [r for r in got["records"] if r["check"] not in REFINE_ADDED]
            for check in REFINE_ADDED:
                del got["summary"]["checks"][check]
        elif command == "kolmogorov":
            del ref["tables"]["certificates"]
        elif command == "ratios":
            del ref["summary"]["ratio_estimates"]
        assert_payload_close(ref, got)

    def test_kolmogorov_csv_columns(self, tmp_path):
        out = tmp_path / "certs.csv"
        code = main(["kolmogorov", "--preset", "m4-random", "--instances", "2",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ("instance,side,epsilon,trace_defect,trace_bound,trace_slack,"
                          "max_sup_norm,sup_slack,projection_trace,chain_min_eigenvalue,seed")


ESCAPED = ValueError('a "quoted" word, a back\\slash,\na newline and non-ASCII: é ≥ ∞')

# Record tables whose writing needs care, each as the report would hold them.
WRITER_CASES = {
    "inf_residual": lambda: [checks.error_checks(nc.DomainError("not Hermitian"), 2)],
    "nan_residual": lambda: [checks.by_instance(
        [("a", "f", np.array([1e-12, math.nan, 1e-11]), 1e-10)], [0, 1, 2])],
    "negative_zero": lambda: [checks.by_instance(
        [("a", "f", -0.0, 1e-10), ("b", "f", np.array([-0.0, 0.0]), 0.0)], [0, 1])],
    "integer_residual": lambda: [checks.by_instance(
        [("a", "f", 0, 0.0), ("b", "f", np.array([0, 1]), 0.0)], [0, 1])],
    "sweep_instance": lambda: [
        checks.ratio_checks([{"bg_ratio": 1.0, "dual_doob_ratio": 2.0}]),
        checks.ratio_checks([{"bg_ratio": math.nan, "dual_doob_ratio": 2.0}])],
    "escaped_formula": lambda: [checks.error_checks(ESCAPED, 3)],
    # as kolmogorov: the left rows, then the same checks for the right side
    "repeated_checks": lambda: [
        checks.by_instance([("a", "f", np.array([1e-12, 2e-9]), 1e-10),
                            ("b", "g", -math.inf, 0.0),
                            ("a", "f", np.array([3e-11, 1e-13]), 1e-10),
                            ("b", "g", np.array([0.0, 1.0]), 0.0)], [4, 5]),
        checks.by_instance([("a", "f", 5e-11, 1e-10)], [6])],
}


def record_summary(records):
    """The per-check summary folded from the records one by one."""
    by_check = {}
    for r in records:
        by_check.setdefault(r.check, []).append(r)
    return {check: {"formula": rs[0].formula, "tolerance": rs[0].tolerance,
                    "max_residual": worst(r.residual for r in rs), "count": len(rs),
                    "failures": sum(not r.passed for r in rs)}
            for check, rs in by_check.items()}


def assert_written_as_its_dict(report):
    """to_json() is byte for byte the strict compact dump of to_dict(), and the
    summary is the fold of the records."""
    dump = lambda data: json.dumps(_strict(data), separators=(",", ":"), allow_nan=False)
    assert report.to_json() == dump(report.to_dict())
    assert dump(report.summary["checks"]) == dump(record_summary(report.records))
    assert report.all_passed is report.summary["all_passed"] \
        is all(r.passed for r in report.records)


class TestRecordWriter:
    """The report writes its records from the record tables, as the strict
    JSON dump of the record dicts would write them."""

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_edge_records(self, case):
        report = VerificationReport("verify", {"seed": 0})
        report.record_tables = WRITER_CASES[case]()
        report.summarize()
        report.timing = {"seconds": 0.25}
        assert_written_as_its_dict(report)

    def test_named_values(self):
        texts = {}
        for case, tables in WRITER_CASES.items():
            report = VerificationReport("verify", {})
            report.record_tables = tables()
            texts[case] = report.to_json()
        assert '"residual":"inf"' in texts["inf_residual"]
        assert '"residual":"-inf"' in texts["repeated_checks"]
        assert '"residual":"nan","tolerance":1e-10,"passed":false' in texts["nan_residual"]
        assert '"residual":-0.0,"tolerance":1e-10,"passed":true' in texts["negative_zero"]
        assert '"residual":0.0,"tolerance":0.0,"passed":true' in texts["integer_residual"]
        assert '"residual":1.0,"tolerance":0.0,"passed":false' in texts["integer_residual"]
        assert '"passed":true,"instance":-1}' in texts["sweep_instance"]
        assert json.loads(texts["escaped_formula"])["records"][0]["formula"].endswith(
            f"ValueError: {ESCAPED}")

    def test_repeated_checks_keep_the_record_order(self):
        report = VerificationReport("kolmogorov", {})
        report.record_tables = WRITER_CASES["repeated_checks"]()
        assert [(r.check, r.instance) for r in report.records] == [
            ("a", 4), ("b", 4), ("a", 4), ("b", 4), ("a", 5), ("b", 5), ("a", 5), ("b", 5),
            ("a", 6)]
        report.summarize()
        assert report.summary["checks"]["a"]["count"] == 5
        assert report.summary["checks"]["a"]["failures"] == 1
        assert report.summary["checks"]["b"]["failures"] == 1

    @pytest.mark.parametrize("nan_instance", [None, 1])
    @pytest.mark.parametrize("command", sorted(commands.COMMANDS))
    def test_command_reports(self, monkeypatch, command, nan_instance):
        real = commands._terminals
        monkeypatch.setattr(commands, "_terminals", lambda config, drawn: real(config, drawn)
                            * (math.nan if any(i == nan_instance for i, _ in drawn) else 1.0))
        data = preset("m4-random")
        data["instances"] = 3
        report = commands.COMMANDS[command](load_config(data))
        assert report.all_passed is (nan_instance is None)
        assert_written_as_its_dict(report)
