"""Experiment configuration: schema, presets, validation and builders.

Configs are plain JSON.  A config pins one algebra, one filtration, a seed
and sweep sizes; commands then draw seeded random instances on top of it.
Complex matrices are encoded as ``{"real": [[...]], "imag": [[...]]}`` with
the imaginary part optional.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..algebra import AlgElement, TracialAlgebra
from ..conditional import SubalgebraLevel
from ..errors import ConfigError, IllConditionedBasisError, StructureError
from ..processes import Filtration, TimeGrid

SPEC_VERSION = 1

OUTPUT_FORMATS = ("json", "csv")
EPSILON_MODES = ("fixed", "percentile")


def decode_matrix(obj, field_path: str) -> np.ndarray:
    if not isinstance(obj, dict) or "real" not in obj:
        raise ConfigError("matrix must be an object with a 'real' key", field_path)
    try:
        real = np.array(obj["real"], dtype=float)
        imag = np.array(obj.get("imag", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix data: {exc}", field_path)
    if real.ndim != 2 or real.shape != imag.shape:
        raise ConfigError(f"matrix parts must be equal-shape 2-d arrays", field_path)
    return real + 1j * imag


@dataclass(frozen=True)
class ExperimentConfig:
    block_dims: tuple[int, ...]
    block_weights: tuple[float, ...] | None
    times: tuple[float, ...]
    levels: tuple[dict, ...]
    seed: int = 0
    instances: int = 25
    p_values: tuple[float, ...] = (3.0, 4.0, 8.0)
    epsilon_mode: str = "percentile"
    epsilon_value: float = 30.0
    partition_chain: str | tuple[tuple[int, ...], ...] = "midpoint"
    terminal: dict | None = None
    output_path: str | None = None
    output_format: str = "json"
    spec_version: int = SPEC_VERSION

    def to_dict(self) -> dict:
        chain = self.partition_chain
        if not isinstance(chain, str):
            chain = [list(c) for c in chain]
        return {
            "spec_version": self.spec_version,
            "algebra": {
                "block_dims": list(self.block_dims),
                "block_weights": None if self.block_weights is None else list(self.block_weights),
            },
            "times": list(self.times),
            "levels": [copy.deepcopy(lv) for lv in self.levels],
            "seed": self.seed,
            "instances": self.instances,
            "p_values": list(self.p_values),
            "epsilon": {"mode": self.epsilon_mode, "value": self.epsilon_value},
            "partition_chain": chain,
            "terminal": copy.deepcopy(self.terminal),
            "output": {"path": self.output_path, "format": self.output_format},
        }

    # -- builders ---------------------------------------------------------

    def build_algebra(self) -> TracialAlgebra:
        try:
            return TracialAlgebra(self.block_dims, self.block_weights)
        except StructureError as exc:
            raise ConfigError(str(exc), "algebra")

    def build_filtration(self) -> Filtration:
        algebra = self.build_algebra()
        levels = []
        for k, desc in enumerate(self.levels):
            levels.append(_build_level(algebra, desc, f"levels[{k}]"))
        try:
            grid = TimeGrid(self.times)
        except StructureError as exc:
            raise ConfigError(str(exc), "times")
        try:
            return Filtration(grid, levels)
        except StructureError as exc:
            raise ConfigError(str(exc), "levels")

    def terminal_element(self, algebra: TracialAlgebra) -> AlgElement | None:
        """The fixed terminal element, or None when instances are random."""
        if self.terminal is None or self.terminal.get("kind", "random") == "random":
            return None
        mats = self.terminal.get("blocks")
        if mats is None:
            raise ConfigError("fixed terminal requires 'blocks'", "terminal")
        blocks = [decode_matrix(m, f"terminal.blocks[{i}]") for i, m in enumerate(mats)]
        try:
            return AlgElement(algebra, blocks)
        except StructureError as exc:
            raise ConfigError(str(exc), "terminal.blocks")

    def chain_indices(self, n_times: int) -> list[tuple[int, ...]]:
        """The nested partition chain, resolving the 'midpoint' shorthand."""
        if isinstance(self.partition_chain, str):
            if self.partition_chain != "midpoint":
                raise ConfigError(
                    f"unknown partition_chain {self.partition_chain!r}", "partition_chain")
            return midpoint_chain(n_times)
        chain = [tuple(int(i) for i in c) for c in self.partition_chain]
        for i, part in enumerate(chain):
            bad = (len(part) < 2
                   or any(k < 0 or k >= n_times for k in part)
                   or any(b <= a for a, b in zip(part, part[1:])))
            if bad:
                raise ConfigError(f"chain level {i} is not a valid partition: {list(part)}",
                                  "partition_chain")
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            if not set(a) <= set(b):
                raise ConfigError(f"chain level {i} is not a subset of level {i + 1}",
                                  "partition_chain")
        return chain


def midpoint_chain(n_times: int) -> list[tuple[int, ...]]:
    """Nested chain from {0, m} to the full grid by repeated midpoint insertion."""
    m = n_times - 1
    chain = [(0, m)]
    while len(chain[-1]) < n_times:
        cur = chain[-1]
        nxt: list[int] = []
        for a, b in zip(cur, cur[1:]):
            nxt.append(a)
            if b - a > 1:
                nxt.append((a + b) // 2)
        nxt.append(cur[-1])
        chain.append(tuple(nxt))
    return chain


def _build_level(algebra: TracialAlgebra, desc, field_path: str) -> SubalgebraLevel:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("level descriptor must be an object with a 'kind'", field_path)
    kind = desc["kind"]
    try:
        if kind == "scalars":
            return SubalgebraLevel.scalars(algebra)
        if kind in ("block_scalar", "block_full"):
            groups = desc.get("groups")
            if groups is None:
                raise ConfigError(f"{kind} level requires 'groups'", field_path)
            ctor = SubalgebraLevel.block_scalar if kind == "block_scalar" \
                else SubalgebraLevel.block_full
            return ctor(algebra, groups)
        if kind == "general":
            mats = desc.get("basis")
            if not mats:
                raise ConfigError("general level requires a nonempty 'basis'", field_path)
            basis = []
            for i, entry in enumerate(mats):
                if not isinstance(entry, list):
                    raise ConfigError("basis element must be a list of block matrices",
                                      f"{field_path}.basis[{i}]")
                blocks = [decode_matrix(m, f"{field_path}.basis[{i}][{b}]")
                          for b, m in enumerate(entry)]
                basis.append(AlgElement(algebra, blocks))
            return SubalgebraLevel.general(algebra, basis)
    except (StructureError, IllConditionedBasisError) as exc:
        raise ConfigError(str(exc), field_path)
    raise ConfigError(f"unknown level kind {kind!r}", field_path)


def load_config(data: dict) -> ExperimentConfig:
    """Parse and validate a raw config dict; errors carry the field path."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.get("spec_version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise ConfigError(f"unsupported spec_version {version}", "spec_version")

    alg = data.get("algebra")
    if not isinstance(alg, dict) or "block_dims" not in alg:
        raise ConfigError("missing algebra.block_dims", "algebra")
    dims = tuple(int(n) for n in alg["block_dims"])
    weights = alg.get("block_weights")
    weights = None if weights is None else tuple(float(w) for w in weights)

    times = data.get("times")
    if not isinstance(times, list) or len(times) < 2:
        raise ConfigError("times must list at least two grid points", "times")

    levels = data.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ConfigError("levels must be a nonempty list", "levels")
    if len(levels) != len(times):
        raise ConfigError(f"{len(levels)} levels for {len(times)} times", "levels")

    instances = int(data.get("instances", 25))
    if instances < 1:
        raise ConfigError("instances must be positive", "instances")

    p_values = tuple(float(p) for p in data.get("p_values", [3.0, 4.0, 8.0]))
    if not p_values:
        raise ConfigError("p_values must not be empty", "p_values")
    if any(p < 2 for p in p_values):
        raise ConfigError("p_values must all be >= 2", "p_values")

    eps = data.get("epsilon", {"mode": "percentile", "value": 30.0})
    if not isinstance(eps, dict) or eps.get("mode") not in EPSILON_MODES:
        raise ConfigError(f"epsilon.mode must be one of {EPSILON_MODES}", "epsilon")
    eps_value = float(eps.get("value", 30.0))
    if eps["mode"] == "fixed" and eps_value <= 0:
        raise ConfigError("fixed epsilon must be positive", "epsilon.value")
    if eps["mode"] == "percentile" and not 0 <= eps_value <= 100:
        raise ConfigError("percentile must lie in [0, 100]", "epsilon.value")

    chain = data.get("partition_chain", "midpoint")
    if not isinstance(chain, str):
        chain = tuple(tuple(int(i) for i in c) for c in chain)

    output = data.get("output", {}) or {}
    out_format = output.get("format", "json")
    if out_format not in OUTPUT_FORMATS:
        raise ConfigError(f"format must be one of {OUTPUT_FORMATS}", "output.format")

    cfg = ExperimentConfig(
        block_dims=dims,
        block_weights=weights,
        times=tuple(float(t) for t in times),
        levels=tuple(copy.deepcopy(lv) for lv in levels),
        seed=int(data.get("seed", 0)),
        instances=instances,
        p_values=p_values,
        epsilon_mode=eps["mode"],
        epsilon_value=eps_value,
        partition_chain=chain,
        terminal=copy.deepcopy(data.get("terminal")),
        output_path=output.get("path"),
        output_format=out_format,
    )
    # surface structural problems (bad groups, non-increasing levels) now
    cfg.build_filtration()
    cfg.terminal_element(cfg.build_algebra())
    cfg.chain_indices(len(cfg.times))
    return cfg


def config_from_file(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return load_config(data)


# -- presets ---------------------------------------------------------------

def _m2_worked_example() -> dict:
    """The executable tutorial: M_2 with scalars < diagonal < full."""
    return {
        "spec_version": SPEC_VERSION,
        "algebra": {"block_dims": [2], "block_weights": [1.0]},
        "times": [0.0, 1.0, 2.0],
        "levels": [
            {"kind": "scalars"},
            {"kind": "block_full", "groups": [[[0], [1]]]},
            {"kind": "block_full", "groups": [[[0, 1]]]},
        ],
        "seed": 0,
        "instances": 1,
        "p_values": [2.0, 3.0, 4.0],
        "epsilon": {"mode": "fixed", "value": 2.0},
        "partition_chain": "midpoint",
        "terminal": {"kind": "fixed",
                     "blocks": [{"real": [[1.0, 1.0], [1.0, -1.0]]}]},
    }


def _m4_random() -> dict:
    """A 5-level mixed-kind filtration on M_4 with random instances."""
    return {
        "spec_version": SPEC_VERSION,
        "algebra": {"block_dims": [4], "block_weights": [1.0]},
        "times": [0.0, 1.0, 2.0, 3.0, 4.0],
        "levels": [
            {"kind": "scalars"},
            {"kind": "block_scalar", "groups": [[[0, 1], [2, 3]]]},
            {"kind": "block_scalar", "groups": [[[0], [1], [2, 3]]]},
            {"kind": "block_full", "groups": [[[0, 1], [2, 3]]]},
            {"kind": "block_full", "groups": [[[0, 1, 2, 3]]]},
        ],
        "seed": 7,
        "instances": 25,
        "p_values": [3.0, 4.0, 8.0],
        "epsilon": {"mode": "percentile", "value": 30.0},
        "partition_chain": "midpoint",
    }


def _m2_m3_random() -> dict:
    """Two-block algebra M_2 (+) M_3 with a 4-level filtration."""
    return {
        "spec_version": SPEC_VERSION,
        "algebra": {"block_dims": [2, 3], "block_weights": [0.4, 0.6]},
        "times": [0.0, 1.0, 2.0, 3.0],
        "levels": [
            {"kind": "scalars"},
            {"kind": "block_scalar", "groups": [[[0, 1]], [[0, 1, 2]]]},
            {"kind": "block_full", "groups": [[[0], [1]], [[0, 1], [2]]]},
            {"kind": "block_full", "groups": [[[0, 1]], [[0, 1, 2]]]},
        ],
        "seed": 11,
        "instances": 25,
        "p_values": [3.0, 4.0, 8.0],
        "epsilon": {"mode": "percentile", "value": 30.0},
        "partition_chain": "midpoint",
    }


PRESETS = {
    "m2-worked-example": _m2_worked_example,
    "m4-random": _m4_random,
    "m2m3-random": _m2_m3_random,
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}", "preset")
    return PRESETS[name]()
