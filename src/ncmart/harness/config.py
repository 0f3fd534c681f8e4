"""Experiment configuration: schema, presets, validation and builders.

Configs are plain JSON.  A config pins one algebra, one filtration, a seed
and sweep sizes; commands then draw seeded random instances on top of it.
Complex matrices are encoded as ``{"real": [[...]], "imag": [[...]]}`` with
the imaginary part optional.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..algebra import AlgElement, TracialAlgebra, stack
from ..conditional import SubalgebraLevel
from ..errors import ConfigError
from ..integrals import nested_chain
from ..processes import Filtration, TimeGrid

SPEC_VERSION = 1

OUTPUT_FORMATS = ("json", "csv")
EPSILON_MODES = ("fixed", "percentile")
TERMINAL_KINDS = ("random", "fixed")

# Size caps, checked when a config is constructed: a sweep draws every instance's
# stream and terminal before any work, so a larger count or algebra would run
# out of memory rather than fail.
MAX_INSTANCES = 10_000
MAX_ALGEBRA_DIM = 256  # the complex dimension sum(n_b^2): M_16, or sixteen M_4 blocks

# The JSON layout: the dotted key path of each ExperimentConfig init field, in field
# order.  load_config reads each field there, to_dict writes it there, and each
# field error is named by it.
LAYOUT = {"block_dims": "algebra.block_dims", "block_weights": "algebra.block_weights",
          "times": "times", "levels": "levels", "seed": "seed", "instances": "instances",
          "p_values": "p_values",
          "epsilon_mode": "epsilon.mode", "epsilon_value": "epsilon.value",
          "partition_chain": "partition_chain", "terminal": "terminal",
          "output_path": "output.path", "output_format": "output.format"}


def _at(path: str, build, *args):
    """``build(*args)``; a TypeError, ValueError or OverflowError it raises (the
    library's StructureError, DomainError and IllConditionedBasisError are
    ValueErrors) becomes a ConfigError naming ``path``."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc), path)


def _number(value) -> float:
    """A finite JSON number; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def _integer(value, minimum: int | None = None, maximum: int | None = None) -> int:
    """A whole number (an integer, or an integral float such as 25.0), at least
    ``minimum`` and at most ``maximum``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
    elif _number(value).is_integer():
        number = int(value)
    else:
        raise ValueError(f"{value!r} is not a whole number")
    if minimum is not None and number < minimum:
        raise ValueError(f"must be at least {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ValueError(f"must be at most {maximum}, got {number}")
    return number


def _each(path: str, values, convert) -> tuple:
    """Convert every entry of a JSON list; a bad entry is named by its index."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"expected a list, got {values!r}", path)
    return tuple(_at(f"{path}[{i}]", convert, v) for i, v in enumerate(values))


def decode_matrix(obj) -> np.ndarray:
    """A complex matrix from ``{"real": [[...]], "imag": [[...]]}``."""
    if not isinstance(obj, dict) or "real" not in obj:
        raise ValueError("matrix must be an object with a 'real' key")
    real = np.array(obj["real"], dtype=float)
    imag = np.array(obj.get("imag", np.zeros_like(real)), dtype=float)
    if real.ndim != 2 or real.shape != imag.shape:
        raise ValueError("matrix parts must be equal-shape 2-d arrays")
    if not (np.isfinite(real).all() and np.isfinite(imag).all()):
        raise ValueError("matrix entries must be finite")
    return real + 1j * imag


def _decode_element(algebra: TracialAlgebra, mats, path: str) -> AlgElement:
    """An element from its list of encoded block matrices."""
    return _at(path, AlgElement, algebra, _each(path, mats, decode_matrix))


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config.  Construction checks every field rule, the size caps
    first, and stores each field in its plain form (whole numbers as ``int``,
    lists as tuples, its own copies of the levels and the terminal); then it
    builds the filtration once, decodes the fixed terminal and resolves the
    partition chain.  Commands read these three from the config and never
    rebuild them."""
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
    filtration: Filtration = field(init=False, compare=False, repr=False)
    fixed_terminal: AlgElement | None = field(init=False, compare=False, repr=False)
    chain: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # every field rule comes before anything is built, the caps first
        dims = _each(LAYOUT["block_dims"], self.block_dims, _integer)
        if sum(n * n for n in dims if n > 0) > MAX_ALGEBRA_DIM:
            raise ConfigError(f"the algebra's dimension sum(n^2) must be at most "
                              f"{MAX_ALGEBRA_DIM}", LAYOUT["block_dims"])
        instances = _at(LAYOUT["instances"], _integer, self.instances, 1, MAX_INSTANCES)
        weights = self.block_weights
        if weights is not None:
            weights = _each(LAYOUT["block_weights"], weights, _number)
        p_values = _each(LAYOUT["p_values"], self.p_values, _number)
        if not p_values or any(p < 2 for p in p_values):
            raise ConfigError("must be a nonempty list of numbers >= 2", LAYOUT["p_values"])
        if self.epsilon_mode not in EPSILON_MODES:  # named by its section, which may lack it
            raise ConfigError(f"mode must be one of {EPSILON_MODES}",
                              LAYOUT["epsilon_mode"].split(".")[0])
        eps = _at(LAYOUT["epsilon_value"], _number, self.epsilon_value)
        if self.epsilon_mode == "fixed" and eps <= 0:
            raise ConfigError("fixed epsilon must be positive", LAYOUT["epsilon_value"])
        if self.epsilon_mode == "percentile" and not 0 <= eps <= 100:
            raise ConfigError("percentile must lie in [0, 100]", LAYOUT["epsilon_value"])
        chain, chain_path = self.partition_chain, LAYOUT["partition_chain"]
        if chain != "midpoint":
            if not isinstance(chain, (list, tuple)):
                raise ConfigError("must be 'midpoint' or a list of index lists", chain_path)
            chain = tuple(_each(f"{chain_path}[{i}]", c, _integer) for i, c in enumerate(chain))
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError("path must be a string", LAYOUT["output_path"])
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"format must be one of {OUTPUT_FORMATS}", LAYOUT["output_format"])
        plain = {"block_dims": dims, "block_weights": weights, "instances": instances,
                 "p_values": p_values, "epsilon_value": eps, "partition_chain": chain,
                 "times": _each(LAYOUT["times"], self.times, _number),
                 "levels": _each(LAYOUT["levels"], self.levels, copy.deepcopy),
                 "terminal": copy.deepcopy(self.terminal),
                 "seed": _at(LAYOUT["seed"], _integer, self.seed, 0)}
        for name, value in plain.items():
            object.__setattr__(self, name, value)

        filtration = self.build_filtration()
        n = len(filtration.grid)
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "fixed_terminal",
                           _decode_terminal(filtration.algebra, self.terminal, LAYOUT["terminal"]))
        chain = midpoint_chain(n) if chain == "midpoint" else chain
        object.__setattr__(self, "chain", tuple(_at(chain_path, nested_chain, n, chain)))

    def to_dict(self) -> dict:
        """The config as JSON data: each field at its :data:`LAYOUT` path, tuples as
        lists; the levels and terminal are the config's own, which nothing mutates."""
        out = {"spec_version": SPEC_VERSION}
        for name, path in LAYOUT.items():
            section, _, key = path.rpartition(".")
            (out.setdefault(section, {}) if section else out)[key] = _listed(getattr(self, name))
        return out

    def build_filtration(self) -> Filtration:
        """A new filtration from the algebra, level and time fields."""
        algebra = _at(LAYOUT["block_dims"].split(".")[0], TracialAlgebra,
                      self.block_dims, self.block_weights)
        path = LAYOUT["levels"]
        levels = [_at(f"{path}[{k}]", _build_level, algebra, desc, f"{path}[{k}]")
                  for k, desc in enumerate(self.levels)]
        return _at(path, Filtration, _at(LAYOUT["times"], TimeGrid, self.times), levels)


def _listed(value):
    """value with every tuple, nested ones too, as a list."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


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


def _build_level(algebra: TracialAlgebra, desc, path: str) -> SubalgebraLevel:
    """The level a descriptor names; SubalgebraLevel validates kind, groups and basis."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("level descriptor must be an object with a 'kind'")
    # a field that the level's kind does not read is an error, not dropped
    for field, kinds in (("groups", ("scalars", "general")),
                         ("basis", ("scalars", "block_scalar", "block_full"))):
        if desc.get(field) is not None and desc["kind"] in kinds:
            raise ConfigError(f"a {desc['kind']} level takes no {field}", f"{path}.{field}")
    basis = desc.get("basis")
    if basis is not None:
        basis = stack([_decode_element(algebra, m, f"{path}.basis[{i}]")
                       for i, m in enumerate(_each(f"{path}.basis", basis, lambda m: m))])
    return SubalgebraLevel(algebra, desc["kind"], desc.get("groups"), basis)


def _decode_terminal(algebra: TracialAlgebra, terminal, path: str) -> AlgElement | None:
    """The fixed terminal element, or None when instances draw random ones."""
    if terminal is None:
        return None
    if not isinstance(terminal, dict):
        raise ConfigError("must be an object", path)
    kind = terminal.get("kind", "random")
    if kind not in TERMINAL_KINDS:
        raise ConfigError(f"kind must be one of {TERMINAL_KINDS}", f"{path}.kind")
    return None if kind == "random" else \
        _decode_element(algebra, terminal.get("blocks"), f"{path}.blocks")


def load_config(data: dict) -> ExperimentConfig:
    """The config of a raw config dict: each field is read at its :data:`LAYOUT`
    path, and construction checks them; errors carry the field path."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if _at("spec_version", _integer, data.get("spec_version", SPEC_VERSION)) != SPEC_VERSION:
        raise ConfigError(f"unsupported spec_version {data['spec_version']!r}", "spec_version")

    sections = {"": data}
    for name in ("algebra", "epsilon", "output"):  # each an object, null or absent
        sections[name] = {} if data.get(name) is None else data[name]
        if not isinstance(sections[name], dict):
            raise ConfigError("must be an object", name)
    if "block_dims" not in sections["algebra"]:
        raise ConfigError("missing algebra.block_dims", "algebra")

    # a key the config omits keeps its field default, but construction names a
    # missing required field, and an epsilon object must name its mode
    fields = dict.fromkeys(("block_weights", "times", "levels"))
    if data.get("epsilon") is not None:
        fields["epsilon_mode"] = None
    for name, path in LAYOUT.items():
        section, _, key = path.rpartition(".")
        if key in sections[section]:
            fields[name] = sections[section][key]
    return ExperimentConfig(**fields)


def read_config(path: str | Path) -> dict:
    """The raw JSON object of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def config_from_file(path: str | Path) -> ExperimentConfig:
    return load_config(read_config(path))


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
