"""Experiment harness: configs, identity suites, sweeps and reports."""

from .checks import CheckRecord
from .commands import cmd_kolmogorov, cmd_ratios, cmd_refine, cmd_verify
from .config import ExperimentConfig, config_from_file, load_config, midpoint_chain, preset
from .report import VerificationReport

__all__ = [
    "CheckRecord",
    "ExperimentConfig",
    "VerificationReport",
    "cmd_kolmogorov",
    "cmd_ratios",
    "cmd_refine",
    "cmd_verify",
    "config_from_file",
    "load_config",
    "midpoint_chain",
    "preset",
]
