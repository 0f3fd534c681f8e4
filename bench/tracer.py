"""Spans around ncmart's layers, recorded from outside the package.

:func:`installed` wraps every function of :data:`LAYERS`: it rebinds the
name in each ``ncmart`` module that holds it (and in the command table),
patches the class attribute for methods, and patches ``numpy.linalg`` for
the kernel calls.  Each wrapper records a span with its name, start, end
and parent; spans of one operation share the operation's id.

The hottest layers (element arithmetic, norms, expectations and the
LAPACK calls) run hundreds of thousands of times per run, so a span of a
:data:`HOT_PREFIXES` layer, and every span nested inside one, is folded
into a per-parent aggregate (count, total and self seconds) instead of
being kept one by one.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, NamedTuple

ROOT = "bench.operation"

# Layer name -> (module, attribute path).  A name ending in ".*" is split
# further by argument: lp_norm by p, expect by the level kind.
LAYERS = {
    "algebra.element_init": ("ncmart.algebra", "AlgElement.__init__"),
    "algebra.arith": ("ncmart.algebra", ("AlgElement.__add__", "AlgElement.__sub__",
                                         "AlgElement.__neg__", "AlgElement.__mul__",
                                         "AlgElement.__rmul__", "AlgElement.__truediv__",
                                         "AlgElement.__matmul__", "AlgElement.adjoint")),
    "algebra.trace": ("ncmart.algebra", "trace"),
    "algebra.min_eigenvalue": ("ncmart.algebra", "min_eigenvalue"),
    "algebra.hermitian_apply": ("ncmart.algebra", "hermitian_apply"),
    "algebra.lp_norm.*": ("ncmart.algebra", "lp_norm"),
    "algebra.hermiticity_defect": ("ncmart.algebra", "hermiticity_defect"),
    "algebra.spectral_projection": ("ncmart.algebra", "spectral_projection"),
    "algebra.projection_init": ("ncmart.algebra", "Projection.__init__"),
    "algebra.proj_meet": ("ncmart.algebra", "proj_meet"),
    "conditional.expect.*": ("ncmart.conditional", "SubalgebraLevel.expect"),
    "conditional.level_init": ("ncmart.conditional", "SubalgebraLevel.__init__"),
    "processes.random_element": ("ncmart.processes", "random_element"),
    "processes.martingale_from_terminal": ("ncmart.processes", "martingale_from_terminal"),
    "processes.martingale_residual": ("ncmart.processes",
                                      "AdaptedProcess.martingale_residual"),
    "processes.filtration_init": ("ncmart.processes", "Filtration.__init__"),
    "integrals.left_sum": ("ncmart.integrals", "left_sum"),
    "integrals.right_sum": ("ncmart.integrals", "right_sum"),
    "integrals.integral_process": ("ncmart.integrals", "integral_process"),
    "integrals.refinement_table": ("ncmart.integrals", "refinement_table"),
    "doob_meyer.doob_meyer_decompose": ("ncmart.doob_meyer", "doob_meyer_decompose"),
    "doob_meyer.quadratic_variation_sum": ("ncmart.doob_meyer", "quadratic_variation_sum"),
    "doob_meyer.bracket_via_integrals": ("ncmart.doob_meyer", "bracket_via_integrals"),
    "doob_meyer.compensator": ("ncmart.doob_meyer", "compensator"),
    "doob_meyer.naturality_pairing": ("ncmart.doob_meyer", "naturality_pairing"),
    "doob_meyer.naturality_gap": ("ncmart.doob_meyer", "naturality_gap"),
    "doob_meyer.cross_variation": ("ncmart.doob_meyer", "cross_variation"),
    "doob_meyer.uniqueness_residual": ("ncmart.doob_meyer", "uniqueness_residual"),
    "inequalities.bg_ratio": ("ncmart.inequalities", "bg_ratio"),
    "inequalities.dual_doob_ratio": ("ncmart.inequalities", "dual_doob_ratio"),
    "inequalities.kolmogorov_projection": ("ncmart.inequalities", "kolmogorov_projection"),
    "inequalities.epsilon_from_percentile": ("ncmart.inequalities",
                                             "epsilon_from_percentile"),
    "inequalities.chebyshev_projection": ("ncmart.inequalities", "chebyshev_projection"),
    "inequalities.segal_modulus": ("ncmart.inequalities", "segal_modulus"),
    "harness.checks.conditional_expectation_checks": (
        "ncmart.harness.checks", "conditional_expectation_checks"),
    "harness.checks.martingale_checks": ("ncmart.harness.checks", "martingale_checks"),
    "harness.checks.integral_checks": ("ncmart.harness.checks", "integral_checks"),
    "harness.checks.doob_meyer_checks": ("ncmart.harness.checks", "doob_meyer_checks"),
    "harness.config.load_config": ("ncmart.harness.config", "load_config"),
    "harness.config.build_filtration": ("ncmart.harness.config",
                                        "ExperimentConfig.build_filtration"),
    "harness.report.summarize": ("ncmart.harness.report", "VerificationReport.summarize"),
    "harness.report.to_json": ("ncmart.harness.report", "VerificationReport.to_json"),
    "harness.report.write": ("ncmart.harness.report", "VerificationReport.write"),
    "harness.commands.cmd_verify": ("ncmart.harness.commands", "cmd_verify"),
    "harness.commands.cmd_ratios": ("ncmart.harness.commands", "cmd_ratios"),
    "harness.commands.cmd_kolmogorov": ("ncmart.harness.commands", "cmd_kolmogorov"),
    "harness.commands.cmd_refine": ("ncmart.harness.commands", "cmd_refine"),
    "numpy.linalg.svd": ("numpy.linalg", "svd"),
    "numpy.linalg.eigh": ("numpy.linalg", "eigh"),
    "numpy.linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "numpy.linalg.qr": ("numpy.linalg", "qr"),
}

SPLITS = {
    "algebra.lp_norm.*": ("p2", "pinf", "pother"),
    "conditional.expect.*": ("scalars", "block_scalar", "block_full", "general"),
}

# Counted, not timed: one CheckRecord per call of harness.checks.record.
RECORDS = "harness.checks.records"
# Ratio attempts that raised UndefinedRatioError and so produced no row.
RATIO_UNDEFINED = "inequalities.ratio_undefined"

HOT_PREFIXES = ("algebra.", "conditional.expect.", "numpy.linalg.")


def layer_names() -> list[str]:
    """Every timed layer name, with the split layers expanded."""
    names = []
    for name in LAYERS:
        if name in SPLITS:
            names.extend(name[:-1] + part for part in SPLITS[name])
        else:
            names.append(name)
    return names


def per_layer_metric_names() -> list[str]:
    """Names of every per-layer metric a traced run reports, in order."""
    names = []
    for layer in layer_names():
        names += [f"{layer}.count", f"{layer}.self_s"]
    return names + [f"{RECORDS}.count", f"{RATIO_UNDEFINED}.count",
                    "inequalities.rows_per_attempt",
                    "trace.untraced_remainder_s", "trace.overhead_ratio"]


class Span(NamedTuple):
    op: object
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    folded_child_s: float  # time covered by children folded into aggregates


class Tracer:
    """Records spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (id of nearest kept ancestor, name) -> [count, total seconds, self seconds]
        self.aggregates: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._hot = {n for n in layer_names() if n.startswith(HOT_PREFIXES)}

    def enter(self, name: str) -> None:
        # frame: [name, start, child seconds, folded child seconds,
        #         id (None when folded), id of nearest kept ancestor, parent id]
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and (parent[4] is None or name in self._hot):
            stack.append([name, self.clock(), 0.0, 0.0, None, parent[5], parent[4]])
            return
        sid = self._next_id
        self._next_id += 1
        stack.append([name, self.clock(), 0.0, 0.0, sid, sid,
                      None if parent is None else parent[4]])

    def leave(self) -> None:
        end = self.clock()
        stack = self._stack
        frame = stack.pop()
        dur = end - frame[1]
        if stack:
            parent = stack[-1]
            parent[2] += dur
            if frame[4] is None and parent[4] is not None:
                parent[3] += dur
        if frame[4] is None:
            key = (frame[5], frame[0])
            agg = self.aggregates.get(key)
            if agg is None:
                self.aggregates[key] = [1, dur, dur - frame[2]]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
        else:
            self.spans.append(Span(self._op, frame[4], frame[6], frame[0], frame[1], end,
                                   frame[3]))

    @contextlib.contextmanager
    def operation(self, op_id) -> Iterator[None]:
        """Root span of one operation; every span inside shares ``op_id``."""
        self._op = op_id
        self.enter(ROOT)
        try:
            yield
        finally:
            self.leave()
            self._op = None

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer name: (calls, self seconds) over kept and folded spans."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        selfs = self_times(self.spans)
        for span in self.spans:
            t = totals[span.name]
            t[0] += 1
            t[1] += selfs[span.id]
        for (_, name), (count, _, self_s) in self.aggregates.items():
            t = totals[name]
            t[0] += count
            t[1] += self_s
        return {name: (c, s) for name, (c, s) in totals.items()}

    def write(self, path) -> None:
        """Save kept spans and folded aggregates as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "folded_child_s": s.folded_child_s}) + "\n")
            for (anchor, name), (count, total, self_s) in self.aggregates.items():
                fh.write(json.dumps({"folded_into": anchor, "name": name, "count": count,
                                     "total_s": total, "self_s": self_s}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds per span id: duration minus what its children cover.

    Children are the kept spans whose parent is the span, clipped to its
    interval and merged where they overlap, plus the folded children's
    total, which never overlap the kept ones.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered - s.folded_child_s
    return out


# -- installing the wrappers ------------------------------------------------

def _lp_name(args, kwargs) -> str:
    p = args[1] if len(args) > 1 else kwargs["p"]
    if p == 2:
        return "algebra.lp_norm.p2"
    return "algebra.lp_norm.pinf" if p == math.inf else "algebra.lp_norm.pother"


def _expect_name(args, kwargs) -> str:
    return "conditional.expect." + args[0].kind


NAMERS = {"algebra.lp_norm.*": _lp_name, "conditional.expect.*": _expect_name}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    enter, leave = tracer.enter, tracer.leave
    namer = NAMERS.get(name)
    if namer is not None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    if name in ("inequalities.bg_ratio", "inequalities.dual_doob_ratio"):
        from ncmart.errors import UndefinedRatioError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            except UndefinedRatioError:
                tracer.counts[RATIO_UNDEFINED] += 1
                raise
            finally:
                leave()
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return traced


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def _ncmart_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "ncmart" or key.startswith("ncmart."))]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer of :data:`LAYERS` while the block runs, then restore."""
    importlib.import_module("ncmart.harness.cli")
    modules = _ncmart_modules()
    undo: list[Callable[[], None]] = []

    def rebind(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append(functools.partial(setattr, mod, attr, original))
        commands = sys.modules["ncmart.harness.commands"].COMMANDS
        for key, value in list(commands.items()):
            if value is original:
                commands[key] = replacement
                undo.append(functools.partial(commands.__setitem__, key, original))

    def patch(module_name, path, make):
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, make(original))
            undo.append(functools.partial(setattr, owner, attr, original))
        elif module_name.startswith("numpy"):
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            undo.append(functools.partial(setattr, module, attr, original))
        else:
            original = getattr(module, attr)
            rebind(original, make(original))

    try:
        for name, (module_name, paths) in LAYERS.items():
            for path in (paths,) if isinstance(paths, str) else paths:
                patch(module_name, path, functools.partial(_wrap, tracer, name))
        patch("ncmart.harness.checks", "record",
              functools.partial(_counted, tracer, RECORDS))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
