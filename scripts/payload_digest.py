"""Print two sha256 per command x preset of the ncmart CLI, and one per
library sweep that no preset runs.

The first digest covers the JSON numeric payload (the report without its
timing) and the CSV output of one direct command call at the preset's
default seed and instance count.  The second runs the same preset through
the command line, ``ncmart COMMAND --config FILE --out REPORT``, and
covers the written report without its timing.  The last line covers the
Chebyshev certificates of seeded positive elements of M_2 ... M_8 at the
benchmark's 50 thresholds each.  Run it in two checkouts
to show that a change leaves every payload byte-identical:

    python scripts/payload_digest.py > before.txt         # in the old checkout
    python scripts/payload_digest.py --compare before.txt  # in the new checkout

The first line, ``blas-kernel NAME``, names the OpenBLAS kernel that ran
(``unknown`` where NumPy's BLAS does not say): the digests are
byte-identical per kernel, and another kernel may round differently.
With ``--compare`` it prints only the lines that differ from the file, the
old line after ``-`` and the new after ``+``, and exits 1 on any
difference (0 when every line is the same).  A kernel that differs from the
file's is named first, on a line of its own.

The package is imported from the ``src/`` next to this script, so each
checkout digests its own code.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ncmart as nc  # noqa: E402
from ncmart.harness.cli import main as cli_main  # noqa: E402
from ncmart.harness.commands import COMMANDS  # noqa: E402
from ncmart.harness.config import PRESETS, load_config, preset  # noqa: E402


def blas_kernel() -> str:
    """The OpenBLAS kernel running NumPy's linear algebra, as NumPy's bundled
    ``scipy_openblas`` build names it; ``unknown`` where that symbol is absent."""
    try:
        corename = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(command: str, preset_name: str) -> str:
    report = COMMANDS[command](load_config(preset(preset_name)))
    payload = json.dumps(report.numeric_payload(), indent=2)
    return sha256(payload + "\n" + report.render_csv())


def cli_digest(command: str, preset_name: str) -> str:
    """Run in a scratch working directory: the report's config holds the
    relative output path, the same in every checkout."""
    config, out = Path(f"{preset_name}.json"), Path("report.json")
    config.write_text(json.dumps(preset(preset_name)), encoding="utf-8")
    code = cli_main([command, "--config", str(config), "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timing")
    return sha256(f"exit {code}\n" + json.dumps(report, indent=2))


def chebyshev_digest() -> str:
    """Every certificate's eta, trace value, trace bound, tail norm and
    projection blocks, for ten seeded positive elements of each of M_2 ...
    M_8, at 50 thresholds from ||x||/50 to 1.05 ||x|| as in the benchmark."""
    h = hashlib.sha256()
    for dim in range(2, 9):
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(seed))
            x = nc.random_element(nc.TracialAlgebra([dim]), rng, "positive")
            top = nc.lp_norm(x, math.inf)
            for eta in np.linspace(top / 50.0, 1.05 * top, 50).tolist():
                c = nc.chebyshev_projection(x, eta)
                h.update(repr((c.eta, c.trace_value, c.trace_bound, c.tail_norm)).encode())
                for block in c.projection.element.blocks:
                    h.update(block.tobytes())
    return h.hexdigest()


LIBRARY_SWEEPS = {"chebyshev M_2..M_8": chebyshev_digest}


def digest_lines():
    """Every digest line: direct calls, then the command-line runs, then the
    library sweeps."""
    for command in COMMANDS:
        for preset_name in sorted(PRESETS):
            yield f"{digest(command, preset_name)}  {command} {preset_name}"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                for preset_name in sorted(PRESETS):
                    yield f"{cli_digest(command, preset_name)}  {command} --config {preset_name}"
        finally:
            os.chdir(cwd)
    for name, sweep in LIBRARY_SWEEPS.items():
        yield f"{sweep()}  {name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest the numeric payload of every "
                                                 "command x preset.")
    parser.add_argument("--compare", type=Path, metavar="BEFORE.txt",
                        help="print only the lines that differ from this earlier output "
                             "and exit 1 on any difference")
    args = parser.parse_args(argv)
    kernel = blas_kernel()
    if args.compare is None:
        for line in (f"blas-kernel {kernel}", *digest_lines()):
            print(line, flush=True)
        return 0
    before = args.compare.read_text(encoding="utf-8").splitlines()
    old_kernel = "none named"
    if before and before[0].startswith("blas-kernel "):
        old_kernel = before.pop(0).removeprefix("blas-kernel ")
    differ = old_kernel != kernel
    if differ:
        print(f"blas kernel mismatch: {old_kernel} before, {kernel} now", flush=True)
    for old, new in itertools.zip_longest(before, digest_lines()):
        if old != new:
            differ = True
            for sign, line in (("-", old), ("+", new)):
                if line is not None:
                    print(f"{sign} {line}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
