"""Print two sha256 per command x preset of the ncmart CLI.

The first digest covers the JSON numeric payload (the report without its
timing) and the CSV output of one direct command call at the preset's
default seed and instance count.  The second runs the same preset through
the command line, ``ncmart COMMAND --config FILE --out REPORT``, and
covers the written report without its timing.  Run it in two checkouts
to show that a change leaves every payload byte-identical:

    python scripts/payload_digest.py > before.txt         # in the old checkout
    python scripts/payload_digest.py --compare before.txt  # in the new checkout

With ``--compare`` it prints only the lines that differ from the file, the
old line after ``-`` and the new after ``+``, and exits 1 on any
difference (0 when every line is the same).

The package is imported from the ``src/`` next to this script, so each
checkout digests its own code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ncmart.harness.cli import main as cli_main  # noqa: E402
from ncmart.harness.commands import COMMANDS  # noqa: E402
from ncmart.harness.config import PRESETS, load_config, preset  # noqa: E402


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


def digest_lines():
    """Every digest line, direct calls first, then the command-line runs."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest the numeric payload of every "
                                                 "command x preset.")
    parser.add_argument("--compare", type=Path, metavar="BEFORE.txt",
                        help="print only the lines that differ from this earlier output "
                             "and exit 1 on any difference")
    args = parser.parse_args(argv)
    if args.compare is None:
        for line in digest_lines():
            print(line, flush=True)
        return 0
    before = args.compare.read_text(encoding="utf-8").splitlines()
    differ = False
    for old, new in itertools.zip_longest(before, digest_lines()):
        if old != new:
            differ = True
            for sign, line in (("-", old), ("+", new)):
                if line is not None:
                    print(f"{sign} {line}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
