"""Print one sha256 per command x preset of the ncmart CLI.

Each digest covers the JSON numeric payload (the report without its
timing) and the CSV output of one run at the preset's default seed and
instance count.  Run it in two checkouts and diff the outputs to show
that a change leaves every payload byte-identical:

    python scripts/payload_digest.py > before.txt   # in the old checkout
    python scripts/payload_digest.py > after.txt    # in the new checkout
    diff before.txt after.txt

The package is imported from the ``src/`` next to this script, so each
checkout digests its own code.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ncmart.harness.commands import COMMANDS  # noqa: E402
from ncmart.harness.config import PRESETS, load_config, preset  # noqa: E402


def digest(command: str, preset_name: str) -> str:
    report = COMMANDS[command](load_config(preset(preset_name)))
    payload = json.dumps(report.numeric_payload(), indent=2)
    return hashlib.sha256((payload + "\n" + report.render_csv()).encode("utf-8")).hexdigest()


def main() -> int:
    for command in COMMANDS:
        for preset_name in sorted(PRESETS):
            print(f"{digest(command, preset_name)}  {command} {preset_name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
