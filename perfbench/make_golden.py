"""Write ``golden.json``: the SHA-256 of each panel's stdout as the object
oracle engine prints it.

    python3 perfbench/make_golden.py

Rerun only when a change to the program is meant to change figure 4.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PANELS = {"panel-cold-fpau": ["figure4", "fpau", "--compiler"]}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    golden = {}
    for name, argv in PANELS.items():
        out = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--engine", "object"],
            env=env, check=True, stdout=subprocess.PIPE).stdout
        golden[name] = {"argv": argv, "engine": "object",
                        "sha256": hashlib.sha256(out).hexdigest()}
        print(name, golden[name]["sha256"])
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
