"""The golden table of CLI output: pinned ``python -m sturmlab`` calls.

Usage (from the repository root): python tests/golden_cli.py

Each entry of tests/golden_cli.json names one call by its ``argv`` and pins
its ``exit`` code and the sha256 and byte count of its ``stdout`` and
``stderr``.  An argv that reads ``{config}`` runs with the entry's ``config``
written to a temporary JSON file in its place, and the file's path is read
back as ``{config}`` in stdout and stderr before they are hashed.  ``why``
says what the call checks; ``timeout_s``, where present, bounds its run.

Every entry runs once in a fresh interpreter on this checkout's sources.
Tier-1 (tests/test_cli.py) checks the entries that are not ``heavy``; this
script checks the ``heavy`` ones, prints one line per entry and exits 1 if
any differs.  tests/record_golden_cli.py writes the digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden_cli.json")
FIELDS = ("id", "argv", "config", "exit", "stdout", "stderr", "timeout_s", "heavy", "why")
OUTCOME = ("exit", "stdout", "stderr")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def load() -> list[dict]:
    entries = json.loads(TABLE.read_text(encoding="utf-8"))
    for entry in entries:
        unknown = set(entry) - set(FIELDS)
        if unknown:
            raise ValueError(f"{entry.get('id')}: unknown fields {sorted(unknown)}")
    return entries


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def observed(entry: dict) -> dict:
    """Run one entry and return its exit code and output digests."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "sweep.json")
        if "config" in entry:
            Path(config).write_text(json.dumps(entry["config"]), encoding="utf-8")
        argv = [config if arg == "{config}" else arg for arg in entry["argv"]]
        done = subprocess.run([sys.executable, "-m", "sturmlab", *argv],
                              capture_output=True, cwd=ROOT, env=ENV,
                              timeout=entry.get("timeout_s"))
    path = os.fsencode(config)
    return {"exit": done.returncode,
            "stdout": digest(done.stdout.replace(path, b"{config}")),
            "stderr": digest(done.stderr.replace(path, b"{config}"))}


def main() -> int:
    failed = 0
    for entry in load():
        if not entry.get("heavy"):
            continue
        start = time.perf_counter()
        try:
            got = observed(entry)
        except subprocess.TimeoutExpired:
            got = {"exit": f"none within {entry['timeout_s']} s"}
        elapsed = time.perf_counter() - start
        wrong = [f"{key} {got.get(key)} != {entry[key]}"
                 for key in OUTCOME if got.get(key) != entry[key]]
        failed += bool(wrong)
        print(f"{'FAIL' if wrong else 'ok':4} {elapsed:7.2f} s  {entry['id']}")
        for line in wrong:
            print(f"     {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
