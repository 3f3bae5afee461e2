"""Record the stdout and stderr digests of every entry of tests/golden_cli.json.

Usage (from the repository root): python tests/record_golden_cli.py

Runs each entry once, refuses to record when a call exits with another code
than its entry's ``exit`` (written by hand, like ``argv`` and ``why``), and
rewrites the table with the digests it saw, printing each call's time.  An
entry that takes 0.5 s or more is marked ``heavy`` by hand.  Re-record only
when a change to the CLI's output is intended, and name that change in
CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import time

from golden_cli import FIELDS, TABLE, load, observed


def main() -> int:
    entries = load()
    for entry in entries:
        start = time.perf_counter()
        got = observed(entry)
        elapsed = time.perf_counter() - start
        if got["exit"] != entry["exit"]:
            print(f"not recorded, {entry['id']} exits {got['exit']}, not {entry['exit']}",
                  file=sys.stderr)
            return 1
        entry.update(stdout=got["stdout"], stderr=got["stderr"])
        print(f"{elapsed:8.3f} s {got['stdout']['bytes']:9d} B  {entry['id']}")
    # One entry per line, so a re-recorded digest shows as its entry's line.
    lines = (json.dumps({key: entry[key] for key in FIELDS if key in entry})
             for entry in entries)
    TABLE.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
