"""Record the golden stdout digest of every gated request.

Usage (from the repository root): python3 perfbench/record_golden.py

Runs each gated request of every workload once, refuses to record output
that fails the row check, and writes perfbench/golden.json.  Re-record only
when a change to the CLI's stdout is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import GOLDEN, plain_cmd, run_request, verdicts
from workloads import GRIDS, requests


def main() -> int:
    golden = {}
    for workload in GRIDS:
        for req in requests(workload, seed=0):
            if req.probe or req.key in golden:
                continue
            out = run_request(plain_cmd(req.argv))
            count, all_pass = verdicts(req, out.stdout)
            if out.returncode != 0 or count != req.verdicts or not all_pass:
                print(f"not recorded, request fails: {req.key}", file=sys.stderr)
                return 1
            golden[req.key] = {"sha256": hashlib.sha256(out.stdout).hexdigest(),
                               "bytes": len(out.stdout)}
            print(f"{out.latency_s:8.3f} s {len(out.stdout):9d} B  {req.key}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
