"""Closed-loop benchmark of the sturmlab CLI, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {certify,bounds,scan} --seed N \
        --seconds S --trace {0,1}

One client sends one ``python -m sturmlab ...`` request at a time and starts
the next only after the previous one has exited.  A pass is one run of every
request of the workload, in an order drawn from the seed.

``--trace 0`` measures set-up, then makes passes until ``--seconds`` have
gone by, and reports the end-to-end metrics.  ``--trace 1`` makes one plain
pass and one traced pass, where each request runs under
``perfbench/traced_cli.py``, and reports the per-layer metrics and the
tracing overhead.  Every request's output goes through the gate (exit code,
planned row count, all rows PASS, golden sha256 and byte count), outside the
timed region.  Defect probes run after each pass, untimed, and are reported
apart from the gated requests.

Reported times are at reference speed: a fixed calibration child runs before
and after every request, and the request's latency is scaled by the
calibration's reference time over the median of the two calibration times
before it and the two after it.  The host's speed drifts by tens of percent
within a minute; the calibration does not import sturmlab, so a change to
the program still moves the times in full.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` over the gated requests, and ``metrics``.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from traced_cli import MARKER, fold_into
from workloads import CALIBRATION, GRIDS, Request, requests

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
TRACED_CLI = BENCH / "traced_cli.py"

REQUEST_LIMIT_S = 60.0   # a request still running then is killed and counted failed
RUN_LIMIT_S = 120.0      # no new pass starts after this many seconds of a run
RUN_DEADLINE_S = 160.0   # requests still running then are killed, so a run ends within 180 s
SETUP_REPEATS = 11
SPOT_CHECK_ROWS = 4
TRIVIAL = ("generate", "--k", "1", "--len", "1")
# Machine-speed calibration.  A fresh child runs the kernels named in its
# argv and prints their time, so interpreter start-up is excluded.  ``loop``
# is small-integer bytecode, the work of the scans; ``bigint`` is a
# big-integer multiply and decimal conversion, the work of the exact bound
# checks and their output.  REFERENCE_S only sets the scale: each value is
# near its kernel's time on a 2-vCPU Xeon VM under CPython 3.11.7.
CALIBRATE = """
import sys, time
sys.set_int_max_str_digits(0)

def loop(s=0):
    for i in range(400_000):
        s += i * i

def bigint():
    x = 7 ** 20000
    str(x * (x + 1))

kernels = [globals()[name] for name in sys.argv[1:]]
t = time.perf_counter()
for kernel in kernels:
    kernel()
print(time.perf_counter() - t)
"""
REFERENCE_S = {"loop": 0.025, "bigint": 0.020}
TSV_HEADER = "lemma\tk\tb\tn\tstatus\tdetail"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("req_p50_s", "s"),
    ("req_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (name, unit).  ``<module>.<function>.<stat>`` come from
# the traced pass; calls and work counters are summed over its requests.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli._fmt.calls", "count"),
    ("cli._fmt.busy_s", "s"),
    ("cli._fmt.chars", "chars"),
    ("cli._emit_table.busy_s", "s"),
    ("cli.tasks.busy_s", "s"),
    ("cli.tasks.wait_s", "s"),
    ("cli.tasks.max_s", "s"),
    ("cli.cpu_per_wall", "ratio"),
    ("approximants.approximant.calls", "count"),
    ("approximants.approximant.busy_s", "s"),
    ("approximants.series_truncation.busy_s", "s"),
    ("approximants.word_value.busy_s", "s"),
    ("approximants.word_value.bits", "bits"),
    ("approximants.check_error_bounds.busy_s", "s"),
    ("approximants.scaled_error_bounds_hold.calls", "count"),
    ("approximants.scaled_error_bounds_hold.busy_s", "s"),
    ("approximants.growth_law_holds.busy_s", "s"),
    ("approximants.bound_constants_hold.busy_s", "s"),
    ("approximants.q_bits_max", "bits"),
    ("exponent.empirical_exponent.busy_s", "s"),
    ("exponent.continued_fraction.busy_s", "s"),
    ("exponent.continued_fraction.terms", "terms"),
    ("transforms.block_determinism.busy_s", "s"),
    ("transforms.difference.busy_s", "s"),
    ("transforms.rotation_sum_relation.busy_s", "s"),
    ("transforms.value_affine_relation.busy_s", "s"),
    ("words.fixed_point_prefix.calls", "count"),
    ("words.fixed_point_prefix.busy_s", "s"),
    ("words.fixed_point_prefix.symbols", "symbols"),
    ("words.word_identities.busy_s", "s"),
    ("numeration.to_digits.calls", "count"),
    ("numeration.to_digits.busy_s", "s"),
    ("numeration.from_digits.calls", "count"),
    ("numeration.from_digits.busy_s", "s"),
    ("numeration.normalize.busy_s", "s"),
    ("numeration.uniqueness_oracle.busy_s", "s"),
    ("numeration.get_basis.calls", "count"),
    ("access.symbol_at.calls", "count"),
    ("access.symbol_at.busy_s", "s"),
    ("access.mismatch.calls", "count"),
    ("access.mismatch.busy_s", "s"),
    ("access.mismatch.hit_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
)
# Work counters: metric stat name -> the traced function whose measure it is.
MEASURE_STATS = {
    "cli._fmt.chars": "cli._fmt",
    "approximants.word_value.bits": "approximants.word_value",
    "approximants.q_bits_max": "approximants.approximant",
    "exponent.continued_fraction.terms": "exponent.continued_fraction",
    "words.fixed_point_prefix.symbols": "words.fixed_point_prefix",
}


class Outcome(NamedTuple):
    latency_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def run_request(cmd: list[str], deadline: float = float("inf")) -> Outcome:
    """Run one child to completion; wall time, CPU and peak RSS come from its own rusage.

    The child is killed REQUEST_LIMIT_S after its start, or at ``deadline``
    (a ``time.perf_counter`` value), whichever comes first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    kill_at = min(t0 + REQUEST_LIMIT_S, deadline)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = kill_at - time.perf_counter()
            if remaining <= 0:
                # Not reaped yet, so the pid is still this child's.
                os.kill(proc.pid, signal.SIGKILL)
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        latency_s=latency,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        timed_out=timed_out,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
    )


def plain_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "sturmlab", *argv]


def traced_cmd(argv) -> list[str]:
    return [sys.executable, str(TRACED_CLI), *argv]


# ---------------------------------------------------------------------------
# Output gate.

def verdicts(req: Request, stdout: bytes) -> tuple[int, bool]:
    """(rows emitted, every row passes) for one request's stdout."""
    if req.argv[0] == "exponent":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return 0, False
        return 1, doc.get("agrees") is True
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != TSV_HEADER:
        return 0, False
    rows = lines[1:]
    return len(rows), all(row.split("\t")[4:5] == ["PASS"] for row in rows)


def gate(req: Request, out: Outcome, golden: dict) -> str | None:
    """Why a gated request failed, or None when it passed."""
    if out.timed_out:
        return "killed at the time limit"
    if out.returncode != 0:
        return f"exit {out.returncode}"
    count, all_pass = verdicts(req, out.stdout)
    if count != req.verdicts or not all_pass:
        return f"{count} rows of {req.verdicts} planned, all PASS={all_pass}"
    want = golden.get(req.key)
    if want is None:
        return "no golden digest recorded"
    digest = hashlib.sha256(out.stdout).hexdigest()
    if len(out.stdout) != want["bytes"] or digest != want["sha256"]:
        return f"stdout {len(out.stdout)} B sha256 {digest[:12]} differs from golden"
    return None


def probe_ok(req: Request, out: Outcome) -> bool:
    """A probe succeeds by passing, or by a documented non-1 exit without a traceback."""
    if out.timed_out:
        return False
    if out.returncode == 0:
        count, all_pass = verdicts(req, out.stdout)
        return count == req.verdicts and all_pass
    return out.returncode > 1 and b"Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# Independent spot-check of formula3 bounds.

def reference_bounds(k: int, b: int, n: int) -> tuple[int, int, int, int]:
    """(lower_num, lower_exp, q_exp, upper_exp) describing the paper's bounds.

    lower = (b-1) / (q * b^(f_{n+1}-1)) and upper = 1 / (q * b^(f_{n+1}-2))
    with q = b^(f_n) - 1, where f_0 = 1, f_1 = k + 1, f_{j+2} = k f_{j+1} + f_j.
    """
    f = [1, k + 1]
    while len(f) < n + 2:
        f.append(k * f[-1] + f[-2])
    return b - 1, f[n + 1] - 1, f[n], f[n + 1] - 2


def spot_check(outcomes: list[tuple[Request, Outcome]], rng: random.Random) -> tuple[int, list[str]]:
    """Recompute lower= and upper= of a seeded sample of dense formula3 rows.

    Exact rational equality is tested by cross-multiplying in the decimal
    module with every rounding trapped, which avoids CPython's quadratic
    int/str conversion on numbers of several hundred thousand digits.
    """
    rows = []
    for req, out in outcomes:
        if req.argv[:3] != ("verify", "--lemma", "formula3") or out.returncode != 0:
            continue
        for line in out.stdout.decode().splitlines()[1:]:
            lemma, k, b, n, _status, detail = line.split("\t")
            if ";lower=" in detail:
                rows.append((int(k), int(b), int(n), detail))
    sample = rng.sample(rows, min(SPOT_CHECK_ROWS, len(rows)))
    problems = []
    for k, b, n, detail in sample:
        fields = dict(kv.split("=", 1) for kv in detail.split(";"))
        lower_num, lower_exp, q_exp, upper_exp = reference_bounds(k, b, n)
        size = len(fields["lower"]) + len(fields["upper"])
        with decimal.localcontext() as ctx:
            ctx.prec = 4 * size + 100
            ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
            try:
                base = decimal.Decimal(b)
                q = base**q_exp - 1
                want = {"lower": (decimal.Decimal(lower_num), q * base**lower_exp),
                        "upper": (decimal.Decimal(1), q * base**upper_exp)}
                for side, (num, den) in want.items():
                    got_num, got_den = (decimal.Decimal(s) for s in fields[side].split("/"))
                    if got_num * den != num * got_den:
                        problems.append(f"{side} differs at k={k} b={b} n={n}")
            except (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation):
                problems.append(f"bound sizes disagree at k={k} b={b} n={n}")
    return len(sample), problems


# ---------------------------------------------------------------------------
# Passes.

class Pass(NamedTuple):
    results: list[tuple[Request, Outcome]]
    ref_s: list[float]   # each request's latency rescaled to reference speed

    @property
    def wall_s(self) -> float:
        return sum(out.latency_s for _, out in self.results)

    @property
    def ref_wall_s(self) -> float:
        return sum(self.ref_s)


class Client:
    """The one client of the closed loop: runs requests, calibrating between them."""

    def __init__(self, kernels: tuple[str, ...], deadline: float):
        self.kernels = kernels
        self.reference_s = sum(REFERENCE_S[k] for k in kernels)
        self.deadline = deadline

    def calibrate(self) -> float:
        """Seconds the calibration kernels take in a fresh child right now."""
        cmd = [sys.executable, "-S", "-c", CALIBRATE, *self.kernels]
        return float(run_request(cmd).stdout)

    def run(self, cmds: list[list[str]]) -> tuple[list[Outcome], list[float]]:
        """Run the commands one after another, with a calibration between each two.

        Returns the outcomes and each latency rescaled to reference speed:
        latency * reference_s / the median of the two calibrations before the
        request and the two after it.
        """
        cal = [self.calibrate()]
        outs = []
        for cmd in cmds:
            outs.append(run_request(cmd, self.deadline))
            cal.append(self.calibrate())
        ref = [out.latency_s * self.reference_s / statistics.median(cal[max(0, i - 1):i + 3])
               for i, out in enumerate(outs)]
        return outs, ref


def make_pass(client: Client, order: list[Request], cmd) -> Pass:
    outs, ref = client.run([cmd(req.argv) for req in order])
    return Pass(list(zip(order, outs)), ref)


def measure_setup(client: Client) -> tuple[list[Outcome], list[float]]:
    """The trivial request, repeated after one warm-up that fills bytecode caches."""
    warm = run_request(plain_cmd(TRIVIAL), client.deadline)
    outs, ref = client.run([plain_cmd(TRIVIAL)] * SETUP_REPEATS)
    for out in (warm, *outs):
        if out.returncode != 0 or out.stdout != b"0\n":
            raise SystemExit(
                f"perfbench: the trivial request failed (exit {out.returncode}): "
                + out.stderr.decode("utf-8", "replace")[-400:])
    return outs, ref


def trace_summary(out: Outcome) -> dict | None:
    for line in reversed(out.stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def layer_metrics(plain: Pass, traced: Pass) -> tuple[dict[str, float], dict[str, list]]:
    """Per-layer metrics, and the merged per-function stats they come from."""
    stats: dict[str, list] = {}
    spans: list[list] = []
    import_s = []
    for _req, out in traced.results:
        doc = trace_summary(out)
        if doc is None:
            continue
        import_s.append(doc["import_s"])
        spans.extend(doc["spans"])
        for name, st in doc["stats"].items():
            fold_into(stats, name, st)
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        func, _, stat = name.rpartition(".")
        st = stats.get(func, [0, 0.0, 0.0, 0])
        if name in MEASURE_STATS:
            values[name] = stats.get(MEASURE_STATS[name], [0, 0.0, 0.0, 0])[3]
        elif stat == "calls":
            values[name] = st[0]
        elif stat == "busy_s":
            values[name] = st[1]
    # Task spans: (name, thread, start, wall, cpu), all inclusive of children.
    values["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    values["cli.tasks.busy_s"] = sum(s[4] for s in spans)
    values["cli.tasks.wait_s"] = sum(s[3] - s[4] for s in spans)
    values["cli.tasks.max_s"] = max((s[3] for s in spans), default=0.0)
    values["cli.cpu_per_wall"] = sum(o.cpu_s for _, o in plain.results) / plain.wall_s
    mismatch = stats.get("access.mismatch", [0, 0.0, 0.0, 0])
    values["access.mismatch.hit_ratio"] = mismatch[3] / mismatch[0] if mismatch[0] else 0.0
    values["bench.trace_overhead_s"] = traced.ref_wall_s - plain.ref_wall_s
    return values, stats


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GRIDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sturmlab" / "cli.py").is_file():
        print(f"perfbench: no sturmlab sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    rng = random.Random(args.seed)
    reqs = requests(args.workload, args.seed)
    gated = [r for r in reqs if not r.probe]
    probes = [r for r in reqs if r.probe]

    def order() -> list[Request]:
        out = list(gated)
        rng.shuffle(out)
        return out

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    # Set-up is interpreter start and imports, small-object bytecode work.
    setup, setup_ref = measure_setup(Client(("loop",), deadline))
    client = Client(CALIBRATION[args.workload], deadline)
    passes: list[Pass] = []
    probe_runs: list[tuple[Request, Outcome]] = []
    traced = None
    if args.trace:
        passes.append(make_pass(client, order(), plain_cmd))
        traced = make_pass(client, order(), traced_cmd)
    else:
        measuring = time.perf_counter()
        while True:
            passes.append(make_pass(client, order(), plain_cmd))
            probe_runs += [(r, run_request(plain_cmd(r.argv), deadline)) for r in probes]
            now = time.perf_counter()
            if now - measuring >= args.seconds or now - started >= RUN_LIMIT_S:
                break

    checked = [rv for p in passes for rv in p.results] + (traced.results if traced else [])
    failures = [(req, why) for req, out in checked
                if (why := gate(req, out, golden)) is not None]
    sampled, problems = spot_check(passes[-1].results, rng)
    probe_fail = [(r, o) for r, o in probe_runs if not probe_ok(r, o)]

    rows = sum(r.verdicts for r in gated)
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"requests/pass={len(gated)} verdicts/pass={rows} "
          f"closed loop, 1 client, verify --jobs 2")
    for req, why in failures:
        print(f"FAILED  {req.key}: {why}")
    for req, out in probe_fail:
        tail = out.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        print(f"PROBE FAILED  {req.key}: exit {out.returncode}: {tail[0][:160]}")
    attempted = len(checked) + len(probe_runs)
    print(f"fail_ratio = {(len(failures) + len(probe_fail)) / attempted:.4f} ratio "
          f"({len(failures)} gated + {len(probe_fail)} probe failures / "
          f"{len(checked)} gated + {len(probe_runs)} probe requests)")
    print(f"spot-check: {sampled} formula3 rows recomputed, "
          + ("all match" if not problems else "; ".join(problems)))

    if args.trace:
        values, stats = layer_metrics(passes[0], traced)
        print(f"at reference speed: traced wall_s {traced.ref_wall_s:.3f} s, plain wall_s "
              f"{passes[0].ref_wall_s:.3f} s, overhead {values['bench.trace_overhead_s']:+.3f} s")
        print(f"{'span':44} {'calls':>9} {'busy_s':>9} {'wait_s':>9}")
        for name, st in sorted(stats.items(), key=lambda kv: -kv[1][1]):
            print(f"{name:44} {st[0]:9d} {st[1]:9.3f} {st[2] - st[1]:9.3f}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        def summary(setup_s, walls, lat):
            return {
                "setup_s": statistics.median(setup_s),
                "wall_s": statistics.median(walls),
                "rows_per_s": statistics.median(rows / w for w in walls),
                "req_p50_s": statistics.median(lat),
                "req_p90_s": statistics.quantiles(lat, n=10)[8],
                "peak_rss_mb": max(o.maxrss_mb for p in passes for _, o in p.results),
            }
        values = summary(setup_ref, [p.ref_wall_s for p in passes],
                         [x for p in passes for x in p.ref_s])
        raw = summary([o.latency_s for o in setup], [p.wall_s for p in passes],
                      [o.latency_s for p in passes for _, o in p.results])
        print(f"setup_s over {len(setup)} trivial requests; req_p50_s/req_p90_s over "
              f"{len(passes) * len(gated)} pooled request latencies; wall_s over "
              f"{len(passes)} passes; times at reference speed "
              f"(calibration {'+'.join(client.kernels)} = {client.reference_s} s)")
        print("as measured: " + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
