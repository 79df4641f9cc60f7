"""compest benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload rle-probe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload is set up three times (``setup_s`` is the median),
then whole cycles of its operations run back to back until the cycle
boundary nearest ``--seconds``, and at least as many cycles as put 10
samples beyond the workload's tail percentile (two for ``cli-bigfile``, so
that every CLI op is replayed). Every output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics; their times are scaled to a
reference machine speed by a calibration kernel timed between ops
(``speed.py``). ``--trace 1`` instead runs each cycle untraced and then
traced, and reports the per-layer metrics of the traced passes, per cycle
(``tracing.py``). ``--smoke`` shrinks every input so all four workloads
finish in seconds. ``--workload all`` runs each workload in its own child
process and prints one JSON line per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_TICK_S, Speed, hd_quantile

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_TICKS = 8  # calibration ticks on either side of each set-up (speed.py)


def min_cycles(workload, n_ops: int) -> int:
    """Cycles needed for 10 samples beyond the workload's tail percentile,
    and for the replays the workload asks for."""
    return max(workload.replay_cycles, math.ceil(10 / ((1 - workload.tail_pct / 100) * n_ops)))


class Tally:
    """Checks outcomes, including replay identity, and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}
        self.first_cycle: list = []  # outcomes of the first pass, in op order
        self.problems: list[str] = []

    def record(self, i, op, run_output, error=None):
        from workloads import Outcome  # imported once src/ is on the path

        self.attempted += 1
        if error is not None:
            outcome = Outcome(False, f"{type(error).__name__}: {error}")
        else:
            outcome = op.verify(run_output)
        if outcome.ok:
            if i not in self.first:
                self.first[i] = outcome.key
            elif outcome.key != self.first[i]:
                outcome.ok, outcome.detail = False, "output differs from the first run of this op"
        if len(self.first_cycle) <= i:
            self.first_cycle.append(outcome)
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.label}: {outcome.detail}")
        return outcome


def timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # counted as a failed op, never dropped
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def run_cycles(seconds: float, body, min_cycles: int) -> int:
    """Run ``body(cycle)`` until the cycle boundary nearest the deadline."""
    start = time.perf_counter()
    cycles = 0
    while True:
        body(cycles)
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed + elapsed / cycles / 2 >= seconds:
            return cycles


def measure(workload, ops, seconds, tally, speed):
    raw = []  # wall seconds per op execution
    ticks_before = []  # index of the calibration tick just before each
    rss_kb = []

    def cycle(_):
        for i, op in enumerate(ops):
            ticks_before.append(len(speed.ticks) - 1)
            dt, out, err = timed(op.call)
            speed.tick()
            outcome = tally.record(i, op, out, err)
            raw.append(dt)
            rss_kb.append(outcome.rss_kb)

    gc.collect()
    speed.tick()
    cycles = run_cycles(seconds, cycle, min_cycles(workload, len(ops)))
    # Every time is reported at the reference machine speed (speed.py).
    latencies = [dt * speed.factor(i, i + 2) for dt, i in zip(raw, ticks_before)]
    n = len(latencies)
    by_label: dict[str, list] = {}
    for i, (op, o) in enumerate(zip(ops, tally.first_cycle)):
        row = by_label.setdefault(op.label, [[], [], [], []])
        row[0] += latencies[i::len(ops)]
        row[1] += [e.queries_used / e.n for e in o.estimates]
        row[2] += [e.contract for e in o.estimates]
        row[3] += rss_kb[i::len(ops)]
    # Each execution counts with the median latency of its op label (the
    # same operation over input sets and cycles), so that a quantile lying
    # between two kinds of op does not hinge on single executions.
    label_median = {label: statistics.median(row[0]) for label, row in by_label.items()}
    typical = [label_median[ops[k % len(ops)].label] for k in range(n)]
    pct = workload.tail_pct
    tail = hd_quantile(typical, pct / 100)
    estimates = [e for o in tally.first_cycle for e in o.estimates]
    if max(rss_kb) > 0:
        peak_mb = max(rss_kb) / 1024
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = n - tally.failed
    values = {
        "latency_p50_s": hd_quantile(typical, 0.5),
        "latency_tail_s": tail,
        "ops_per_s": ok / sum(latencies),
        "peak_rss_mb": peak_mb,
        "queries_per_n": statistics.fmean(e.queries_used / e.n for e in estimates) if estimates else 0.0,
        "contract_pass_rate": statistics.fmean(e.contract for e in estimates) if estimates else 0.0,
        "success_rate": ok / n,
    }
    beyond = sum(x > tail for x in latencies)
    print(f"# cycles={cycles} ops={n} latency_tail_s=p{pct:g} ({beyond} of {n} samples beyond)")
    print(f"# wall clock, unscaled: p50 {hd_quantile(raw, 0.5):.4f} s  ops/s {ok / sum(raw):.4f}  "
          f"calibration tick median {statistics.median(speed.ticks) * 1e3:.3f} ms "
          f"(reference {REFERENCE_TICK_S * 1e3:g} ms)")
    for label, (lat, reads, contract, rss) in by_label.items():
        mem = f"  peak RSS {min(rss) / 1024:.0f}-{max(rss) / 1024:.0f} MB" if max(rss) else ""
        print(f"# median {label_median[label]:8.4f} s  reads/n {min(reads):.4f}-{max(reads):.4f}  "
              f"contract {sum(contract)}/{len(contract)}{mem}  {label}")
    return values


def measure_traced(workload, ops, seconds, tally, span_path):
    from tracing import SPANS, Tracer

    tracer = Tracer()
    walls = {"traced": 0.0, "untraced": 0.0, "subprocess": 0.0, "traced_cli": 0.0}
    lz_ops = lz_exact = trials = queries = 0

    def cycle(c):
        nonlocal lz_ops, lz_exact, trials, queries
        for i, op in enumerate(ops):
            inproc = op.inproc or op.call
            if op.inproc is not None:
                dt, out, err = timed(op.call)
                tally.record(i, op, out, err)
                walls["subprocess"] += dt
            dt, out, err = timed(inproc)
            tally.record(i, op, out, err)
            walls["untraced"] += dt
            tracer.op_id = c * len(ops) + i
            with tracer.installed():
                dt, out, err = timed(inproc)
            walls["traced"] += dt
            if op.inproc is not None:
                walls["traced_cli"] += dt
            outcome = tally.record(i, op, out, err)
            trials += outcome.trials
            for e in outcome.estimates:
                queries += e.queries_used
                lz_ops += e.lz
                lz_exact += e.lz and e.queries_used == e.n

    gc.collect()
    # One cycle already replays each op: untraced, then traced.
    cycles = run_cycles(seconds, cycle, 1)
    tracer.write(span_path)
    if tracer.missing:
        missing = ", ".join(sorted(set(tracer.missing)))
        print(f"# entry points not found, not traced: {missing}", file=sys.stderr)
    per = 1.0 / cycles
    values = {metric: tracer.self_s.get(metric, 0.0) * per for metric in SPANS}
    positions = tracer.counts["accessor.positions_requested"]
    values.update(
        {
            "cli.process_overhead_s": (walls["subprocess"] - walls["traced_cli"]) * per,
            "accessor.read_many_calls": tracer.counts["accessor.read_many_calls"] * per,
            "accessor.positions_requested": positions * per,
            "accessor.distinct_ratio": queries / positions if positions else 0.0,
            "rle.probers_built": tracer.counts["rle.probers_built"] * per,
            "lz.exact_lane_share": lz_exact / lz_ops if lz_ops else 0.0,
            "campaign.trials": trials * per,
            "bench.unattributed_s": (walls["traced"] - tracer.root_s) * per,
            "bench.traced_wall_s": walls["traced"] * per,
            "bench.untraced_wall_s": walls["untraced"] * per,
            "bench.trace_overhead_s": (walls["traced"] - walls["untraced"]) * per,
        }
    )
    print(f"# traced cycles={cycles} spans={tracer.span_count} written to {span_path.relative_to(ROOT)}")
    return values


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    # The program under test is the checkout's src/, never an installed copy.
    src = ROOT / "src"
    if not (src / "compest" / "__init__.py").is_file():
        print(f"no compest sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import compest

    if Path(compest.__file__).resolve().parent != (src / "compest").resolve():
        print(f"compest imported from {compest.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    speed = Speed()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            ops = None  # free the previous set-up before timing the next
            gc.collect()
            first = len(speed.ticks)
            speed.tick(SETUP_TICKS)
            t0 = time.perf_counter()
            ops = workload.setup(args.seed, args.smoke)
            dt = time.perf_counter() - t0
            speed.tick(SETUP_TICKS)
            setups.append(dt * speed.factor(first, first + 2 * SETUP_TICKS))
        tally = Tally()
        if args.trace:
            span_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            values = measure_traced(workload, ops, args.seconds, tally, span_path)
        else:
            values = measure(workload, ops, args.seconds, tally, speed)
            values["setup_s"] = statistics.median(setups)
    finally:
        workload.close()
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, as the peak-RSS metric requires."""
    status = 0
    for name in [w["name"] for w in load_spec()["workloads"]]:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}", file=sys.stderr)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"[{name}] {metric:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(json.dumps({"workload": name, **result}))
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*(w["name"] for w in load_spec()["workloads"]), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed run length")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
