#!/usr/bin/env python3
"""Benchmark for blindsim, run from the repository root.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all        # every workload, one table

Workloads: run-store-64k, ni-loop-1k, check-corpus-64, session-4k (see
bench/README.md for why each exists and what each metric should move).

With ``--trace 0`` the run measures end-to-end numbers with tracing off.
With ``--trace 1`` it drives the same inputs through the public functions
with spans on, reports the per-layer numbers, and writes the spans and a
layer summary under ``bench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every op's simulated statistics are checked.  For the pinned seed (0)
they must equal ``bench/pinned.json`` exactly; for any seed the
workload's invariants must hold.  A failed op makes the run print no
metrics and exit with status 1.  Timings are host time; simulated time is
one cycle per step by construction.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINNED_PATH = os.path.join(HERE, "pinned.json")
PINNED_SEED = 0
WORKLOAD_NAMES = ("run-store-64k", "ni-loop-1k", "check-corpus-64", "session-4k")
SETUP_SAMPLES = 11


def import_workloads():
    """Import blindsim from this checkout's ``src`` and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "blindsim", "__init__.py")):
        sys.exit(f"error: blindsim sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import blindsim

    if os.path.dirname(os.path.dirname(os.path.abspath(blindsim.__file__))) != SRC:
        sys.exit(f"error: imported blindsim from {blindsim.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_pins(name: str, seed: int):
    if seed != PINNED_SEED:
        return None
    with open(PINNED_PATH) as fh:
        return json.load(fh)[name]


def canonical(stats: dict) -> dict:
    return json.loads(json.dumps(stats))


def gate(stats: dict, error, pins, k: int):
    """The op's failure message, or None when it passed."""
    if error is not None:
        return error
    if pins is not None and canonical(stats) != pins[k]:
        return f"simulated statistics of input {k} differ from the pinned ones"
    return None


# The host's speed drifts by +-20 % over tens of seconds when other
# tenants load the machine, which is more than a regression bound can
# absorb.  So the timed loop runs in slices of about SLICE_S and times a
# fixed pure-Python reference loop at each slice boundary; every op's
# host time is rescaled by the mean of the two reference times around its
# slice, relative to the loop's time on a reference host.  The loop has
# three parts of about equal time: integer arithmetic, copies of a
# 32-entry tuple and copies of a 512-entry tuple.  Each part alone
# over- or under-reacted to the host on some workload, by more than that
# workload's raw rate moved; their sum reacted least.  A workload whose
# time goes mostly to copying whole 65536-word memories
# (``BIG_COPY_REFERENCE``) adds copies of that size.  The loop does not
# touch blindsim, so it is the same on every commit.
SLICE_S = 0.25
INT_ITERATIONS = 50_000
SMALL_COPIES = 7_500
MEDIUM_COPIES = 1_200
BIG_COPIES = 24
BIG_COPY_WORDS = 65536
REFERENCE_S = 0.015  # the loop's time on a 2-core x86 host, Python 3.11.7
BIG_COPY_S = 0.024  # the big copies' time on the same host


def reference_nominal(big_copies: bool) -> float:
    return REFERENCE_S + (BIG_COPY_S if big_copies else 0.0)


def _copies(n: int, length: int) -> None:
    words = (0,) * length
    for i in range(n):
        j = (i * 40503) % length
        words = words[:j] + (i,) + words[j + 1:]


def reference_time(big_copies: bool = False) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(INT_ITERATIONS):
        acc = (acc + i * i) & 0xFFFF
    _copies(SMALL_COPIES, 32)
    _copies(MEDIUM_COPIES, 512)
    if big_copies:
        _copies(BIG_COPIES, BIG_COPY_WORDS)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import, set up, report."""
    workloads = import_workloads()
    workloads.WORKLOADS[name](seed)
    print("ready", flush=True)


def measure_setup(name: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the end of the
    workload's set-up (import blindsim, assembly, boot, device keypair),
    rescaled to the reference speed like every other timing."""
    times = []
    references = []
    for _ in range(SETUP_SAMPLES):
        references.append(reference_time())
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed with status {code}")
        times.append(t1 - t0)
    return statistics.median(times) * REFERENCE_S / statistics.median(references)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.messages: list[str] = []

    def record(self, message) -> None:
        self.attempted += 1
        if message is not None:
            self.messages.append(message)


def checked_op(wl, k, pins, failures: Failures):
    """One untraced op with its check; (stats, elapsed, result) or None."""
    try:
        t0 = time.perf_counter()
        result = wl.run_op(k)
        elapsed = time.perf_counter() - t0
        stats, error = wl.op_stats(k, result)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures.record(f"input {k}: {type(exc).__name__}: {exc}")
        return None
    message = gate(stats, error, pins, k)
    failures.record(message)
    return None if message else (stats, elapsed, result)


def run_untraced(wl, seconds: float, pins, failures: Failures) -> dict:
    """Timed loop; rates and latencies are rescaled to the reference speed."""
    checked_op(wl, 0, pins, failures)  # untimed warm-up
    raw_rates: list[float] = []
    rates: list[float] = []
    latencies: list[float] = []
    raw_latencies: list[float] = []
    references: list[float] = []
    big = wl.BIG_COPY_REFERENCE
    nominal = reference_nominal(big)
    deadline = time.perf_counter() + seconds
    before = reference_time(big)
    i = 0
    while i < wl.INPUTS or time.perf_counter() < deadline:
        ops = []
        slice_end = time.perf_counter() + SLICE_S
        while time.perf_counter() < slice_end and (i < wl.INPUTS or time.perf_counter() < deadline):
            done = checked_op(wl, i % wl.INPUTS, pins, failures)
            i += 1
            if done is not None:
                stats, elapsed, result = done
                ops.append((wl.work(stats) / elapsed, wl.latencies(result, elapsed)))
        after = reference_time(big)
        scale = (before + after) / (2 * nominal)
        references += [before, after]
        before = after
        for rate, lat in ops:
            raw_rates.append(rate)
            rates.append(rate * scale)
            latencies.extend(x / scale for x in lat)
            raw_latencies.extend(lat)
    return {
        "rates": rates,
        "latencies": latencies,
        "raw_rate": statistics.median(raw_rates) if raw_rates else 0.0,
        "raw_p50": statistics.median(raw_latencies) if raw_latencies else 0.0,
        "reference_s": statistics.median(references),
        "reference_nominal_s": nominal,
    }


def run_traced(wl, t, seconds: float, pins, failures: Failures) -> dict:
    checked_op(wl, 0, pins, failures)  # untimed warm-up
    # The untraced path on each input once: the traced run must reproduce
    # its statistics, and its time gives the tracing overhead.
    untraced = {}
    untraced_work = 0
    untraced_busy = 0.0
    for k in range(wl.INPUTS):
        done = checked_op(wl, k, pins, failures)
        if done is not None:
            untraced[k] = canonical(done[0])
            untraced_work += wl.work(done[0])
            untraced_busy += done[1]

    # Whole rounds over the inputs, so every count per op is the same on
    # every run of the same seed.
    sim: dict[str, int] = {}
    work = 0
    busy = 0.0
    ops = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i % wl.INPUTS or i == 0 or time.perf_counter() < deadline:
        k = i % wl.INPUTS
        t.op = i
        i += 1
        replayed = t.replay_time
        t0 = time.perf_counter()
        t.begin("op")
        try:
            stats, error = wl.traced_op(k, t)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            t.unwind(0)
            failures.record(f"traced input {k}: {type(exc).__name__}: {exc}")
            continue
        t.close()
        elapsed = time.perf_counter() - t0 - (t.replay_time - replayed)
        message = gate(stats, error, pins, k)
        if message is None and k in untraced and canonical(stats) != untraced[k]:
            message = f"traced statistics of input {k} differ from the untraced run's"
        failures.record(message)
        if message is None:
            for name, n in wl.sim_counts(stats).items():
                sim[name] = sim.get(name, 0) + n
            work += wl.work(stats)
            busy += elapsed
            ops += 1
    return {
        "sim": sim,
        "work": work,
        "busy": busy,
        "ops": ops,
        "untraced_rate": untraced_work / untraced_busy if untraced_busy else 0.0,
    }


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(setup_s: float, measured: dict) -> dict:
    lat = measured["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (statistics.median(measured["rates"]), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
    }


def layers(t, measured: dict) -> dict:
    """Every per-layer number of the traced run, by metric name.

    Counts are per passed op: the gate fixes them, so a change in one is
    real extra or saved work, not a faster or slower loop.
    """
    us, count = "us", "count/op"
    sim = measured["sim"]
    ops = max(measured["ops"], 1)
    m = {
        "isa.decode_us": (t.mean_us("isa.decode"), us),
        "isa.decode_calls": (t.calls["isa.decode"] / ops, count),
        "isa.semantics_us": (t.mean_us("isa.instruction_semantics"), us),
        "model.store_us": (t.mean_us("model.MemoryImage.store"), us),
        "model.stores": (t.calls["model.MemoryImage.store"] / ops, count),
        "model.state_equiv_us": (t.mean_us("model.state_equiv"), us),
        "model.state_equiv_calls": (t.calls["model.state_equiv"] / ops, count),
        "machine.step_self_us": (t.mean_self_us("machine.step"), us),
        "machine.overlay_us": (t.mean_us("machine.overlay_image"), us),
        "machine.format_trace_us": (t.mean_us("machine.format_trace"), us),
        "checker.pair_gen_us": (t.mean_us("checker.generate_equivalent_pair"), us),
        "checker.pair_for_program_us": (t.mean_us("checker.pair_for_program"), us),
        "checker.analyze_us": (t.mean_us("checker.analyze"), us),
        "engine.import_us": (t.mean_us("engine.import_region"), us),
        "engine.export_us": (t.mean_us("engine.export_region"), us),
        "engine.seal_us": (t.mean_us("engine.seal_current_key"), us),
        "engine.load_sealed_us": (t.mean_us("engine.load_sealed_key"), us),
        "protocol.handshake_us": (t.mean_us("protocol.handshake"), us),
        "protocol.frame_codec_us": (t.mean_us("protocol.encode_frame", "protocol.decode_frame"), us),
        "assembler.assemble_us": (t.mean_us("assembler.assemble"), us),
        "assembler.decode_image_us": (t.mean_us("assembler.decode_image"), us),
    }
    for kind in ("hello", "import", "compute", "export"):
        m[f"protocol.handle_frame_us.{kind}"] = (t.mean_us(f"protocol.handle_frame.{kind}"), us)
    for name in ("machine.steps", "machine.cache_hits", "machine.cache_misses"):
        m[name] = (sim.get(name, 0) / ops, count)
    for kind in ("fetch", "mem", "cache", "fault", "halt", "mmio"):
        m[f"machine.events.{kind}"] = (sim.get(f"machine.events.{kind}", 0) / ops, count)
    trials = t.counts["checker.trials"]
    m["checker.trials"] = (trials / ops, count)
    m["checker.pair_steps"] = (t.counts["checker.pair_steps"] / ops, count)
    m["checker.pair_steps_per_trial"] = (t.counts["checker.pair_steps"] / trials if trials else 0.0, "count/trial")
    for name in ("checker.fixpoint_iterations", "checker.witnesses_replayed", "engine.auth_failures", "protocol.error_frames"):
        m[name] = (t.counts[name] / ops, count)
    return m


def emit(failures: Failures, metrics: dict, names) -> int:
    """Print the result line; metrics only when every op passed."""
    correct = not failures.messages and failures.attempted > 0
    for message in failures.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    out = {}
    if correct:
        missing = [n for n in names if n not in metrics]
        if missing:
            raise KeyError(f"declared metrics not measured: {missing}")
        out = {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}
    print(
        json.dumps(
            {"correct": correct, "attempted": failures.attempted, "failed": len(failures.messages), "metrics": out}
        )
    )
    return 0 if correct else 1


def run_one(args, pins=None) -> int:
    workloads = import_workloads()
    spec = load_spec()
    if pins is None:
        pins = load_pins(args.workload, args.seed)
    cls = workloads.WORKLOADS[args.workload]
    failures = Failures()
    gate_kind = "pinned statistics and invariants" if pins is not None else "invariants"
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
        wl = cls(args.seed)
        measured = run_untraced(wl, args.seconds, pins, failures)
        metrics = end_to_end(setup_s, measured) if measured["rates"] else {}
        print(f"{args.workload} seed {args.seed}: {failures.attempted} ops, {len(failures.messages)} failed, gate: {gate_kind}")
        print(f"  error_rate           {len(failures.messages) / max(failures.attempted, 1):.4g}  ({len(failures.messages)}/{failures.attempted})")
        if metrics:
            work_name = {"run-store-64k": "sim_steps_per_s", "session-4k": "sessions_per_s"}.get(args.workload, "pair_steps_per_s")
            print(f"  setup_s              {metrics['setup_s'][0]:.4f} s   (median of {SETUP_SAMPLES} set-ups)")
            print(f"  peak_rss_mb          {metrics['peak_rss_mb'][0]:.1f} MB")
            print(f"  {work_name:<20} {metrics['work_per_s'][0]:.1f} 1/s   (work_per_s; {wl.work_unit})")
            print(
                f"  unscaled: {measured['raw_rate']:.1f} 1/s, p50 {measured['raw_p50'] * 1e3:.3f} ms; reference loop median "
                f"{measured['reference_s'] * 1e3:.2f} ms against {measured['reference_nominal_s'] * 1e3:.2f} ms"
            )
            lat_name = "session" if args.workload == "session-4k" else "op"
            n = len(measured["latencies"])
            print(f"  {lat_name}_p50_ms{'':<{10 - len(lat_name)}} {metrics['op_p50_ms'][0]:.3f} ms  (n={n})")
            print(f"  {lat_name}_p90_ms{'':<{10 - len(lat_name)}} {metrics['op_p90_ms'][0]:.3f} ms  (n={n})")
        return emit(failures, metrics, [m["name"] for m in spec["end_to_end"]])

    from tracing import Tracer

    t = Tracer()
    wl = cls(args.seed, t)
    measured = run_traced(wl, t, args.seconds, pins, failures)
    metrics = layers(t, measured)
    traced_rate = measured["work"] / measured["busy"] if measured["busy"] else 0.0
    overhead = measured["untraced_rate"] / traced_rate - 1 if traced_rate else 0.0
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    spans = t.write(stem + "-spans.jsonl.gz")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
        "traced_work_per_s": traced_rate,
        "untraced_work_per_s": measured["untraced_rate"],
        "tracing_overhead": overhead,
        "spans_written": spans,
        "spans_not_stored": t.dropped,
        "calls": dict(t.calls),
    }
    with open(stem + "-layers.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"{args.workload} seed {args.seed} traced: {failures.attempted} ops, {len(failures.messages)} failed, gate: {gate_kind}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<34} {value:.6g} {unit}")
    print(
        f"  tracing overhead: {overhead:.1%} ({wl.work_unit}/s untraced {measured['untraced_rate']:.1f}, "
        f"traced {traced_rate:.1f}, replays excluded); {spans} spans in {stem}-spans.jsonl.gz"
    )
    return emit(failures, metrics, [m["name"] for m in spec["per_layer"]])


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:
            results[name] = {}
        if "correct" not in results[name]:
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or proc.returncode
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
