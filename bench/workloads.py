"""The four benchmark workloads: inputs, ops, checks and traced loops.

Each workload builds ``INPUTS`` distinct op inputs from the workload seed;
the timed loop cycles through them.  Every op boots fresh machines, so
the modelled cache starts empty.  Per workload:

* ``run_op(k)`` is the untraced op, one or a few library calls, timed;
* ``op_stats(k, result)`` turns its result into the op's simulated
  statistics and checks the workload's invariants (untimed);
* ``traced_op(k, tracer)`` drives the same input one level down through
  the public functions, recording spans, and returns the same statistics.

The statistics are JSON values so that they compare exactly against the
pinned copy in ``pinned.json``.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, replace

from blindsim import (
    EncryptionEngine,
    MachineConfig,
    Mode,
    SystemState,
    Verdict,
    analyze,
    assemble,
    boot_image,
    check_noninterference,
    decode,
    decode_image,
    encode_image,
    format_trace,
    generate_equivalent_pair,
    instruction_semantics,
    overlay_image,
    parse_signature,
    run,
    state_equiv,
    step,
)
from blindsim.checker import pair_for_program
from blindsim.corpus import add_one_pipeline, curated_corpus, demo_add_one
from blindsim.engine import client_decrypt, client_encrypt
from blindsim.isa import DecodeError, MemKind
from blindsim.machine import Fault, Fetch, MemAccess
from blindsim.model import MASK64, Status
from blindsim.protocol import (
    Claims,
    ClientHandshake,
    ComputeRequest,
    ErrorResponse,
    ExportRequest,
    ImportRequest,
    ResultResponse,
    ServerSession,
    decode_frame,
    encode_frame,
    make_device_keypair,
    parse_compute_result,
)

from tracing import NullTracer

NULL = NullTracer()
MODES = (Mode.MODEL, Mode.HARDWARE)

# ---------------------------------------------------------------------------
# Simulated statistics
# ---------------------------------------------------------------------------

EVENT_KINDS = ("fetch", "mem", "cache", "fault", "halt", "mmio")
_EVENT_KIND = {
    "fetch": "fetch",
    "load": "mem",
    "store": "mem",
    "cache": "cache",
    "fault": "fault",
    "halt": "halt",
    "mmio": "mmio",
}


class TraceStats:
    """Event counts, cache hits and misses, and a sha256 over formatted traces.

    A cache event is a hit when its line last served the same address
    earlier in the same run; every run starts with no line known.
    """

    def __init__(self) -> None:
        self.events = dict.fromkeys(EVENT_KINDS, 0)
        self.hits = 0
        self.misses = 0
        self.sha = hashlib.sha256()

    def add(self, text: str) -> None:
        self.sha.update(text.encode())
        lines: dict[str, str] = {}
        for record in text.splitlines():
            fields = record.split(" ")
            kind = fields[1][5:]
            self.events[_EVENT_KIND[kind]] += 1
            if kind == "cache":
                line, addr = fields[2], fields[3]
                if lines.get(line) == addr:
                    self.hits += 1
                else:
                    self.misses += 1
                lines[line] = addr

    def as_dict(self) -> dict:
        return {
            "events": dict(self.events),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "trace_sha256": self.sha.hexdigest(),
        }


def memory_checksum(values, tags) -> str:
    """sha256 over every word's value and tag, in address order."""
    h = hashlib.sha256(struct.pack(f"<{len(values)}Q", *values))
    h.update(bytes(tags))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Traced loops over the public functions
# ---------------------------------------------------------------------------


def _decode_or_none(word: int):
    try:
        return decode(word)
    except DecodeError:
        return None


class CountingSemantics:
    """A ``semantics`` hook that counts its calls.

    ``check_noninterference`` returns only a verdict and a trial count, so
    the timed call gets this hook.  Its count must equal the count of the
    benchmark's own lockstep over the same input: a check that stepped
    less than that lockstep fails the gate.
    """

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, d, inputs, mode):
        self.calls += 1
        return instruction_semantics(d, inputs, mode)


class _TracedSemantics:
    """The ``semantics`` hook handed to ``step``: a span around the real one."""

    def __init__(self, tracer, semantics) -> None:
        self.tracer = tracer
        self.semantics = semantics

    def __call__(self, d, inputs, mode):
        return self.tracer.call("isa.instruction_semantics", self.semantics, d, inputs, mode)


def traced_step(s, cfg, cycle: int, t, semantics=instruction_semantics):
    """``step`` with its semantics nested and its decode and store replayed."""
    if not t.active:
        return step(s, cfg, cycle=cycle, semantics=semantics)
    t.begin("machine.step")
    nxt, events = step(s, cfg, cycle=cycle, semantics=_TracedSemantics(t, semantics))
    t.stop()
    for e in events:
        if type(e) is Fetch:
            t.replay("isa.decode", _decode_or_none, e.word)
        elif type(e) is MemAccess and e.kind is MemKind.STORE:
            t.replay("model.MemoryImage.store", s.memory.store, e.address, nxt.memory[e.address])
    t.close()
    return nxt, events


def traced_run(s, cfg, max_steps: int, t):
    """``machine.run`` as a loop of :func:`traced_step`, with run's stop rules.

    Returns (final state, events, outcome name, steps).
    """
    trace: list = []
    trapped_unchanged = 0
    for n in range(max_steps):
        if s.status is Status.HALTED:
            return s, trace, "halted", n
        if s.status is Status.FAULTED:
            return s, trace, "faulted", n
        nxt, events = traced_step(s, cfg, n, t)
        trace.extend(events)
        trapped = (
            nxt.pc == 0
            and nxt.status is Status.RUNNING
            and any(isinstance(e, Fault) for e in events)
            and replace(nxt, pc=s.pc) == s
        )
        trapped_unchanged = trapped_unchanged + 1 if trapped else 0
        if trapped_unchanged >= 2:
            return nxt, trace, "fault-loop", n + 1
        s = nxt
    outcome = {Status.HALTED: "halted", Status.FAULTED: "faulted"}.get(s.status, "step-limit")
    return s, trace, outcome, max_steps


def lockstep_check(program, trials, steps, cfg, seed, blinded_regs, t, stats: TraceStats):
    """``check_noninterference`` driven through the public functions.

    Derives the pairs as the library does (one ``random.Random(seed)``
    feeding ``pair_for_program``, or a 48-bit seed per random pair), steps
    both sides, and compares events and ``state_equiv`` after every step.
    Side one's trace of each trial goes into ``stats``.  Returns
    (passed, trials run, pair-steps, semantics calls).
    """
    rng = random.Random(seed)
    semantics = CountingSemantics()
    pair_steps = 0
    for trial in range(trials):
        if program is not None:
            s1, s2 = t.call("checker.pair_for_program", pair_for_program, program, cfg, rng, blinded_regs)
        else:
            s1, s2 = t.call(
                "checker.generate_equivalent_pair",
                generate_equivalent_pair,
                rng.getrandbits(48),
                memory_words=cfg.memory_words,
                cache_lines=cfg.cache_lines,
            )
        if not t.call("model.state_equiv", state_equiv, s1, s2):
            return False, trial + 1, pair_steps, semantics.calls
        trace: list = []
        trial_steps = 0
        for k in range(steps):
            if s1.status is not Status.RUNNING or s2.status is not Status.RUNNING:
                break
            n1, e1 = traced_step(s1, cfg, k, t, semantics)
            n2, e2 = traced_step(s2, cfg, k, t, semantics)
            if e1 != e2 or not t.call("model.state_equiv", state_equiv, n1, n2):
                return False, trial + 1, pair_steps, semantics.calls
            trace.extend(e1)
            trial_steps += 1
            s1, s2 = n1, n2
        stats.add(t.call("machine.format_trace", format_trace, trace))
        pair_steps += trial_steps
        t.count("checker.trials")
        t.count("checker.pair_steps", trial_steps)
    return True, trials, pair_steps, semantics.calls


def timed_check(*args, **kwargs):
    """``check_noninterference`` with a :class:`CountingSemantics` hook:
    (result, semantics calls)."""
    semantics = CountingSemantics()
    return check_noninterference(*args, semantics=semantics, **kwargs), semantics.calls


def check_rows(checks, replayed_rows):
    """(passed, trials, pair-steps, semantics calls) per timed check, and
    the first mismatch with the benchmark's own lockstep (or None).

    Pair-steps come from that lockstep; the semantics count of the timed
    call must equal the lockstep's, so they describe the timed call too.
    """
    rows = []
    error = None
    for (result, calls), replayed in zip(checks, replayed_rows):
        rows.append((result.passed, result.trials, replayed[2], calls))
        if error is None and calls != replayed[3]:
            error = f"the timed check made {calls} semantics calls, its lockstep replay {replayed[3]}"
    return rows, error


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up (``__init__``) builds the inputs and ends with one boot, so
    ``setup_s`` includes the first boot."""

    name = ""
    work_unit = ""
    INPUTS = 1
    BIG_COPY_REFERENCE = False  # see run_bench.reference_time

    def latencies(self, result, elapsed: float) -> list[float]:
        return [elapsed]

    def work(self, stats: dict) -> int:
        raise NotImplementedError

    def sim_counts(self, stats: dict) -> dict:
        """Machine-layer counts of an op: steps (a lockstep pair counts
        once), events by kind, cache hits and misses."""
        counts = {"machine.cache_hits": 0, "machine.cache_misses": 0, "machine.steps": 0}
        for part in stats.get("sessions", [stats]):
            counts["machine.steps"] += part["steps"] if "steps" in part else part["pair_steps"]
            counts["machine.cache_hits"] += part["cache_hits"]
            counts["machine.cache_misses"] += part["cache_misses"]
            for kind, n in part["events"].items():
                counts[f"machine.events.{kind}"] = counts.get(f"machine.events.{kind}", 0) + n
        return counts


def store_loop_source(addresses) -> str:
    """Counted loop: mem[addresses[i]] = i + 1, one store per 8 instructions."""
    table = "\n".join(f"    .word {a:#x}" for a in addresses)
    return f"""
.entry start
.word pool
start:
    load r10, r0        # pool base
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # table pointer
    add  r10, r10, r11
    load r14, r10       # n
    add  r10, r10, r11
    load r15, r10       # &loop
    add  r10, r10, r11
    load r16, r10       # &done
    xor  r17, r17, r17  # i = 0
loop:
    sub  r18, r17, r14
    bz   r18, r16       # i == n: done
    load r2, r12        # r2 = table[i]
    add  r17, r17, r11
    store r2, r17       # mem[table[i]] = i + 1
    add  r12, r12, r11
    xor  r18, r18, r18
    bz   r18, r15       # continue
done:
    halt
pool:
    .word 1
    .word table
    .word {len(addresses):#x}
    .word loop
    .word done
table:
{table}
"""


class RunStore(Workload):
    """``run`` on a store loop at the default 65536 words and 16 cache lines."""

    name = "run-store-64k"
    work_unit = "simulated steps"
    INPUTS = 20
    BIG_COPY_REFERENCE = True
    STORES = 200
    FIRST_FREE = 0x100  # stores land above the image
    MAX_STEPS = 10_000

    def __init__(self, seed: int, t=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        self.cfg = MachineConfig()
        self.inputs = []
        for _ in range(self.INPUTS):
            addresses = rng.sample(range(self.FIRST_FREE, self.cfg.memory_words), self.STORES)
            image = t.call("assembler.assemble", assemble, store_loop_source(addresses))
            if image.word_count() > self.FIRST_FREE:
                raise ValueError("store-loop image overlaps its store targets")
            self.inputs.append((image, addresses))
        self._expected: dict[int, str] = {}
        boot_image(self.inputs[0][0], self.cfg)

    def expected_memory(self, k: int) -> str:
        if k not in self._expected:
            image, addresses = self.inputs[k]
            values = [0] * self.cfg.memory_words
            tags = [False] * self.cfg.memory_words
            for seg in image.segments:
                for offset, w in enumerate(seg.words):
                    values[seg.base + offset] = w.value
                    tags[seg.base + offset] = w.blinded
            for i, a in enumerate(addresses):
                values[a] = i + 1
            self._expected[k] = memory_checksum(values, tags)
        return self._expected[k]

    def run_op(self, k: int):
        image = self.inputs[k][0]
        return run(boot_image(image, self.cfg), self.cfg, self.MAX_STEPS)

    def _stats(self, k, outcome, steps, text, memory):
        ts = TraceStats()
        ts.add(text)
        checksum = memory_checksum([w.value for w in memory], [w.blinded for w in memory])
        stats = {"outcome": outcome, "steps": steps, **ts.as_dict(), "memory_sha256": checksum}
        error = None
        if outcome != "halted":
            error = f"run ended {outcome}"
        elif stats["memory_sha256"] != self.expected_memory(k):
            error = "final memory differs from the expected stores"
        return stats, error

    def op_stats(self, k, result):
        return self._stats(k, result.outcome.value, result.steps, format_trace(result.trace), result.state.memory)

    def traced_op(self, k, t):
        image = self.inputs[k][0]
        s = t.call("model.SystemState.initial", SystemState.initial, self.cfg.memory_words, self.cfg.cache_lines)
        s = t.call("machine.overlay_image", overlay_image, s, image)
        state, events, outcome, steps = traced_run(s, self.cfg, self.MAX_STEPS, t)
        text = t.call("machine.format_trace", format_trace, events)
        return self._stats(k, outcome, steps, text, state.memory)

    def work(self, stats):
        return stats["steps"]


class NiLoop(Workload):
    """Lockstep non-interference over the add-one pipeline at 1024 words.

    An op checks one pipeline image in both modes, so every op does the
    same work."""

    name = "ni-loop-1k"
    work_unit = "lockstep pair-steps"
    INPUTS = 4
    DATA_WORDS = 200
    MEMORY_WORDS = 1024
    TRIALS = 1
    STEPS = 2048

    def __init__(self, seed: int, t=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        self.cfgs = [MachineConfig(mode=mode, memory_words=self.MEMORY_WORDS) for mode in MODES]
        self.inputs = []
        for _ in range(self.INPUTS):
            values = tuple(rng.getrandbits(64) for _ in range(self.DATA_WORDS))
            image = t.call("assembler.assemble", assemble, add_one_pipeline(self.DATA_WORDS, values))
            self.inputs.append((image, rng.getrandbits(32)))
        boot_image(self.inputs[0][0], self.cfgs[0])
        self._replayed: dict[int, tuple] = {}
        self._lengths: dict[tuple[int, int], int] = {}

    def run_op(self, k: int):
        image, ni_seed = self.inputs[k]
        return [timed_check(image, trials=self.TRIALS, steps=self.STEPS, cfg=cfg, seed=ni_seed) for cfg in self.cfgs]

    def _lockstep(self, k, t):
        """(passed, trials, pair-steps, semantics calls) per mode, and their
        trace statistics."""
        image, ni_seed = self.inputs[k]
        ts = TraceStats()
        rows = [lockstep_check(image, self.TRIALS, self.STEPS, cfg, ni_seed, (), t, ts) for cfg in self.cfgs]
        return rows, ts.as_dict()

    def _stats(self, k, rows, trace_stats, error=None):
        stats = {
            "ni": [[cfg.mode.value, *row] for cfg, row in zip(self.cfgs, rows)],
            "pair_steps": sum(row[2] for row in rows),
            **trace_stats,
        }
        if error is not None:
            return stats, error
        for m, (cfg, (passed, trials, pair_steps, _)) in enumerate(zip(self.cfgs, rows)):
            if not passed or trials != self.TRIALS:
                return stats, f"non-interference check failed in {cfg.mode.value} mode"
            if (k, m) not in self._lengths:
                self._lengths[k, m] = run(boot_image(self.inputs[k][0], cfg), cfg, self.STEPS).steps
            length = self._lengths[k, m]
            if pair_steps != self.TRIALS * length:
                return stats, f"{pair_steps} pair-steps, but the program runs {length} steps"
        return stats, None

    def op_stats(self, k, result):
        if k not in self._replayed:
            self._replayed[k] = self._lockstep(k, NULL)
        replayed_rows, trace_stats = self._replayed[k]
        rows, error = check_rows(result, replayed_rows)
        return self._stats(k, rows, trace_stats, error)

    def traced_op(self, k, t):
        return self._stats(k, *self._lockstep(k, t))

    def work(self, stats):
        return stats["pair_steps"]


class CheckCorpus(Workload):
    """The acceptance suite's A1 + A7 shape at 64 words, both modes per op."""

    name = "check-corpus-64"
    work_unit = "lockstep pair-steps"
    INPUTS = 8
    TRIALS = 10
    STEPS = 200
    RANDOM_STEPS = 64
    WITNESS_STEPS = 10_000

    def __init__(self, seed: int, t=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        self.entries = curated_corpus()
        self.random_trials = self.TRIALS * len(self.entries)
        self.images = [t.call("assembler.assemble", assemble, e.source) for e in self.entries]
        self.sigs = [parse_signature(",".join(f"r{i}=B" for i in e.blinded_regs)) for e in self.entries]
        self.cfgs = [
            [
                MachineConfig(
                    mode=mode,
                    memory_words=e.memory_words,
                    cache_lines=8,
                    unblindable_ranges=e.unblindable,
                    mmio_console=e.mmio_console,
                )
                for e in self.entries
            ]
            for mode in MODES
        ]
        self.random_cfgs = [MachineConfig(mode=mode, memory_words=64, cache_lines=8) for mode in MODES]
        self.inputs = []
        for _ in range(self.INPUTS):
            seeds = [[rng.getrandbits(32) for _ in self.entries] for _ in MODES]
            self.inputs.append((rng.getrandbits(32), seeds, [rng.getrandbits(32) for _ in MODES]))
        boot_image(self.images[0], self.cfgs[0][0])
        self._replayed: dict[int, tuple] = {}

    def run_op(self, k: int):
        analyze_seed, seeds, random_seeds = self.inputs[k]
        reports, checks = [], []
        for cfgs, random_cfg, mode_seeds, random_seed in zip(self.cfgs, self.random_cfgs, seeds, random_seeds):
            reports += [
                analyze(image, sig, cfg, seed=analyze_seed)
                for image, sig, cfg in zip(self.images, self.sigs, cfgs)
            ]
            checks += [
                timed_check(image, self.TRIALS, self.STEPS, cfg, seed=s, blinded_regs=e.blinded_regs)
                for e, image, cfg, s in zip(self.entries, self.images, cfgs, mode_seeds)
            ]
            checks.append(timed_check(None, self.random_trials, self.RANDOM_STEPS, random_cfg, seed=random_seed))
        return reports, checks

    def _lockstep(self, k, t):
        """(passed, trials, pair-steps, semantics calls) per check, and their
        trace statistics."""
        _, seeds, random_seeds = self.inputs[k]
        ts = TraceStats()
        rows = []
        for cfgs, random_cfg, mode_seeds, random_seed in zip(self.cfgs, self.random_cfgs, seeds, random_seeds):
            rows += [
                lockstep_check(image, self.TRIALS, self.STEPS, cfg, s, e.blinded_regs, t, ts)
                for e, image, cfg, s in zip(self.entries, self.images, cfgs, mode_seeds)
            ]
            rows.append(
                lockstep_check(None, self.random_trials, self.RANDOM_STEPS, random_cfg, random_seed, (), t, ts)
            )
        return rows, ts.as_dict()

    def _stats(self, reports, rows, trace_stats, t, error=None):
        names = [e.name for e in self.entries] + ["random"]
        analyzed = []
        replayed = 0
        n = len(self.entries)
        for mode, cfgs, mode_reports in zip(MODES, self.cfgs, (reports[:n], reports[n:])):
            for e, cfg, report in zip(self.entries, cfgs, mode_reports):
                w = report.witness
                analyzed.append(
                    [
                        mode.value,
                        e.name,
                        report.verdict.value,
                        report.iterations,
                        len(report.findings),
                        w.fault.value if w else None,
                        w.steps if w else None,
                    ]
                )
                if report.verdict is Verdict.DEFINITELY_FAULTS:
                    replay = t.replay("machine.run", run, w.initial, cfg, self.WITNESS_STEPS)
                    if any(isinstance(ev, Fault) and ev.kind is w.fault for ev in replay.trace):
                        replayed += 1
                    elif error is None:
                        error = f"{e.name}: witness does not replay to {w.fault.value}"
        ni = [
            [mode.value, name, *row]
            for m, mode in enumerate(MODES)
            for name, row in zip(names, rows[m * len(names): (m + 1) * len(names)])
        ]
        if error is None and not all(row[2] for row in ni):
            error = "non-interference check failed"
        stats = {
            "analyze": analyzed,
            "witnesses_replayed": replayed,
            "ni": ni,
            "pair_steps": sum(row[2] for row in rows),
            **trace_stats,
        }
        return stats, error

    def op_stats(self, k, result):
        reports, checks = result
        if k not in self._replayed:
            self._replayed[k] = self._lockstep(k, NULL)
        replayed_rows, trace_stats = self._replayed[k]
        rows, error = check_rows(checks, replayed_rows)
        return self._stats(reports, rows, trace_stats, NULL, error)

    def traced_op(self, k, t):
        analyze_seed = self.inputs[k][0]
        reports = []
        for cfgs in self.cfgs:
            for image, sig, cfg in zip(self.images, self.sigs, cfgs):
                report = t.call("checker.analyze", analyze, image, sig, cfg, seed=analyze_seed)
                t.count("checker.fixpoint_iterations", report.iterations)
                reports.append(report)
        rows, trace_stats = self._lockstep(k, t)
        stats, error = self._stats(reports, rows, trace_stats, t)
        t.count("checker.witnesses_replayed", stats["witnesses_replayed"])
        return stats, error

    def work(self, stats):
        return stats["pair_steps"]


@dataclass
class _Client:
    """One client's view of a session and what it checked."""

    plaintext: tuple[int, ...]
    seed: int
    server_seed: int
    start: float = 0.0
    done: float = 0.0
    key: object = None
    outcome: str = ""
    steps: int = 0
    error: str | None = None
    replies: object = None


class Session(Workload):
    """Two interleaved protocol sessions on one engine, in-memory transport."""

    name = "session-4k"
    work_unit = "completed sessions"
    INPUTS = 8
    WORDS = 16
    MEMORY_WORDS = 4096
    DATA_BASE = 0x100
    RESULT_BASE = 0x180

    def __init__(self, seed: int, t=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        self.cfg = MachineConfig(memory_words=self.MEMORY_WORDS)
        self.device_private, self.device_public = make_device_keypair(seed=rng.getrandbits(64))
        image = t.call("assembler.assemble", assemble, demo_add_one(self.WORDS, self.DATA_BASE, self.RESULT_BASE))
        self.image_bytes = encode_image(image)
        self.entry = image.entry_pc
        self.inputs = []
        for _ in range(self.INPUTS):
            root_key = rng.randbytes(32)
            clients = [
                (tuple(rng.getrandbits(64) for _ in range(self.WORDS)), rng.getrandbits(64), rng.getrandbits(64))
                for _ in range(2)
            ]
            self.inputs.append((root_key, clients))
        ServerSession(self.device_private, Claims(), EncryptionEngine(bytes(32)), self.cfg, seed=0)

    # -- the op -------------------------------------------------------------

    def run_op(self, k: int):
        return self._serve(k, NULL)

    def _frame(self, server, client, frame, kind, t):
        """Send one frame; in a traced op, replay the layers behind it."""
        pre = server.state
        t.begin(f"protocol.handle_frame.{kind}")
        reply = server.handle_frame(frame)
        t.stop()
        if t.active:
            self._replay(server, client, pre, frame, kind, t)
        t.close()
        client.replies.update(reply)
        return reply

    def _replay(self, server, client, pre, frame, kind, t):
        if kind == "import":
            t.replay("engine.import_region", server.engine.import_region, pre.memory, self.DATA_BASE, decode_frame(frame).ciphertext)
        elif kind == "compute":
            image = t.replay("assembler.decode_image", decode_image, self.image_bytes)
            s = t.replay("machine.overlay_image", overlay_image, pre, image, pc=self.entry)
            s = replace(s, status=Status.RUNNING, fault=None)
            t.begin("machine.run", replay=True)
            _, events, _, _ = traced_run(s, self.cfg, server.max_steps, t)
            t.close()
            text = t.replay("machine.format_trace", format_trace, events)
            if text != server.traces[-1]:
                client.error = "replayed compute trace differs from the server's"
        elif kind == "export":
            scratch = EncryptionEngine(bytes(32))
            scratch.install_session_key(client.key)
            t.replay("engine.export_region", scratch.export_region, server.state.memory, self.RESULT_BASE, self.WORDS)

    def _request(self, client, server, stage, t):
        if stage == 0:
            t.begin("protocol.handshake")
            handshake = ClientHandshake(self.device_public, seed=client.seed)
            reply = self._frame(server, client, handshake.hello(), "hello", t)
            client.key = handshake.finish(reply)
            t.close()
            return
        if stage == 1:
            envelope = t.call("engine.client_encrypt", client_encrypt, client.key, client.plaintext, 0)
            msg, kind = ImportRequest(self.DATA_BASE, envelope), "import"
        elif stage == 2:
            msg, kind = ComputeRequest(self.entry, self.image_bytes), "compute"
        else:
            msg, kind = ExportRequest(self.RESULT_BASE, self.WORDS), "export"
        frame = t.call("protocol.encode_frame", encode_frame, msg)
        reply = t.call("protocol.decode_frame", decode_frame, self._frame(server, client, frame, kind, t))
        if not isinstance(reply, ResultResponse):
            t.count("protocol.error_frames")
            if isinstance(reply, ErrorResponse) and reply.message.startswith("AuthError"):
                t.count("engine.auth_failures")
            client.error = f"{kind}: {reply!r}"
        elif stage == 2:
            client.outcome, client.steps = parse_compute_result(reply.payload)
        elif stage == 3:
            out = t.call("engine.client_decrypt", client_decrypt, client.key, reply.payload)
            if list(out) != [(v + 1) & MASK64 for v in client.plaintext]:
                client.error = "decrypted export is not plaintext + 1"
            client.done = time.perf_counter()

    def _serve(self, k: int, t):
        """Both clients send their hello when the op starts and are served
        in turn, frame by frame; before each frame the engine seals the
        outgoing client's key and loads the incoming one's."""
        root_key, specs = self.inputs[k]
        engine = EncryptionEngine(root_key)
        clients = [_Client(plaintext, seed, server_seed) for plaintext, seed, server_seed in specs]
        servers = [
            ServerSession(self.device_private, Claims(), engine, self.cfg, seed=c.server_seed) for c in clients
        ]
        sealed = [None, None]
        active = None
        start = time.perf_counter()
        for client in clients:
            client.start = start
            client.replies = hashlib.sha256()
        for stage in range(4):
            for i, (client, server) in enumerate(zip(clients, servers)):
                if client.error is not None:
                    continue
                if active is not None and active != i and engine.current_key_id is not None:
                    sealed[active] = t.call("engine.seal_current_key", engine.seal_current_key)
                if sealed[i] is not None:
                    t.call("engine.load_sealed_key", engine.load_sealed_key, sealed[i])
                    sealed[i] = None
                active = i
                self._request(client, server, stage, t)
        return clients, servers

    def latencies(self, result, elapsed):
        clients, _ = result
        return [c.done - c.start for c in clients]

    def _stats(self, result, t):
        clients, servers = result
        sessions = []
        error = None
        for c, server in zip(clients, servers):
            ts = TraceStats()
            for text in server.traces:
                ts.add(text)
            sessions.append(
                {"outcome": c.outcome, "steps": c.steps, "frames_sha256": c.replies.hexdigest(), **ts.as_dict()}
            )
            if c.error is not None:
                error = error or c.error
            elif c.outcome != "halted":
                error = error or f"compute ended {c.outcome}"
        a, b = servers
        identical = a.traces == b.traces
        equivalent = t.call("model.state_equiv", state_equiv, a.state, b.state)
        if error is None and not (identical and equivalent):
            error = "the two sessions are distinguishable at the server"
        stats = {"sessions": sessions, "traces_identical": identical, "states_equivalent": equivalent}
        return stats, error

    def op_stats(self, k, result):
        return self._stats(result, NULL)

    def traced_op(self, k, t):
        return self._stats(self._serve(k, t), t)

    def work(self, stats):
        return len(stats["sessions"])


WORKLOADS = {w.name: w for w in (RunStore, NiLoop, CheckCorpus, Session)}
