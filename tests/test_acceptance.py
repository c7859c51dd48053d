"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The whole module is budgeted to finish in well under five minutes
on ordinary hardware.
"""

from __future__ import annotations

import random

from blindsim import checker
from blindsim.assembler import assemble, encode_image
from blindsim.corpus import (
    blinded_branch_fault,
    blinded_load_fault,
    blinded_store_unblindable_fault,
    curated_corpus,
)
from blindsim.engine import (
    EncryptionEngine,
    SessionKey,
    client_decrypt,
    client_encrypt,
)
from blindsim.isa import DecodedInstruction, Mode, Opcode, instruction_semantics
from blindsim.machine import (
    Fault,
    MachineConfig,
    RunOutcome,
    boot_image,
    format_trace,
    run,
    step,
)
from blindsim.model import (
    FaultKind,
    Status,
    blinded,
    clear,
    snapshot,
)
from blindsim.protocol import (
    Claims,
    ClientHandshake,
    ComputeRequest,
    ErrorResponse,
    HsmResponder,
    ImportRequest,
    ProtocolError,
    ServerSession,
    VerifyError,
    decode_frame,
    encode_frame,
    make_device_keypair,
)

import mutants
from helpers import MMIO_REPORT, redraw_blinded, untagged_semantics


def verdict_line(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# A1: non-interference over random programs and the curated corpus
# ---------------------------------------------------------------------------


def test_a1_noninterference():
    total = 0
    failures = []

    for mode_index, mode in enumerate(Mode):
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        result = checker.check_noninterference(
            None, trials=2600, steps=64, cfg=cfg, seed=1000 + mode_index
        )
        total += result.trials
        if not result.passed:
            failures.append((f"random/{mode.value}", result.counterexample))

    for entry in curated_corpus():
        image = assemble(entry.source)
        for mode_index, mode in enumerate(Mode):
            cfg = entry.config(mode)
            result = checker.check_noninterference(
                image,
                trials=210,
                steps=200,
                cfg=cfg,
                seed=7_000 + mode_index,
                blinded_regs=entry.blinded_regs,
            )
            total += result.trials
            if not result.passed:
                failures.append((f"{entry.name}/{mode.value}", result.counterexample))

    assert total >= 10_000, total
    verdict_line(
        "A1 non-interference",
        not failures,
        f"{total} trials, {len(failures)} failure(s), both modes",
    )


# ---------------------------------------------------------------------------
# A2: special-case taint rules, exact outcomes
# ---------------------------------------------------------------------------


def test_a2_special_case_taint_rules():
    checks = 0

    def semantics(op, ins, out, values, mode=Mode.HARDWARE):
        d = DecodedInstruction(op, ins, out)
        return instruction_semantics(d, values, mode)

    # XOR/SUB on the same register yield a clear zero despite blinded input
    for op in (Opcode.XOR, Opcode.SUB):
        w = blinded(0xDEAD)
        out, memop, control = semantics(op, (4, 4), 1, [w, w])
        assert out == clear(0) and memop is None and control is None
        checks += 1

    # MUL/AND with a clear zero yield a clear zero despite the blinded side
    for op in (Opcode.MUL, Opcode.AND):
        for values in ([clear(0), blinded(77)], [blinded(77), clear(0)]):
            out, _, _ = semantics(op, (1, 2), 3, values)
            assert out == clear(0)
            checks += 1

    # STORE/LOAD with a blinded address: no-op in model mode, fault in hardware
    store = DecodedInstruction(Opcode.STORE, (1, 2), None)
    load = DecodedInstruction(Opcode.LOAD, (1,), 2)
    for d, values in ((store, [blinded(8), clear(5)]), (load, [blinded(8)])):
        out, memop, control = instruction_semantics(d, values, Mode.MODEL)
        assert out is None and memop is None and control is None
        _, memop, control = instruction_semantics(d, values, Mode.HARDWARE)
        assert memop is None
        assert control is FaultKind.BLINDED_ADDRESS
        checks += 2

    # BZ with a blinded condition or target traps to pc=0
    bz = DecodedInstruction(Opcode.BZ, (1, 2), None)
    for values in ([blinded(0), clear(64)], [clear(1), blinded(64)]):
        for mode in Mode:
            _, _, control = instruction_semantics(bz, values, mode)
            assert control is FaultKind.BLINDED_BRANCH
            checks += 1
    cfg = MachineConfig(memory_words=16, cache_lines=2)
    s = boot_image(assemble(".entry 1\nhalt\nbz r1, r2\n"), cfg)
    s = s.edit(pc=1, registers=[(1, blinded(0))])
    nxt, events = step(s, cfg)
    assert nxt.pc == 0 and nxt.status is Status.RUNNING
    assert Fault(0, FaultKind.BLINDED_BRANCH) in events
    checks += 1

    verdict_line("A2 special-case taint rules", True, f"{checks} exact-outcome checks")


# ---------------------------------------------------------------------------
# A3: the three violation classes fault with no partial commit
# ---------------------------------------------------------------------------


def test_a3_violation_classes():
    cases = [
        ("blinded branch", blinded_branch_fault(), (), FaultKind.BLINDED_BRANCH),
        ("blinded load address", blinded_load_fault(), (), FaultKind.BLINDED_ADDRESS),
        (
            "blinded store to unblindable MMIO",
            blinded_store_unblindable_fault(),
            ((48, 52),),
            FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
        ),
    ]
    details = []
    for name, source, unblindable, expected in cases:
        cfg = MachineConfig(
            memory_words=64,
            cache_lines=8,
            unblindable_ranges=unblindable,
            mmio_console=48 if unblindable else None,
        )
        s = boot_image(assemble(source), cfg)
        seen = None
        for cycle in range(200):
            if s.status is not Status.RUNNING:
                break
            before = s
            s, events = step(s, cfg, cycle=cycle)
            hit = [e for e in events if isinstance(e, Fault) and e.kind is expected]
            if hit:
                # no partial commit at the violating step
                assert s.registers == before.registers
                assert s.memory == before.memory
                assert (s.addresses, s.valid) == (before.addresses, before.valid)
                seen = expected
                break
        assert seen is expected, f"{name}: fault {expected.value} not observed"
        # and the run as a whole terminates with the fault in its trace
        result = run(boot_image(assemble(source), cfg), cfg, 500)
        assert result.outcome in (RunOutcome.FAULTED, RunOutcome.HALTED, RunOutcome.FAULT_LOOP)
        kinds = [e.kind for e in result.trace if isinstance(e, Fault)]
        assert expected in kinds
        details.append(name)
    verdict_line("A3 violation classes", True, "; ".join(details))


# ---------------------------------------------------------------------------
# A4: end-to-end trace independence via the CLI dual demo
# ---------------------------------------------------------------------------


def test_a4_trace_independence(tmp_path):
    from blindsim.cli import main

    rng = random.Random(404)
    pairs_checked = 0
    for case in range(20):
        n = rng.randint(1, 8)
        pt1 = [rng.getrandbits(64) for _ in range(n)]
        pt2 = [rng.getrandbits(64) for _ in range(n)]
        if pt1 == pt2:
            pt2[0] ^= 1
        f1 = tmp_path / f"pt1_{case}.txt"
        f2 = tmp_path / f"pt2_{case}.txt"
        f1.write_text(" ".join(map(str, pt1)))
        f2.write_text(" ".join(map(str, pt2)))
        trace_path = tmp_path / f"trace_{case}.txt"
        code = main([
            "demo-protocol", str(f1), "--dual", str(f2),
            "--mem-words", "1024", "--cache-lines", "16",
            "--seed", str(case), "--trace", str(trace_path),
        ])
        assert code == 0, f"case {case} exited {code}"
        t1 = trace_path.read_text()
        t2 = (tmp_path / f"trace_{case}.txt.b").read_text()
        assert t1 == t2 and t1, "server traces must be byte-identical and non-empty"
        pairs_checked += 1
    verdict_line(
        "A4 trace independence",
        pairs_checked == 20,
        f"{pairs_checked} random plaintext pairs, byte-identical traces, differing outputs",
    )


# ---------------------------------------------------------------------------
# A5: protocol round-trip, agreement, and tamper resistance
# ---------------------------------------------------------------------------


def test_a5_protocol_roundtrip():
    device_priv, device_pub = make_device_keypair(seed=50)

    # handshake agreement: client key equals the key installed in the engine
    agreements = 0
    for seed in range(1000):
        engine = EncryptionEngine(b"\x11" * 32)
        responder = HsmResponder(device_priv, Claims(), seed=seed, engine=engine)
        client = ClientHandshake(device_pub, seed=seed + 100_000)
        key = client.finish(responder.respond(client.hello()))
        assert engine.current_key_id == key.key_id
        agreements += 1

    # import/export identity on random word blocks
    rng = random.Random(51)
    engine = EncryptionEngine(b"\x22" * 32)
    key = SessionKey.from_bytes(b"\x33" * 32)
    engine.install_session_key(key)
    from blindsim.model import SystemState

    blocks = 0
    empty = SystemState.initial(64, 1)
    for _ in range(200):
        n = rng.randint(1, 16)
        words = tuple(rng.getrandbits(64) for _ in range(n))
        writes = engine.import_region(empty.memory, 8, client_encrypt(key, words, counter=blocks))
        mem = empty.edit(memory=writes).memory
        assert all(w.blinded for w in mem.words[8: 8 + n])
        assert tuple(w.value for w in mem.words[8: 8 + n]) == words
        assert client_decrypt(key, engine.export_region(mem, 8, n)) == words
        blocks += 1

    # single-bit tamper on either handshake frame aborts every time
    aborts = 0
    fuzz_cases = 1000
    for i in range(fuzz_cases):
        fuzz_rng = random.Random(52_000 + i)
        client = ClientHandshake(device_pub, seed=fuzz_rng.getrandbits(64))
        responder = HsmResponder(
            device_priv, Claims(), seed=fuzz_rng.getrandbits(64), engine=EncryptionEngine(b"\x11" * 32)
        )
        hello = client.hello()
        if i % 2 == 0:
            tampered = bytearray(hello)
            bit = fuzz_rng.randrange(len(tampered) * 8)
            tampered[bit // 8] ^= 1 << (bit % 8)
            try:
                reply = responder.respond(bytes(tampered))
            except ProtocolError:
                aborts += 1
                continue
            try:
                client.finish(reply)
            except VerifyError:
                aborts += 1
        else:
            reply = responder.respond(hello)
            tampered = bytearray(reply)
            bit = fuzz_rng.randrange(len(tampered) * 8)
            tampered[bit // 8] ^= 1 << (bit % 8)
            try:
                client.finish(bytes(tampered))
            except VerifyError:
                aborts += 1

    verdict_line(
        "A5 protocol round-trip",
        agreements == 1000 and blocks == 200 and aborts == fuzz_cases,
        f"{agreements}/1000 agreements, {blocks} block round-trips, "
        f"{aborts}/{fuzz_cases} tampers aborted",
    )


# ---------------------------------------------------------------------------
# A6: every seeded mutation is caught
# ---------------------------------------------------------------------------


def _dual_mmio_traces(engine_cls) -> tuple[str, str]:
    """Run the console-report program over two different imported inputs
    and return both server traces."""
    device_priv, device_pub = make_device_keypair(seed=66)
    image = assemble(MMIO_REPORT.source)
    traces = []
    for plaintext in ((5,), (900,)):
        cfg = MMIO_REPORT.config(Mode.HARDWARE)
        engine = engine_cls(b"\x44" * 32)
        session = ServerSession(device_priv, Claims(), engine, cfg, seed=67)
        client = ClientHandshake(device_pub, seed=68)
        key = client.finish(session.handle_frame(client.hello()))
        reply = decode_frame(
            session.handle_frame(
                encode_frame(ImportRequest(32, client_encrypt(key, plaintext, 0)))
            )
        )
        assert not isinstance(reply, ErrorResponse), reply
        session.handle_frame(
            encode_frame(ComputeRequest(image.entry_pc, encode_image(image)))
        )
        traces.append(session.traces[0])
    return traces[0], traces[1]


def _key_leak_detected(engine_cls) -> bool:
    key = SessionKey.from_bytes(bytes(range(32)))
    engine = engine_cls(b"\x55" * 32)
    engine.install_session_key(key)
    from blindsim.model import MemoryImage

    mem = MemoryImage.zeros(16)
    for _ in range(20):
        envelope = engine.export_region(mem, 0, 8)
        if key.key[:12] in envelope or key.key in envelope:
            return True
    return False


def test_a6_mutation_detection():
    caught = {}
    cfg = MachineConfig(memory_words=64, cache_lines=8)
    model_cfg = MachineConfig(mode=Mode.MODEL, memory_words=64, cache_lines=8)

    # 1. ADD drops taint -> lockstep harness diverges
    result = checker.check_noninterference(
        None, trials=3000, steps=64, cfg=cfg, seed=61, semantics=mutants.add_drops_taint
    )
    caught["add-drops-taint"] = not result.passed

    # 2. BZ branches on a blinded payload -> harness diverges on the
    # blinded-branch program (payloads differ in zero-ness across the pair)
    image = assemble(blinded_branch_fault())
    result = checker.check_noninterference(
        image, trials=400, steps=64, cfg=cfg, seed=62,
        semantics=mutants.bz_ignores_blinded_condition,
    )
    caught["bz-ignores-blinded"] = not result.passed

    # 3. cache fed with blinded addresses (model mode) -> trace divergence
    image = assemble(blinded_load_fault())
    result = checker.check_noninterference(
        image, trials=400, steps=64, cfg=model_cfg, seed=63,
        semantics=mutants.cache_sees_blinded_addresses,
    )
    caught["cache-sees-blinded-address"] = not result.passed

    # 4. export leaks key bytes -> key-secrecy scan fires (and stays quiet
    # for the honest engine)
    assert not _key_leak_detected(EncryptionEngine)
    caught["export-leaks-key"] = _key_leak_detected(mutants.ExportLeaksKeyEngine)

    # 5. import forgets to taint -> the dual-trace check fires (honest
    # engine: both runs fault identically; mutant: console values leak)
    honest1, honest2 = _dual_mmio_traces(EncryptionEngine)
    assert honest1 == honest2
    assert "mmio" not in honest1
    mutant1, mutant2 = _dual_mmio_traces(mutants.ImportWritesClearEngine)
    caught["import-writes-clear"] = mutant1 != mutant2

    verdict_line(
        "A6 mutation detection",
        all(caught.values()),
        ", ".join(f"{k}={'caught' if v else 'MISSED'}" for k, v in caught.items()),
    )


# ---------------------------------------------------------------------------
# A7: checker soundness spot-check
# ---------------------------------------------------------------------------


def test_a7_checker_soundness():
    compliant_confirmed = 0
    witnesses_replayed = 0
    rng = random.Random(70)

    for entry in curated_corpus():
        cfg = entry.config(Mode.HARDWARE)
        image = assemble(entry.source)
        sig = checker.TaintSignature(
            registers={i: checker.SigTag.BLINDED for i in entry.blinded_regs}
        )
        report = checker.analyze(image, sig, cfg)

        if report.verdict is checker.Verdict.COMPLIANT:
            for _ in range(1000):
                s = checker.signature_state(image, sig, cfg, rng)
                s = redraw_blinded(s, rng)
                result = run(s, cfg, 1000)
                faults = [e for e in result.trace if isinstance(e, Fault)]
                assert not faults, (entry.name, faults[:3])
            compliant_confirmed += 1

        if report.verdict is checker.Verdict.DEFINITELY_FAULTS:
            w = report.witness
            assert w is not None, entry.name
            replay = run(w.initial, cfg, 10_000)
            kinds = [e.kind for e in replay.trace if isinstance(e, Fault)]
            assert w.fault in kinds, entry.name
            witnesses_replayed += 1

    assert compliant_confirmed >= 4
    assert witnesses_replayed >= 5
    verdict_line(
        "A7 checker soundness",
        True,
        f"{compliant_confirmed} compliant programs x1000 fault-free runs, "
        f"{witnesses_replayed} witnesses replayed to real faults",
    )


# ---------------------------------------------------------------------------
# A8: tag-free compatibility against the plain ISA's semantics
# ---------------------------------------------------------------------------


def test_a8_compatibility():
    programs = 0
    for entry in curated_corpus():
        if not entry.safe:
            continue
        source = entry.source.replace(" blinded", "")
        image = assemble(source)
        for mode in Mode:
            cfg = entry.config(mode)
            # same inputs, just not blinded
            s = boot_image(image, cfg).edit(registers=[(i, clear(13)) for i in entry.blinded_regs])
            assert not any(w.blinded for w in (*s.registers, *s.memory.words)), entry.name

            policy = run(s, cfg, 1000)
            reference = run(s, cfg, 1000, semantics=untagged_semantics)
            assert format_trace(policy.trace) == format_trace(reference.trace), entry.name
            assert policy.state == reference.state, entry.name
            assert snapshot(policy.state) == snapshot(reference.state)
            assert policy.outcome is reference.outcome
        programs += 1
    verdict_line(
        "A8 compatibility",
        programs >= 5,
        f"{programs} taint-free programs, bitwise-identical traces in both modes",
    )


# ---------------------------------------------------------------------------
# Supporting invariant: engine key secrecy proxy over 10^4 randomized runs
# ---------------------------------------------------------------------------


def test_key_secrecy_proxy_10k_runs():
    rng = random.Random(90)
    key = SessionKey.from_bytes(bytes(rng.getrandbits(8) for _ in range(32)))
    engine = EncryptionEngine(bytes(rng.getrandbits(8) for _ in range(32)))
    engine.install_session_key(key)
    needles = (key.key, key.key[:16], key.key[16:])

    cfg = MachineConfig(memory_words=64, cache_lines=8)
    image = assemble(
        """
.entry start
.word pool
start:
    load r10, r0
    load r11, r10
    add  r10, r10, r11
    load r12, r10
    load r2, r12
    add  r3, r2, r11
    store r12, r3
    halt
pool:
    .word 1
    .word 32
"""
    )
    base = boot_image(image, cfg)

    checked = 0
    for i in range(10_000):
        n = rng.randint(1, 4)
        words = tuple(rng.getrandbits(64) for _ in range(n))
        state = base.edit(
            memory=engine.import_region(base.memory, 32, client_encrypt(key, words, i))
        )
        result = run(state, cfg, 200)
        envelope = engine.export_region(result.state.memory, 32, n)

        artifacts = [envelope]
        if i % 50 == 0:  # full text scans are slower; sample them
            artifacts.append(format_trace(result.trace).encode())
            artifacts.append(snapshot(result.state).encode())
        for artifact in artifacts:
            for needle in needles:
                assert needle not in artifact
        checked += 1
    verdict_line(
        "engine key-secrecy proxy",
        checked == 10_000,
        f"{checked} randomized runs, no key bytes in traces/snapshots/exports",
    )
