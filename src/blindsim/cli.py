"""Command-line front end: assemble, disassemble, run, check, and the
end-to-end protocol demo.

Exit codes: 0 success, 1 policy or verification failure, 2 usage error.
:func:`main` is the one place that turns an error into an exit code.
All commands are deterministic given the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import socket
import sys
import threading
from collections import Counter

from . import checker, corpus, machine
from .assembler import (
    AssemblyError,
    assemble,
    decode_image,
    disassemble,
    encode_image,
)
from .engine import EncryptionEngine, client_decrypt, client_encrypt
from .isa import Mode
from .model import SystemState, blinded, snapshot, state_equiv, word_value
from .protocol import (
    Claims,
    ClientHandshake,
    ComputeRequest,
    ErrorResponse,
    ExportRequest,
    ImportRequest,
    ProtocolError,
    ResultResponse,
    ServerSession,
    VerifyError,
    decode_frame,
    encode_frame,
    make_device_keypair,
    max_frame_length,
    parse_compute_result,
    read_frame,
)

USAGE_ERROR = 2
FAILURE = 1


def _int(text: str) -> int:
    # int() takes any Unicode decimal digit; the CLI takes ASCII only.
    if not text.isascii():
        raise ValueError(f"invalid literal for int() with base 0: {text!r}")
    return int(text, 0)


def _range(text: str) -> tuple[int, int]:
    start, sep, end = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected START..END")
    return _int(start), _int(end)


def _blind_word(text: str) -> tuple[int, int]:
    addr, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected ADDR=VALUE")
    return _int(addr), _int(value)


def _add_machine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["model", "hardware"], default="hardware")
    p.add_argument("--mem-words", type=_int, default=65536)
    p.add_argument("--cache-lines", type=_int, default=16)
    p.add_argument(
        "--unblindable", type=_range, action="append", default=[],
        metavar="A..B", help="unblindable word-address range [A, B), repeatable",
    )
    p.add_argument("--mmio-console", type=_int, default=None, metavar="ADDR")


def _machine_config(args) -> machine.MachineConfig:
    ranges = list(args.unblindable)
    mmio = args.mmio_console
    if mmio is not None and not any(s <= mmio < e for s, e in ranges):
        ranges.append((mmio, mmio + 1))
    return machine.MachineConfig(
        mode=Mode(args.mode),
        memory_words=args.mem_words,
        cache_lines=args.cache_lines,
        unblindable_ranges=tuple(sorted(ranges)),
        mmio_console=mmio,
    )


def build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        # A refused argument is one ``error:`` line, as main() prints its
        # own errors; the subcommands' parsers are built from this class.
        def error(self, message):
            self.exit(USAGE_ERROR, f"error: {message}\n")

    parser = Parser(
        prog="blindsim",
        description="taint-tracking machine simulator and protocol harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble source text into a binary image")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("disasm", help="disassemble a binary image")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("run", help="run a program image")
    p.add_argument("image")
    _add_machine_flags(p)
    p.add_argument("--max-steps", type=_int, default=100_000)
    p.add_argument(
        "--blind-word", type=_blind_word, action="append", default=[],
        metavar="ADDR=VALUE", help="inject a blinded word before running",
    )
    p.add_argument("--trace", default=None, metavar="PATH")

    p = sub.add_parser("check", help="static and randomized policy checks")
    p.add_argument("image")
    _add_machine_flags(p)
    p.add_argument("--sig", default="", help="taint signature, e.g. r1=B,r2=C,s0=B")
    p.add_argument("--trials", type=_int, default=200)
    p.add_argument("--steps", type=_int, default=200)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--report", default=None, metavar="PATH")

    p = sub.add_parser(
        "demo-protocol",
        help="handshake, import, compute, export against an in-process server",
    )
    p.add_argument("plaintext", help="file of whitespace-separated words")
    _add_machine_flags(p)
    p.add_argument("--max-steps", type=_int, default=100_000)
    p.add_argument("--program", default=None, help="program image (default: add-one)")
    p.add_argument("--dual", default=None, metavar="PATH",
                   help="second plaintext; assert both runs trace identically "
                        "and end in equivalent states")
    p.add_argument("--seed", type=_int, default=0,
                   help="seed of the device key and the server's ephemerals; "
                        "the client's is SEED+1, so 0 <= SEED < 2**256 - 1")
    p.add_argument("--trace", default=None, metavar="PATH")
    p.add_argument("--transport", choices=["memory", "socket"], default="memory")
    p.add_argument("--data-base", type=_int, default=0x100)
    p.add_argument("--result-base", type=_int, default=0x180)

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_asm(args) -> int:
    with open(args.input) as fh:
        source = fh.read()
    try:
        image = assemble(source)
    except AssemblyError as exc:
        for diag in exc.diagnostics:
            print(f"{args.input}:{diag}", file=sys.stderr)
        return FAILURE
    with open(args.output, "wb") as fh:
        fh.write(encode_image(image))
    return 0


def _load_image(path: str):
    with open(path, "rb") as fh:
        return decode_image(fh.read())


def cmd_disasm(args) -> int:
    text = disassemble(_load_image(args.input))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _boot(path: str, cfg: machine.MachineConfig):
    """The image at ``path`` and the machine booted with it; an image
    that puts a blinded word in an unblindable range is refused."""
    image = _load_image(path)
    state = machine.boot_image(image, cfg)
    for seg in image.segments:
        cfg.refuse_blinded("image segment", state.memory, seg.base, len(seg.words))
    return image, state


def cmd_run(args) -> int:
    cfg = args.cfg
    _, state = _boot(args.image, cfg)
    for addr, _ in args.blind_word:
        if not 0 <= addr < cfg.memory_words:
            raise ValueError(f"--blind-word address {addr:#x} out of range")
    state = state.edit(memory=[(addr, blinded(value)) for addr, value in args.blind_word])
    for addr, _ in args.blind_word:
        cfg.refuse_blinded("--blind-word", state.memory, addr, 1)

    result = machine.run(state, cfg, args.max_steps)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(machine.format_trace(result.trace))
    print(f"outcome: {result.outcome.value} after {result.steps} step(s)")
    sys.stdout.write(snapshot(result.state))
    return 0 if result.outcome is machine.RunOutcome.HALTED else FAILURE


def cmd_check(args) -> int:
    cfg = args.cfg
    if args.trials < 0:
        raise ValueError("--trials must not be negative")
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    image, _ = _boot(args.image, cfg)
    sig = checker.parse_signature(args.sig)
    report = checker.analyze(image, sig, cfg, seed=args.seed)

    # Both halves run before anything is printed; --trials 0 runs only
    # the static analysis.
    dynamic = None
    if args.trials > 0:
        # Registers that may be blinded get fresh payloads on each side.
        blinded_regs = tuple(
            sorted(r for r, tag in sig.registers.items() if tag is not checker.SigTag.CLEAR)
        )
        dynamic = checker.check_noninterference(
            image, trials=args.trials, steps=args.steps, cfg=cfg, seed=args.seed,
            blinded_regs=blinded_regs,
        )

    sys.stdout.write(report.format())
    if dynamic is not None:
        if dynamic.passed:
            print(f"non-interference: pass ({dynamic.trials} trials)")
        else:
            ce = dynamic.counterexample
            print(
                f"non-interference: FAIL at trial {ce.trial} step {ce.step}: "
                f"{ce.reason} (minimized to {ce.delta_words} differing word(s))"
            )

    if args.report:
        payload = {
            "verdict": report.verdict.value,
            "iterations": report.iterations,
            "bound_exceeded": report.bound_exceeded,
            "findings": [
                {**dataclasses.asdict(f), "fault": f.fault and f.fault.value}
                for f in report.findings
            ],
            "noninterference": None
            if dynamic is None
            else {
                "passed": dynamic.passed,
                "trials": dynamic.trials,
                "pair_steps": dynamic.pair_steps,
                "stops": dict(sorted(Counter(dynamic.stops).items())),
            },
        }
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    ok = report.verdict is checker.Verdict.COMPLIANT and (
        dynamic is None or dynamic.passed
    )
    return 0 if ok else FAILURE


# ---------------------------------------------------------------------------
# Protocol demo
# ---------------------------------------------------------------------------


def _read_words(path: str) -> tuple[int, ...]:
    with open(path) as fh:
        return tuple(word_value(_int(tok)) for tok in fh.read().split())


@contextlib.contextmanager
def _socket_round_trip(session: ServerSession):
    """Yield a round-trip function over a loopback socket pair whose other
    end a thread serves; on exit both ends are closed and the thread joined."""
    client_sock, server_sock = socket.socketpair()
    client_file, server_file = client_sock.makefile("rwb"), server_sock.makefile("rwb")
    max_length = max_frame_length(session.cfg.memory_words)

    def serve():
        try:
            session.serve_stream(server_file)
        finally:
            server_file.close()
            server_sock.close()

    def round_trip(frame: bytes) -> bytes:
        client_file.write(frame)
        client_file.flush()
        reply = read_frame(client_file, max_length)
        if reply is None:
            raise ProtocolError("server closed the stream mid-frame")
        return reply

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield round_trip
    finally:
        client_file.close()
        client_sock.close()
        thread.join(timeout=5)


def _demo_session(
    plaintext: tuple[int, ...], image_bytes: bytes, entry: int, args
) -> tuple[tuple[int, ...], str, SystemState]:
    """One full client session; returns (decrypted words, server trace,
    server's final state)."""
    cfg = args.cfg
    device_priv, device_pub = make_device_keypair(seed=args.seed)
    engine = EncryptionEngine(root_key=b"\x5a" * 32)
    claims = Claims(policy_mode=cfg.mode)
    session = ServerSession(
        device_priv, claims, engine, cfg, seed=args.seed, max_steps=args.max_steps
    )
    transport = (
        _socket_round_trip(session)
        if args.transport == "socket"
        else contextlib.nullcontext(session.handle_frame)
    )
    with transport as round_trip:
        client = ClientHandshake(device_pub, seed=args.seed + 1, required_mode=cfg.mode)
        key = client.finish(round_trip(client.hello()))

        def request(msg):
            reply = decode_frame(round_trip(encode_frame(msg)))
            if isinstance(reply, ErrorResponse):
                raise VerifyError(f"server: {reply.message}")
            assert isinstance(reply, ResultResponse)
            return reply.payload

        request(ImportRequest(args.data_base, client_encrypt(key, plaintext, counter=0)))
        outcome, steps = parse_compute_result(
            request(ComputeRequest(entry, image_bytes))
        )
        if outcome != "halted":
            raise VerifyError(f"computation did not halt: {outcome} after {steps} steps")
        envelope = request(ExportRequest(args.result_base, len(plaintext)))
        output = client_decrypt(key, envelope)
    return output, session.traces[-1], session.state


def cmd_demo_protocol(args) -> int:
    plaintext = _read_words(args.plaintext)
    if not plaintext:
        raise ValueError("empty plaintext")
    plaintexts = [plaintext]
    if args.dual:
        plaintexts.append(_read_words(args.dual))
        if len(plaintexts[1]) != len(plaintext):
            raise ValueError("--dual plaintext must have the same length")
    size = args.cfg.memory_words
    for flag, base in (("--data-base", args.data_base), ("--result-base", args.result_base)):
        if not 0 <= base <= size - len(plaintext):
            raise ValueError(
                f"{flag} region [{base:#x}, {base + len(plaintext):#x}) "
                f"does not fit memory of {size:#x} words"
            )

    if args.program:
        image = _load_image(args.program)
    else:
        image = assemble(
            corpus.demo_add_one(
                len(plaintext), data_base=args.data_base, result_base=args.result_base
            )
        )
    image_bytes = encode_image(image)

    traces, states = [], []
    for words, label, suffix in zip(plaintexts, ("result:", "result2:"), ("", ".b")):
        output, trace, state = _demo_session(words, image_bytes, image.entry_pc, args)
        print(label, " ".join(str(w) for w in output))
        if args.trace:
            with open(args.trace + suffix, "w") as fh:
                fh.write(trace)
        traces.append(trace)
        states.append(state)

    if args.dual:
        if traces[0] != traces[1]:
            print("TRACES DIFFER: blinded data influenced observable behavior")
            return FAILURE
        if not state_equiv(*states):
            print("STATES DIFFER: blinded data reached clear state")
            return FAILURE
        print(f"traces: byte-identical ({len(traces[0].splitlines())} events)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    handlers = {
        "asm": cmd_asm,
        "disasm": cmd_disasm,
        "run": cmd_run,
        "check": cmd_check,
        "demo-protocol": cmd_demo_protocol,
    }
    try:
        if hasattr(args, "mem_words"):  # a command that takes the machine flags
            args.cfg = _machine_config(args)
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # bad file, image, flag or signature
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (VerifyError, ProtocolError) as exc:  # the protocol run failed
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
