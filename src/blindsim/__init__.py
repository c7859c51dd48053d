"""Word-granular taint-tracking machine simulator and protocol harness.

The package provides:

* a tagged-word machine model with equivalence relations that formalize
  "the observer learns nothing about blinded data" (:mod:`blindsim.model`),
* a small load-store ISA whose semantics propagate blindedness tags with
  a handful of precision special cases (:mod:`blindsim.isa`),
* a deterministic fetch-decode-execute machine with an observable event
  trace, a direct-mapped cache, and unblindable MMIO regions
  (:mod:`blindsim.machine`),
* an assembler/disassembler and a binary program-image format
  (:mod:`blindsim.assembler`),
* an encryption engine with atomic decrypt-and-taint import,
  encrypt-and-untaint export, and key sealing (:mod:`blindsim.engine`),
* an attestation/key-agreement handshake and session framing
  (:mod:`blindsim.protocol`),
* a static taint compliance checker and a randomized non-interference
  harness (:mod:`blindsim.checker`),
* a command-line front end (:mod:`blindsim.cli`).
"""

from .assembler import (
    AssemblyError,
    ProgramImage,
    Segment,
    assemble,
    decode_image,
    disassemble,
    encode_image,
)
from .checker import (
    ComplianceReport,
    TaintSignature,
    Verdict,
    analyze,
    check_noninterference,
    generate_equivalent_pair,
    parse_signature,
)
from .engine import EncryptionEngine, SessionKey
from .isa import (
    DecodedInstruction,
    DecodeError,
    MemoryOperation,
    Mode,
    Opcode,
    decode,
    encode,
    instruction_semantics,
)
from .machine import (
    MachineConfig,
    RunOutcome,
    RunResult,
    boot_image,
    format_trace,
    overlay_image,
    run,
    step,
)
from .model import (
    MASK64,
    REG_COUNT,
    FaultKind,
    MemoryImage,
    Status,
    SystemState,
    TaggedWord,
    blinded,
    clear,
    list_equiv,
    redact,
    snapshot,
    state_equiv,
    value_equiv,
)
from .protocol import Claims, ClientHandshake, HsmResponder, ServerSession

__all__ = [
    "MASK64",
    "REG_COUNT",
    "AssemblyError",
    "Claims",
    "ClientHandshake",
    "ComplianceReport",
    "DecodeError",
    "DecodedInstruction",
    "EncryptionEngine",
    "FaultKind",
    "HsmResponder",
    "MachineConfig",
    "MemoryImage",
    "MemoryOperation",
    "Mode",
    "Opcode",
    "ProgramImage",
    "RunOutcome",
    "RunResult",
    "Segment",
    "ServerSession",
    "SessionKey",
    "Status",
    "SystemState",
    "TaggedWord",
    "TaintSignature",
    "Verdict",
    "analyze",
    "assemble",
    "blinded",
    "boot_image",
    "check_noninterference",
    "clear",
    "decode",
    "decode_image",
    "disassemble",
    "encode",
    "encode_image",
    "format_trace",
    "generate_equivalent_pair",
    "instruction_semantics",
    "list_equiv",
    "overlay_image",
    "parse_signature",
    "redact",
    "run",
    "snapshot",
    "state_equiv",
    "step",
    "value_equiv",
]

__version__ = "0.1.0"
