#!/usr/bin/env python3
"""A first look at the tagged machine.

Builds a three-instruction program by hand, runs it, and shows what an
observer sees (the trace and snapshot) -- then demonstrates the two
flavors of policy response: the trap-to-handler path and a terminal
fault.
"""

from blindsim import (
    FaultKind,
    MachineConfig,
    Opcode,
    DecodedInstruction,
    SystemState,
    blinded,
    clear,
    encode,
    format_trace,
    run,
    snapshot,
)


def instr(op, ins=(), out=None):
    return clear(encode(DecodedInstruction(op, tuple(ins), out)))


cfg = MachineConfig(memory_words=32, cache_lines=8)

print("== add two registers, store the result, halt ==")
s = SystemState.initial(cfg.memory_words, cfg.cache_lines)
program = [
    instr(Opcode.ADD, (1, 2), 3),      # r3 = r1 + r2
    instr(Opcode.STORE, (4, 3)),       # mem[r4] = r3
    instr(Opcode.HALT),
]
s = s.edit(
    registers=[(1, blinded(40)), (2, clear(2)), (4, clear(0x10))],  # r1 is a secret input
    memory=list(enumerate(program)),
)

result = run(s, cfg, max_steps=10)
print(f"outcome: {result.outcome.value}")
print("the stored sum is blinded (taint propagated through ADD):")
print(f"  mem[0x10] = {result.state.memory[0x10]}")
print("what the observer sees -- addresses and fault signals, no payloads:")
print(format_trace(result.trace))

print("== a blinded word reached by pc traps to the handler at 0 ==")
s2 = s.edit(pc=3, memory=[(3, blinded(0x1234)), (0, instr(Opcode.HALT))])
result = run(s2, cfg, max_steps=10)
print(format_trace(result.trace))

print("== storing a secret into an unblindable (MMIO) range is terminal ==")
mmio_cfg = MachineConfig(
    memory_words=32, cache_lines=8,
    unblindable_ranges=((0x18, 0x1C),), mmio_console=0x18,
)
s3 = s.edit(registers=[(4, clear(0x18))])
result = run(s3, mmio_cfg, max_steps=10)
print(f"outcome: {result.outcome.value} ({result.state.fault.value})")
assert result.state.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE
print()
print("final snapshot:")
print(snapshot(result.state))
