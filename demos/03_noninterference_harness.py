#!/usr/bin/env python3
"""The randomized equivalence harness, and what a policy bug looks like.

Two machine states that differ only in blinded payloads must stay
equivalent forever and emit identical traces.  The harness checks this
after every step.  A semantics that forgets to propagate taint through
ADD is caught within a few thousand random machines and shrunk to a
one-word counterexample.
"""

from blindsim import (
    MachineConfig,
    Mode,
    Opcode,
    TaggedWord,
    assemble,
    check_noninterference,
    instruction_semantics,
)
from blindsim.corpus import curated_corpus

cfg = MachineConfig(memory_words=64, cache_lines=8)

print("== shipped semantics: random machines ==")
result = check_noninterference(None, trials=2000, steps=64, cfg=cfg, seed=1)
print(f"random machines: passed={result.passed} over {result.trials} trials")

print()
print("== shipped semantics: the curated corpus, both modes ==")
for entry in curated_corpus():
    image = assemble(entry.source)
    for mode in Mode:
        entry_cfg = entry.config(mode)
        r = check_noninterference(
            image, trials=100, steps=200, cfg=entry_cfg,
            seed=2, blinded_regs=entry.blinded_regs,
        )
        assert r.passed, entry.name
    print(f"  {entry.name}: pass")

print()
print("== a broken ADD that drops the taint bit ==")


def add_drops_taint(d, inputs, mode=Mode.HARDWARE):
    out, memop, control = instruction_semantics(d, inputs, mode)
    if d.opcode is Opcode.ADD and out is not None:
        out = TaggedWord(out.value, False)
    return out, memop, control


result = check_noninterference(
    None, trials=5000, steps=64, cfg=cfg, seed=3, semantics=add_drops_taint
)
ce = result.counterexample
print(f"caught={not result.passed} after {result.trials} trials")
print(f"diverged at step {ce.step}: {ce.reason.splitlines()[0][:72]}")
print(f"counterexample shrunk to {ce.delta_words} differing blinded word(s)")
