"""Curated assembly programs for the harness, demos, and acceptance suite.

The ISA has no immediates, so every program bootstraps constants through
the standard prologue: word 0 holds the address of a constant pool whose
first entry is the value 1, giving pointer arithmetic a foothold
(``load rP, r0`` / ``load rONE, rP`` / ``add rP, rP, rONE`` ...).

Fault-path programs park their pool at an address whose value does not
decode, so a trap to the handler at word 0 ends in a terminal decode
fault instead of looping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import MachineConfig, Mode
from .model import MASK64


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    """A program plus the machine setup it expects."""

    name: str
    source: str
    blinded_regs: tuple[int, ...] = ()
    unblindable: tuple[tuple[int, int], ...] = ()
    mmio_console: int | None = None
    safe: bool = True  # runs to HALT without policy faults
    memory_words: int = 64

    def config(self, mode: Mode) -> MachineConfig:
        """The machine this entry expects, with 8 cache lines, in ``mode``."""
        return MachineConfig(mode, self.memory_words, 8, self.unblindable, self.mmio_console)


def trivial_halt() -> str:
    return ".entry 0\nhalt\n"


def branchless_select(mask: int = 0xF) -> str:
    """r3 = (r1 AND mask) XOR (r2 AND NOT mask), stored to ``result``.

    r1 and r2 are expected to hold (blinded) inputs at entry; all address
    logic is clear, so the program never faults under the tag policy.
    """
    inv = ~mask & MASK64
    return f"""
.entry start
.word pool
start:
    load r10, r0        # pool base
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r5, r10        # mask
    add  r10, r10, r11
    load r6, r10        # ~mask
    add  r10, r10, r11
    load r7, r10        # result address
    and  r8, r1, r5
    and  r9, r2, r6
    xor  r3, r8, r9
    store r7, r3
    halt
pool:
    .word 1
    .word {mask:#x}
    .word {inv:#x}
    .word result
result:
    .word 0
"""


def compare_accumulate(xs: tuple[int, ...] = (3, 5, 7, 9), ys: tuple[int, ...] = (3, 5, 7, 9)) -> str:
    """Constant-time array comparison: OR-accumulates xor-differences of
    two blinded arrays; the (blinded) accumulator lands at ``result``.

    OR is built from the available ops: p OR q = (p XOR q) XOR (p AND q).
    """
    n = len(xs)
    assert len(ys) == n
    body = []
    for _ in range(n):
        body.append(
            """
    load r2, r12
    load r3, r13
    xor  r4, r2, r3
    xor  r5, r1, r4
    and  r6, r1, r4
    xor  r1, r5, r6     # acc = acc OR diff
    add  r12, r12, r11
    add  r13, r13, r11"""
        )
    xs_words = "\n".join(f"    .word {v:#x} blinded" for v in xs)
    ys_words = "\n".join(f"    .word {v:#x} blinded" for v in ys)
    return f"""
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # xs
    add  r10, r10, r11
    load r13, r10       # ys
    add  r10, r10, r11
    load r14, r10       # result address
    xor  r1, r1, r1     # acc = clear 0
{"".join(body)}
    store r14, r1
    halt
pool:
    .word 1
    .word xs
    .word ys
    .word result
xs:
{xs_words}
ys:
{ys_words}
result:
    .word 0
"""


def _add_one_loop(n: int, data: str, result: str) -> str:
    """Looped pipeline: result[i] = data[i] + 1 for i in [0, n).

    ``data`` and ``result`` are the pool words holding the two base
    addresses (labels or numbers); the pool is the last statement, so a
    caller may append the regions the labels name.  Exercises loads,
    stores, a counted loop, and an unconditional jump.
    """
    return f"""
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # data pointer
    add  r10, r10, r11
    load r13, r10       # result pointer
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
    load r2, r12
    add  r3, r2, r11
    store r13, r3
    add  r12, r12, r11
    add  r13, r13, r11
    add  r17, r17, r11
    xor  r18, r18, r18
    bz   r18, r15       # unconditional: continue loop
done:
    halt
pool:
    .word 1
    .word {data}
    .word {result}
    .word {n:#x}
    .word loop
    .word done
"""


def add_one_pipeline(n: int, values: tuple[int, ...]) -> str:
    """The add-one loop over ``values`` embedded as blinded words."""
    assert len(values) == n
    data_words = "\n".join(f"    .word {v:#x} blinded" for v in values)
    return _add_one_loop(n, "data", "result") + f"""data:
{data_words}
result:
{chr(10).join("    .word 0" for _ in range(n))}
"""


def demo_add_one(n: int, data_base: int = 0x100, result_base: int = 0x180) -> str:
    """Protocol-demo pipeline: the add-one loop over externally imported
    data.  The image carries only code and pool, so loading it never
    clobbers the imported region."""
    return _add_one_loop(n, f"{data_base:#x}", f"{result_base:#x}")


def add_one_unrolled() -> str:
    """Straight-line variant of the pipeline over blinded 1, 2, 3: every
    address is a pool constant, which the static checker can fully resolve."""
    body = """
    load r2, r12
    add  r3, r2, r11
    store r13, r3
    add  r12, r12, r11
    add  r13, r13, r11"""
    return f"""
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # data pointer
    add  r10, r10, r11
    load r13, r10       # result pointer
{body * 3}
    halt
pool:
    .word 1
    .word data
    .word result
data:
    .word 0x1 blinded
    .word 0x2 blinded
    .word 0x3 blinded
result:
    .word 0
    .word 0
    .word 0
"""


# ---------------------------------------------------------------------------
# Fault-path programs.  Pool base 9 does not decode (0x09 is not an
# opcode), so the handler at word 0 -- whose word is the pool pointer --
# ends the run with a terminal decode fault after the policy trap.
# ---------------------------------------------------------------------------


def blinded_branch_fault() -> str:
    return """
.entry start
.word pool
start:
    load r1, r0         # pool base
    load r2, r1         # blinded secret
    bz   r2, r0         # blinded condition: trap
    halt
.org 9
pool:
    .word 7 blinded
"""


def blinded_load_fault() -> str:
    return """
.entry start
.word pool
start:
    load r1, r0
    load r2, r1         # blinded secret
    load r3, r2         # blinded address: trap (hardware) / no-op (model)
    halt
.org 9
pool:
    .word 7 blinded
"""


def blinded_store_unblindable_fault() -> str:
    return """
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r2, r10        # blinded secret
    add  r10, r10, r11
    load r3, r10        # unblindable address
    store r3, r2        # blinded store to unblindable: terminal fault
    halt
pool:
    .word 1
    .word 7 blinded
    .word 0x30
"""


def blinded_fetch_trap() -> str:
    """Entry word is blinded; the handler at 0 halts cleanly."""
    return """
.entry 1
halt
.word 0x1234 blinded
"""


def blinded_fetch_loop() -> str:
    """Word 0 itself is blinded: the trap handler can never run."""
    return ".entry 0\n.word 5 blinded\n"


def rblnd_refused() -> str:
    return """
.entry start
.word pool
start:
    load r1, r0
    rblnd r1            # always refused
    halt
.org 9
pool:
    .word 7 blinded
"""


def curated_corpus() -> tuple[CorpusEntry, ...]:
    """The standing program set for the non-interference harness."""
    return (
        CorpusEntry("trivial-halt", trivial_halt()),
        CorpusEntry("branchless-select", branchless_select(), blinded_regs=(1, 2)),
        CorpusEntry("compare-accumulate", compare_accumulate()),
        CorpusEntry("compare-accumulate-unequal", compare_accumulate(ys=(3, 5, 8, 9))),
        CorpusEntry("add-one-looped", add_one_pipeline(4, (10, 20, 30, 40))),
        CorpusEntry("add-one-unrolled", add_one_unrolled()),
        CorpusEntry("fault-blinded-branch", blinded_branch_fault(), safe=False),
        CorpusEntry("fault-blinded-load", blinded_load_fault(), safe=False),
        CorpusEntry(
            "fault-blinded-store-unblindable",
            blinded_store_unblindable_fault(),
            unblindable=((48, 52),),
            safe=False,
        ),
        CorpusEntry("fault-blinded-fetch", blinded_fetch_trap(), safe=False),
        CorpusEntry("fault-loop", blinded_fetch_loop(), safe=False),
        CorpusEntry("rblnd-refused", rblnd_refused(), safe=False),
    )
