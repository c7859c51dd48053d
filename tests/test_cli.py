"""CLI subcommands, exit codes, and file outputs."""

import functools
import json

import pytest

from blindsim.cli import _socket_round_trip, main
from blindsim.corpus import (
    blinded_branch_fault,
    blinded_store_unblindable_fault,
    branchless_select,
    demo_add_one,
    rblnd_refused,
)
from blindsim.assembler import assemble, decode_image, encode_image
from blindsim import checker
from blindsim.machine import MachineConfig
from blindsim.protocol import (
    ExportRequest,
    ProtocolError,
    encode_frame,
    max_frame_length,
    read_frame,
)

import mutants
from helpers import BLND_CONSOLE, MMIO_REPORT, widening_loop


@pytest.fixture
def work(tmp_path):
    def write(name, text, binary=False):
        path = tmp_path / name
        if binary:
            path.write_bytes(text)
        else:
            path.write_text(text)
        return str(path)

    return tmp_path, write


class TestAsmDisasm:
    def test_roundtrip_via_files(self, work):
        tmp, write = work
        src = write("p.asm", branchless_select())
        img = str(tmp / "p.img")
        assert main(["asm", src, "-o", img]) == 0
        assert decode_image((tmp / "p.img").read_bytes()) == assemble(branchless_select())
        out = str(tmp / "p2.asm")
        assert main(["disasm", img, "-o", out]) == 0
        assert assemble((tmp / "p2.asm").read_text()) == assemble(branchless_select())

    def test_missing_input(self, work):
        tmp, _ = work
        assert main(["asm", str(tmp / "nope.asm"), "-o", str(tmp / "x.img")]) == 2

    def test_diagnostics_exit_code(self, work, capsys):
        tmp, write = work
        src = write("bad.asm", "frobnicate r1\n")
        assert main(["asm", src, "-o", str(tmp / "x.img")]) == 1
        err = capsys.readouterr().err
        assert "unknown mnemonic" in err and "1:1" in err

    def test_empty_source_is_fine(self, work):
        tmp, write = work
        src = write("empty.asm", "")
        assert main(["asm", src, "-o", str(tmp / "e.img")]) == 0

    def test_disasm_to_stdout_reassembles(self, work, capsys):
        tmp, write = work
        img = write("p.img", encode_image(assemble(branchless_select())), binary=True)
        assert main(["disasm", img]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert encode_image(assemble(captured.out)) == (tmp / "p.img").read_bytes()

    def test_disasm_bad_magic(self, work):
        tmp, write = work
        img = write("bad.img", b"NOPE", binary=True)
        assert main(["disasm", img]) == 2


class TestRun:
    def test_halting_program_exit_zero(self, work, capsys):
        tmp, write = work
        src = write("p.asm", ".entry 0\nhalt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main(["run", img, "--mem-words", "16", "--cache-lines", "2"]) == 0
        out = capsys.readouterr().out
        assert "outcome: halted after 1 step(s)" in out
        assert "status=halted" in out

    def test_fault_program_exit_nonzero_with_trace(self, work):
        tmp, write = work
        src = write("f.asm", blinded_branch_fault())
        img = str(tmp / "f.img")
        main(["asm", src, "-o", img])
        trace = tmp / "f.trace"
        code = main([
            "run", img, "--mem-words", "64", "--cache-lines", "8",
            "--trace", str(trace),
        ])
        assert code == 1
        assert "kind=fault fault=blinded-branch" in trace.read_text()

    def test_determinism_two_runs_identical(self, work):
        tmp, write = work
        src = write("p.asm", branchless_select())
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        t1, t2 = tmp / "a.trace", tmp / "b.trace"
        for t in (t1, t2):
            assert main([
                "run", img, "--mem-words", "64", "--cache-lines", "8",
                "--blind-word", "0x30=5", "--trace", str(t),
            ]) == 0
        assert t1.read_text() == t2.read_text()

    def test_blind_word_injection_visible_in_snapshot(self, work, capsys):
        tmp, write = work
        src = write("p.asm", ".entry 0\nhalt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main([
            "run", img, "--mem-words", "16", "--cache-lines", "2",
            "--blind-word", "5=0x2a",
        ]) == 0
        assert "m5=B:0x2a" in capsys.readouterr().out

    def test_model_mode_flag(self, work, capsys):
        tmp, write = work
        from blindsim.corpus import blinded_load_fault

        src = write("p.asm", blinded_load_fault())
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main([
            "run", img, "--mode", "model", "--mem-words", "64", "--cache-lines", "8",
        ]) == 0  # no-op semantics: halts cleanly

    def test_golden_run_output(self, work, capsys):
        # hand-computed expected output for a two-instruction program
        tmp, write = work
        src = write("p.asm", "add r3, r1, r2\nhalt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main([
            "run", img, "--mem-words", "16", "--cache-lines", "2",
            "--blind-word", "5=0x2a",
        ]) == 0
        assert capsys.readouterr().out == (
            "outcome: halted after 2 step(s)\n"
            "pc=0x1\n"
            "m0=C:0x2010304\n"
            "m1=C:0xffffff00\n"
            "m5=B:0x2a\n"
            "status=halted\n"
        )


class TestCheck:
    def test_compliant_exit_zero_and_report(self, work, capsys):
        tmp, write = work
        src = write("p.asm", branchless_select())
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        report = tmp / "report.json"
        code = main([
            "check", img, "--sig", "r1=B,r2=B",
            "--mem-words", "64", "--cache-lines", "8",
            "--trials", "25", "--seed", "0", "--steps", "200", "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: compliant" in out and "non-interference: pass" in out
        data = json.loads(report.read_text())
        assert data["verdict"] == "compliant"
        # The harness's counts: 325 pair-steps over 25 trials, each of which halts.
        assert data["noninterference"] == {
            "passed": True, "trials": 25, "pair_steps": 325, "stops": {"halted": 25},
        }

    def test_report_lists_the_analysis_findings(self, work, capsys):
        tmp, write = work
        img = write("r.img", encode_image(assemble(rblnd_refused())), binary=True)
        report = tmp / "report.json"
        code = main([
            "check", img, "--mem-words", "64", "--cache-lines", "8",
            "--trials", "0", "--report", str(report),
        ])
        assert code == 1
        capsys.readouterr()
        # Finding's fields in their order, the fault by its value.
        assert report.read_text().startswith(
            '{\n  "verdict": "definitely-faults",\n  "iterations": 2,\n  "bound_exceeded": false,\n'
            '  "findings": [\n    {\n      "pc": 2,\n      "instruction": "rblnd r1",\n'
            '      "reason": "raw unblinding is disabled and faults",\n      "fault": "decode-error",\n'
            '      "definite": true,\n      "unresolved": false\n    }\n  ],\n'
        )
        assert json.loads(report.read_text())["noninterference"] is None

    def test_fixpoint_bound_exceeded(self, work, capsys):
        tmp, write = work
        img = write("w.img", encode_image(assemble(widening_loop())), binary=True)
        report = tmp / "r.json"
        code = main([
            "check", img, "--mem-words", "64", "--cache-lines", "8",
            "--trials", "0", "--report", str(report),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: may-fault\n" in out
        assert "pc=0x1d [possible] <analysis>: fixpoint iteration bound (528) exceeded\n" in out
        data = json.loads(report.read_text())
        assert data["bound_exceeded"] is True and data["iterations"] == 528
        # The bound is the one unresolved finding, the reason for may-fault.
        assert [f["reason"] for f in data["findings"] if f["unresolved"]] == [
            "fixpoint iteration bound (528) exceeded"
        ]

    def test_faulting_program_exit_one(self, work, capsys):
        tmp, write = work
        src = write("f.asm", blinded_branch_fault())
        img = str(tmp / "f.img")
        main(["asm", src, "-o", img])
        code = main([
            "check", img, "--mem-words", "64", "--cache-lines", "8", "--trials", "10",
        ])
        assert code == 1
        assert "definitely-faults" in capsys.readouterr().out

    def test_bad_signature_usage_error(self, work):
        tmp, write = work
        src = write("p.asm", ".entry 0\nhalt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main(["check", img, "--sig", "bogus"]) == 2


    def test_signature_naming_an_absent_segment_usage_error(self, work, capsys):
        tmp, write = work
        src = write("p.asm", ".entry 0\nhalt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main(["check", img, "--sig", "s7=B"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "s7" in captured.err
        assert "verdict" not in captured.out

class TestDemoProtocol:
    def _plain(self, write, name, words):
        return write(name, " ".join(str(w) for w in words) + "\n")

    def test_add_one_pipeline(self, work, capsys):
        tmp, write = work
        pt = self._plain(write, "pt.txt", [1, 2, 3])
        code = main([
            "demo-protocol", pt, "--mem-words", "1024", "--cache-lines", "16",
        ])
        assert code == 0
        assert "result: 2 3 4" in capsys.readouterr().out

    def test_an_import_into_the_console_range_is_refused(self, work, capsys):
        # The console word is unblindable, and the data region starts there.
        tmp, write = work
        pt = self._plain(write, "pt.txt", [1, 2, 3])
        code = main(["demo-protocol", pt, "--mem-words", "1024", "--mmio-console", "0x100"])
        assert code == 1
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err == (
            "error: server: ValueError: import [0x100, 0x103) overlaps an unblindable range\n"
        )

    def test_dual_traces_identical(self, work, capsys):
        tmp, write = work
        pt1 = self._plain(write, "a.txt", [1, 2, 3])
        pt2 = self._plain(write, "b.txt", [900, 800, 700])
        trace = tmp / "demo.trace"
        code = main([
            "demo-protocol", pt1, "--dual", pt2,
            "--mem-words", "1024", "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "result: 2 3 4" in out
        assert "result2: 901 801 701" in out
        assert "byte-identical" in out
        assert trace.read_text() == (tmp / "demo.trace.b").read_text()
        assert trace.read_text()  # non-empty

    def test_socket_transport(self, work, capsys):
        tmp, write = work
        pt = self._plain(write, "pt.txt", [7])
        code = main([
            "demo-protocol", pt, "--transport", "socket", "--mem-words", "1024",
        ])
        assert code == 0
        assert "result: 8" in capsys.readouterr().out

    def test_socket_transport_refuses_a_reply_cut_mid_frame(self):
        class HalfReplySession:
            """Reads one request, writes the start of a reply, and closes."""

            cfg = MachineConfig(memory_words=64, cache_lines=8)

            def serve_stream(self, stream):
                read_frame(stream, max_frame_length(self.cfg.memory_words))
                stream.write((8).to_bytes(4, "big") + b"abc")
                stream.flush()

        with _socket_round_trip(HalfReplySession()) as round_trip:
            with pytest.raises(ProtocolError, match="^server closed the stream mid-frame$"):
                round_trip(encode_frame(ExportRequest(0, 1)))

    def test_custom_program_image(self, work, capsys):
        tmp, write = work
        image = assemble(demo_add_one(2, data_base=0x40, result_base=0x50))
        img = write("prog.img", encode_image(image), binary=True)
        pt = self._plain(write, "pt.txt", [10, 20])
        code = main([
            "demo-protocol", pt, "--program", img,
            "--data-base", "0x40", "--result-base", "0x50",
            "--mem-words", "256",
        ])
        assert code == 0
        assert "result: 11 21" in capsys.readouterr().out

    @pytest.mark.parametrize("leaky", [False, True], ids=["shipped-engine", "import-writes-clear"])
    def test_dual_reports_traces_that_differ(self, work, capsys, monkeypatch, leaky):
        # An import that forgets to blind lets the console print the
        # imported word, so the two sessions' traces differ.
        if leaky:
            monkeypatch.setattr("blindsim.cli.EncryptionEngine", mutants.ImportWritesClearEngine)
        tmp, write = work
        img = write("report.img", encode_image(assemble(MMIO_REPORT.source)), binary=True)
        pt1 = self._plain(write, "a.txt", [5])
        pt2 = self._plain(write, "b.txt", [900])
        code = main([
            "demo-protocol", pt1, "--dual", pt2, "--program", img, "--mem-words", "64",
            "--mmio-console", "48", "--data-base", "32", "--result-base", "40",
        ])
        captured = capsys.readouterr()
        assert code == 1
        differ = "TRACES DIFFER: blinded data influenced observable behavior\n"
        if leaky:
            assert captured.out == "result: 0\nresult2: 0\n" + differ
        else:
            assert differ not in captured.out
            assert captured.err == "error: computation did not halt: faulted after 9 steps\n"

    @pytest.mark.parametrize("mode", ["model", "hardware"])
    def test_an_rblnd_of_imported_data_is_refused(self, work, capsys, mode):
        # The program unblinds the first imported word and branches on it.
        # The rblnd is refused before the branch, so the first session ends
        # in an error and no traces are compared.
        tmp, write = work
        img = write("leak.img", encode_image(assemble(BRANCHES_ON_IMPORT)), binary=True)
        pt1 = self._plain(write, "a.txt", [0, 5])
        pt2 = self._plain(write, "b.txt", [1, 5])
        code = main([
            "demo-protocol", pt1, "--dual", pt2, "--program", img, "--mem-words", "1024",
            "--mode", mode,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: computation did not halt: faulted")
        assert "TRACES DIFFER" not in captured.out

    @pytest.mark.parametrize("transport", ["memory", "socket"])
    def test_dual_reports_states_that_differ(self, work, capsys, monkeypatch, transport):
        # The add-one program never reaches the console, so an import that
        # forgets to blind leaves both traces identical; the final states
        # still hold the plaintexts in clear words.
        monkeypatch.setattr("blindsim.cli.EncryptionEngine", mutants.ImportWritesClearEngine)
        tmp, write = work
        pt1 = self._plain(write, "a.txt", [1, 2, 3])
        pt2 = self._plain(write, "b.txt", [900, 800, 700])
        code = main([
            "demo-protocol", pt1, "--dual", pt2, "--mem-words", "1024", "--transport", transport,
        ])
        assert code == 1
        assert capsys.readouterr().out == (
            "result: 2 3 4\nresult2: 901 801 701\n"
            "STATES DIFFER: blinded data reached clear state\n"
        )

    def test_length_mismatch_usage_error(self, work):
        tmp, write = work
        pt1 = self._plain(write, "a.txt", [1, 2])
        pt2 = self._plain(write, "b.txt", [1, 2, 3])
        assert main(["demo-protocol", pt1, "--dual", pt2, "--mem-words", "1024"]) == 2

    def test_missing_plaintext(self, work):
        tmp, _ = work
        assert main(["demo-protocol", str(tmp / "none.txt")]) == 2

    def test_empty_plaintext(self, work):
        tmp, write = work
        pt = write("empty.txt", "\n")
        assert main(["demo-protocol", pt]) == 2


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, work):
        tmp, write = work
        src = write("p.asm", "halt\n")
        img = str(tmp / "p.img")
        main(["asm", src, "-o", img])
        assert main(["run", img, "--unblindable", "badrange"]) == 2


def assembled(write, tmp, source):
    img = str(tmp / "p.img")
    assert main(["asm", write("p.asm", source), "-o", img]) == 0
    return img


class TestMachineFlags:
    SMALL = ["--mem-words", "64", "--cache-lines", "8"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--unblindable", "50..40"],
            ["--unblindable", "8..16", "--unblindable", "12..20"],
            ["--mem-words", "0"],
            ["--mmio-console", "1000", "--mem-words", "64"],
        ],
        ids=["reversed-range", "overlapping-ranges", "no-memory", "console-out-of-memory"],
    )
    @pytest.mark.parametrize("command", ["run", "check", "demo-protocol"])
    def test_invalid_machine_is_a_usage_error(self, work, capsys, command, flags):
        tmp, write = work
        target = write("pt.txt", "1 2\n") if command == "demo-protocol" else (
            assembled(write, tmp, ".entry 0\nhalt\n")
        )
        capsys.readouterr()
        assert main([command, target, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_unblindable_range(self, work, capsys):
        tmp, write = work
        img = assembled(write, tmp, blinded_store_unblindable_fault())
        assert main(["run", img, *self.SMALL]) == 0
        assert main(["run", img, *self.SMALL, "--unblindable", "48..52"]) == 1
        assert "status=faulted:blinded-store-to-unblindable" in capsys.readouterr().out

    def test_mmio_console_is_unblindable_on_its_own(self, work, capsys):
        tmp, write = work
        img = assembled(write, tmp, MMIO_REPORT.source)
        trace = tmp / "console.trace"
        flags = [*self.SMALL, "--mmio-console", "48"]
        assert main(["run", img, *flags, "--trace", str(trace)]) == 0
        assert "kind=mmio value=0x1" in trace.read_text()
        capsys.readouterr()
        assert main(["run", img, *flags, "--blind-word", "32=5"]) == 1
        assert "status=faulted:blinded-store-to-unblindable" in capsys.readouterr().out

    def test_a_program_cannot_blnd_the_console_word(self, work, capsys):
        tmp, write = work
        img = assembled(write, tmp, BLND_CONSOLE.source)
        flags = [*self.SMALL, "--unblindable", "48..52", "--mmio-console", "48"]
        capsys.readouterr()
        assert main(["run", img, *flags]) == 1
        out = capsys.readouterr().out
        assert "status=faulted:blinded-store-to-unblindable" in out and "m48=B" not in out
        assert main(["check", img, *flags, "--trials", "5"]) == 1
        assert "[definite] blnd r1: blinded tag-edit into an unblindable range" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "word",
        ["0x40=1", "5", "\u0661=5", "1=\u0665"],
        ids=["out-of-range", "no-value", "non-ascii-address", "non-ascii-value"],
    )
    def test_bad_blind_word(self, work, capsys, word):
        tmp, write = work
        img = assembled(write, tmp, ".entry 0\nhalt\n")
        capsys.readouterr()
        assert main(["run", img, *self.SMALL, "--blind-word", word]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    # No machine setting switches the tag policy off: rblnd is always
    # refused, so no flag allows it.  int() reads any Unicode decimal
    # digit; the CLI reads ASCII only.
    @pytest.mark.parametrize(
        "command, flags, error",
        [
            ("run", ["--allow-raw-unblind"], "unrecognized arguments: --allow-raw-unblind"),
            ("check", ["--allow-raw-unblind"], "unrecognized arguments: --allow-raw-unblind"),
            ("demo-protocol", ["--allow-raw-unblind"], "unrecognized arguments: --allow-raw-unblind"),
            ("run", ["--mem-words", "xyz"], "argument --mem-words: invalid _int value: 'xyz'"),
            ("run", ["--mem-words", "\u0666\u0664", "--cache-lines", "8"], "argument --mem-words"),
            ("run", ["--mem-words", "64", "--cache-lines", "\uff18"], "argument --cache-lines"),
            ("run", ["--unblindable", "\u0661..\u0662"], "argument --unblindable"),
            ("run", ["--mmio-console", "\u0664\u0668"], "argument --mmio-console"),
            ("run", ["--max-steps", "\u0663"], "argument --max-steps"),
            ("check", ["--seed", "\u0663", "--trials", "2"], "argument --seed"),
            ("check", ["--trials", "\u0662"], "argument --trials"),
            ("demo-protocol", ["--data-base", "\u0663\u0662"], "argument --data-base"),
        ],
        ids=[
            "run-allow-raw-unblind", "check-allow-raw-unblind", "demo-allow-raw-unblind",
            "mem-words-xyz", "mem-words", "cache-lines-fullwidth", "unblindable", "mmio-console", "max-steps",
            "seed", "trials", "data-base",
        ],
    )
    def test_a_refused_flag_is_a_usage_error(self, work, capsys, command, flags, error):
        tmp, write = work
        target = write("pt.txt", "1 2\n") if command == "demo-protocol" else (
            assembled(write, tmp, rblnd_refused())
        )
        capsys.readouterr()
        assert main([command, target, *flags]) == 2
        captured = capsys.readouterr()
        # One line, as main() prints its own errors: no usage block.
        assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [[], ["run"], ["frobnicate"]], ids=["no-command", "no-image", "unknown-command"])
    def test_a_missing_or_unknown_argument_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_still_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: blindsim")


ERROR_FILES = {
    "halt.img": encode_image(assemble(".entry 0\nhalt\n")),
    "big.img": encode_image(assemble(".entry 0\nhalt\n.org 0x800\n.word 1\n")),
    "bad.img": b"NOPE",
    "short.img": encode_image(assemble("halt\n"))[:-3],
    "fault.img": encode_image(assemble(".entry 0\n.word 0x7f\n")),
    "console.img": encode_image(assemble(".entry 0x300\n.org 0x100\n.word 5 blinded\n.org 0x300\nhalt\n")),
    "console64.img": encode_image(assemble(".entry 0x10\n.org 0x30\n.word 5 blinded\n.org 0x10\nhalt\n")),
    "pt.txt": b"1 2\n",
    "pt3.txt": b"1 2 3\n",
    "empty.txt": b"\n",
    "words.txt": b"1 xyz\n",
    "arabic.txt": "\u0661 2\n".encode(),
    "wide.txt": b"18446744073709551617 -1 5\n",
    "edges.txt": b"-1 -0x8000000000000000 0xffffffffffffffff\n",
}
SMALL = "--mem-words 64 --cache-lines 8"
CONSOLE = "--unblindable 48..52 --mmio-console 48"
DEMO = "--mem-words 1024"
NO_FILE = "error: [Errno 2] No such file or directory: '@{}'"


def run_cli(tmp, command):
    """``main`` on ``command`` split at spaces, with ``@`` naming files in ``tmp``."""
    for name, data in ERROR_FILES.items():
        (tmp / name).write_bytes(data)
    return main([word.replace("@", f"{tmp}/") for word in command.split()])


class TestErrorPaths:
    """Every refused input gives one ``error:`` line on stderr and its exit
    code: 2 for a bad file, image, flag or signature, 1 when the protocol
    run itself fails."""

    @pytest.mark.parametrize(
        "command, code, line",
        [
            ("asm @missing.asm -o @x.img", 2, NO_FILE.format("missing.asm")),
            ("disasm @missing.img", 2, NO_FILE.format("missing.img")),
            ("disasm @bad.img", 2, "error: bad magic"),
            ("run @missing.img", 2, NO_FILE.format("missing.img")),
            ("run @short.img", 2, "error: truncated image"),
            (f"run @big.img {SMALL}", 2, "error: segment [0x800, 0x801) exceeds memory of 0x40 words"),
            (f"run @halt.img {SMALL} --blind-word 0x40=1", 2, "error: --blind-word address 0x40 out of range"),
            (
                f"run @halt.img {SMALL} {CONSOLE} --blind-word 48=5", 2,
                "error: --blind-word [0x30, 0x31) overlaps an unblindable range",
            ),
            (f"run @console64.img {SMALL} {CONSOLE}", 2, "error: image segment [0x30, 0x31) overlaps an unblindable range"),
            ("run @halt.img --mem-words 0", 2, "error: memory_words and cache_lines must be positive"),
            ("check @missing.img", 2, NO_FILE.format("missing.img")),
            ("check @bad.img", 2, "error: bad magic"),
            ("check @halt.img --sig bogus", 2, "error: bad signature entry 'bogus'"),
            ("check @halt.img --sig s7=B", 2, "error: signature names segment s7, but the image has 1 segment(s)"),
            ("check @halt.img --sig r1=B,r01=C", 2, "error: signature names r1 twice"),
            pytest.param(
                f"check @halt.img --sig r{'9' * 5000}=B", 2, f"error: register out of range in 'r{'9' * 5000}=B'",
                id="check-register-past-int-digit-limit",
            ),
            (f"check @big.img {SMALL}", 2, "error: segment [0x800, 0x801) exceeds memory of 0x40 words"),
            (
                f"check @console64.img {SMALL} {CONSOLE} --trials 5", 2,
                "error: image segment [0x30, 0x31) overlaps an unblindable range",
            ),
            ("demo-protocol @missing.txt", 2, NO_FILE.format("missing.txt")),
            ("demo-protocol @words.txt", 2, "error: invalid literal for int() with base 0: 'xyz'"),
            ("demo-protocol @arabic.txt", 2, "error: invalid literal for int() with base 0: '\u0661'"),
            ("demo-protocol @empty.txt", 2, "error: empty plaintext"),
            (f"demo-protocol @pt.txt --program @missing.img {DEMO}", 2, NO_FILE.format("missing.img")),
            (f"demo-protocol @pt.txt --program @bad.img {DEMO}", 2, "error: bad magic"),
            (f"demo-protocol @pt.txt --dual @missing.txt {DEMO}", 2, NO_FILE.format("missing.txt")),
            (f"demo-protocol @pt.txt --dual @words.txt {DEMO}", 2, "error: invalid literal for int() with base 0: 'xyz'"),
            (f"demo-protocol @pt.txt --dual @pt3.txt {DEMO}", 2, "error: --dual plaintext must have the same length"),
            ("demo-protocol @pt.txt --mem-words 0", 2, "error: memory_words and cache_lines must be positive"),
            (f"demo-protocol @pt.txt --program @fault.img {DEMO}", 1, "error: computation did not halt: faulted after 1 steps"),
            (
                f"demo-protocol @pt.txt --program @big.img {DEMO}", 1,
                "error: server: LoadError: segment [0x800, 0x801) exceeds memory of 0x400 words",
            ),
            (
                f"demo-protocol @pt.txt --program @console.img {DEMO} --mmio-console 0x100"
                " --data-base 0x200 --result-base 0x280", 1,
                "error: server: ValueError: image segment [0x100, 0x101) overlaps an unblindable range",
            ),
        ],
    )
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, command, code, line):
        assert run_cli(tmp_path, command) == code
        captured = capsys.readouterr()
        assert captured.err == line.replace("@", f"{tmp_path}/") + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, line",
        [
            ("run @halt.img --max-steps 0", "error: max_steps must be positive"),
            ("check @halt.img --steps 0", "error: --steps must be positive"),
            (f"check @halt.img {SMALL} --trials 0 --steps 0", "error: --steps must be positive"),
            (f"check @halt.img {SMALL} --trials 0 --steps -1", "error: --steps must be positive"),
            (f"demo-protocol @pt.txt {DEMO} --max-steps 0", "error: max_steps must be positive"),
            (
                f"demo-protocol @pt.txt {DEMO} --max-steps 0 --transport socket",
                "error: max_steps must be positive",
            ),
        ],
        ids=["run", "check", "check-no-trials", "check-no-trials-negative", "demo-memory", "demo-socket"],
    )
    def test_a_step_budget_below_one_is_a_usage_error(self, tmp_path, capsys, command, line):
        assert run_cli(tmp_path, command) == 2
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""

    # A word takes the range `.word` takes, -2**63 to 2**64 - 1; past it
    # the CLI used to wrap the value to 64 bits and run on.
    @pytest.mark.parametrize(
        "command, value",
        [
            (f"demo-protocol @wide.txt {DEMO}", 2**64 + 1),
            (f"demo-protocol @pt3.txt --dual @wide.txt {DEMO}", 2**64 + 1),
            (f"run @halt.img {SMALL} --blind-word 40=0x1ffffffffffffffff", 2**65 - 1),
            (f"run @halt.img {SMALL} --blind-word 40=-0x8000000000000001", -(2**63) - 1),
        ],
        ids=["plaintext", "dual-plaintext", "blind-word", "blind-word-negative"],
    )
    def test_a_word_outside_64_bits_is_a_usage_error(self, tmp_path, capsys, command, value):
        assert run_cli(tmp_path, command) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: value out of 64-bit range: {value}\n"
        assert captured.out == ""

    def test_a_word_at_the_edges_of_64_bits_is_taken(self, tmp_path, capsys):
        assert run_cli(tmp_path, f"demo-protocol @edges.txt {DEMO}") == 0
        assert capsys.readouterr().out == f"result: 0 {2**63 + 1} 0\n"
        assert run_cli(tmp_path, f"run @halt.img {SMALL} --blind-word 40=-1") == 0
        assert f"{2**64 - 1:#x}" in capsys.readouterr().out

    # The client's seed is SEED + 1, so 2**256 - 1 is out of range too.
    @pytest.mark.parametrize("transport", ["memory", "socket"])
    @pytest.mark.parametrize("seed", [-1, 2**256 - 1], ids=["negative", "2**256-1"])
    def test_a_seed_outside_256_bits_is_a_usage_error(self, tmp_path, capsys, seed, transport):
        assert run_cli(tmp_path, f"demo-protocol @pt.txt {DEMO} --seed {seed} --transport {transport}") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be in [0, 2**256)\n"
        assert captured.out == ""

    # A base is refused before any session starts unless its region of
    # len(plaintext) words fits the machine: a negative base used to end
    # in a struct.error traceback and one past 64 bits in an AssemblyError.
    @pytest.mark.parametrize("flag", ["--data-base", "--result-base"])
    @pytest.mark.parametrize("base", [-1, 1023, 2**70], ids=["negative", "last-word", "2**70"])
    def test_a_base_whose_region_leaves_memory_is_a_usage_error(self, tmp_path, capsys, flag, base):
        trace = tmp_path / "demo.trace"
        assert run_cli(tmp_path, f"demo-protocol @pt.txt {DEMO} {flag} {base} --trace {trace}") == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} region [{base:#x}, {base + 2:#x}) does not fit memory of 0x400 words\n"
        )
        assert captured.out == ""
        assert not trace.exists()

    def test_zero_trials_runs_only_the_static_analysis(self, tmp_path, capsys):
        assert run_cli(tmp_path, f"check @halt.img {SMALL} --trials 0") == 0
        captured = capsys.readouterr()
        assert "verdict: compliant" in captured.out and "non-interference" not in captured.out
        assert captured.err == ""

    def test_check_takes_no_step_budget(self, tmp_path, capsys):
        # check runs no program to a budget; its trials take --steps.
        assert run_cli(tmp_path, f"check @halt.img {SMALL} --max-steps 5") == 2
        assert capsys.readouterr().out == ""

    def test_a_negative_trial_count_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, f"check @halt.img {SMALL} --trials -3 --steps -1") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trials must not be negative\n"
        assert captured.out == ""

    @pytest.mark.parametrize("trials", ["0", "25"])
    def test_an_image_too_large_for_the_machine_is_a_usage_error(self, tmp_path, capsys, trials):
        # The static analysis alone would call it compliant: its entry
        # segment does not fit, so the analysis sees a halt at address 100.
        (tmp_path / "far.img").write_bytes(encode_image(assemble(".entry 100\n.org 100\nhalt\n")))
        assert run_cli(tmp_path, f"check @far.img {SMALL} --trials {trials}") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: segment [0x64, 0x65) exceeds memory of 0x40 words\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "dual",
        ["missing.txt", "words.txt", "arabic.txt", "pt3.txt"],
        ids=["missing", "bad-word", "non-ascii-word", "other-length"],
    )
    def test_dual_inputs_are_checked_before_any_session(self, tmp_path, capsys, dual):
        trace = tmp_path / "demo.trace"
        assert run_cli(tmp_path, f"demo-protocol @pt.txt --dual @{dual} {DEMO} --trace {trace}") == 2
        assert capsys.readouterr().out == ""
        assert not trace.exists()


# Unblinds the first imported word (0x100), loads it and branches on it.
BRANCHES_ON_IMPORT = """
.entry start
.word pool
start:
    load r1, r0
    load r2, r1
    add r3, r1, r2
    load r4, r3
    add r3, r3, r2
    load r5, r3
    rblnd r4
    load r6, r4
    bz r6, r5
    halt
target:
    halt
pool:
    .word 1
    .word 0x100
    .word target
"""

# Stores r1 + r1: under a semantics whose add drops the taint, the stored
# word differs between the two sides when r1 is blinded.
STORES_R1_TWICE = "add r2, r1, r1\nstore r12, r2\nhalt\n"


class TestCheckSignature:
    """The lockstep check varies exactly the signature's blinded and TOP
    registers, shown against a semantics whose add drops the taint."""

    @pytest.fixture
    def leaky(self, work, monkeypatch, capsys):
        monkeypatch.setattr(
            checker, "check_noninterference",
            functools.partial(checker.check_noninterference, semantics=mutants.add_drops_taint),
        )
        tmp, write = work
        img = assembled(write, tmp, STORES_R1_TWICE)
        capsys.readouterr()
        return [img, "--mem-words", "64", "--cache-lines", "8"]

    def test_a_failing_check_prints_its_counterexample(self, leaky, capsys):
        assert main(["check", *leaky, "--sig", "r1=B", "--trials", "20"]) == 1
        assert capsys.readouterr().out == (
            "verdict: compliant\n"
            "non-interference: FAIL at trial 0 step 0: successor states not equivalent "
            "(minimized to 1 differing word(s))\n"
        )

    def test_blinded_signature_registers_vary_in_the_lockstep(self, leaky, capsys):
        assert main(["check", *leaky, "--sig", "r1=B"]) == 1
        assert "non-interference: FAIL at trial 0 step 0" in capsys.readouterr().out
        assert main(["check", *leaky, "--sig", "r1=T"]) == 1
        assert "non-interference: FAIL at trial 0 step 0" in capsys.readouterr().out

    def test_clear_signature_registers_stay_fixed(self, leaky, capsys):
        assert main(["check", *leaky, "--sig", "r1=C"]) == 0
        assert "non-interference: pass (200 trials)" in capsys.readouterr().out
