"""Command-line behavior: outputs, parameter files, traces, exit codes."""

import contextlib
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import rnsbarrett
from rnsbarrett import cli, dump_params, load_params, select_context
from rnsbarrett.cli import main
from rnsbarrett.paramfile import loads
from rnsbarrett.selection import MAX_WORD_BITS


# 4516 decimal digits, past the default limit of str() on integers.
HUGE_HEX = hex((1 << 15000) - 1)

needs_str_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="this interpreter renders integers of any length",
)


def bundled_params_path():
    return str(resources.files("rnsbarrett").joinpath("data/example4.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModmul:
    def test_basic_product(self, capsys):
        code, out, _ = run(capsys, "modmul", "--modulus", "21", "20", "19")
        assert code == 0
        assert out.strip() == "2"

    def test_raw_with_bundled_params(self, capsys):
        code, out, _ = run(
            capsys, "modmul", "--modulus", "21", "20", "19",
            "--raw", "--params", bundled_params_path(),
        )
        assert code == 0
        assert out.strip() == "23"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "modmul", "--modulus", "5", "0", "3")
        assert code == 0
        assert out.strip() == "0"

    def test_hex_inputs(self, capsys):
        code, out, _ = run(capsys, "modmul", "--modulus", "0x15", "0x14", "19")
        assert code == 0
        assert out.strip() == "2"

    def test_trace_matches_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "modmul", "--modulus", "21", "20", "19",
            "--raw", "--trace", "--params", bundled_params_path(),
        )
        assert code == 0
        assert out.splitlines() == [
            "Step1  mu = (2 1 5 4)",
            "Step2  X = (0 0 2 6)",
            "Step3a D = (* * 5 8)",
            "Step3b D = (3 4 5 8)",
            "Step4  E = (2 4 4 10)",
            "Step5a Q = (* 2 * 6)",
            "Step5b Q = (1 2 3 6)",
            "Step6  C = (3 3 2 1)",
            "23",
        ]

    def test_case2_selection(self, capsys):
        code, out, _ = run(capsys, "modmul", "--modulus", "21", "--case", "2", "50", "62")
        assert code == 0
        assert out.strip() == str(50 * 62 % 21)


class TestModexp:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "modexp", "--modulus", "21", "20", "13")
        assert code == 0
        assert out.strip() == "20"

    def test_zero_exponent(self, capsys):
        code, out, _ = run(capsys, "modexp", "--modulus", "21", "2", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_square(self, capsys):
        code, out, _ = run(capsys, "modexp", "--modulus", "21", "20", "2")
        assert code == 0
        assert out.strip() == "1"

    def test_large_values(self, capsys):
        n = (1 << 61) - 1
        code, out, _ = run(
            capsys, "modexp", "--modulus", str(n), "1234567890123", "987654321",
        )
        assert code == 0
        assert out.strip() == str(pow(1234567890123, 987654321, n))

    def test_512_bit_modulus_64_bit_exponent(self, capsys):
        rng = random.Random(512)
        n = rng.getrandbits(512) | 1 << 511 | 1
        x = rng.randrange(n)
        e = rng.getrandbits(64) | 1 << 63
        code, out, _ = run(capsys, "modexp", "--modulus", str(n), str(x), str(e))
        assert code == 0
        assert out.strip() == str(pow(x, e, n))


class TestParams:
    def test_writes_file_and_checklist(self, capsys, tmp_path):
        out_file = tmp_path / "n21.params"
        code, out, _ = run(
            capsys, "params", "--modulus", "21", "--case", "1",
            "--word-bits", "4", "--out", str(out_file),
        )
        assert code == 0
        assert out.count("[ok]") == 5
        assert "[FAIL]" not in out
        assert out_file.exists()
        ctx = load_params(out_file)
        assert ctx.params.modulus == 21

    def test_written_file_feeds_modmul(self, capsys, tmp_path):
        out_file = tmp_path / "n97.params"
        code, _, _ = run(
            capsys, "params", "--modulus", "97", "--case", "1",
            "--word-bits", "8", "--out", str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "modmul", "--modulus", "97", "90", "91",
            "--params", str(out_file),
        )
        assert code == 0
        assert out.strip() == str(90 * 91 % 97)

    def test_stdout_document_when_no_out(self, capsys):
        code, out, _ = run(capsys, "params", "--modulus", "21", "--word-bits", "4")
        assert code == 0
        assert "moduli:" in out and "case: 1" in out

    def test_unwritable_out_is_exit_1(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.params"
        code, out, err = run(capsys, "params", "--modulus", "97", "--out", str(out_file))
        assert code == 1
        assert "conditions:" in out
        assert err.startswith(f"error: cannot write {out_file}: ")
        assert not out_file.exists()

    def test_round_trip_equals_context(self):
        ctx = select_context(97, 2, 8)
        assert loads(dump_params(ctx)) == ctx


class TestExitCodes:
    def test_modulus_too_small(self, capsys):
        code, _, err = run(capsys, "modmul", "--modulus", "1", "0", "0")
        assert code == 1
        assert "error" in err

    def test_params_modulus_too_small(self, capsys):
        code, _, err = run(capsys, "params", "--modulus", "1")
        assert code == 1

    def test_unparsable_number(self, capsys):
        code, _, err = run(capsys, "modmul", "--modulus", "21", "twenty", "19")
        assert code == 1

    def test_malformed_operand_is_shortened_past_40_characters(self, capsys):
        code, _, err = run(capsys, "modmul", "--modulus", "21", "x" * 40, "19")
        assert (code, err) == (1, f"error: not a number: {'x' * 40!r}\n")
        code, _, err = run(capsys, "modmul", "--modulus", "21", "x" * 41, "19")
        assert (code, err) == (1, f"error: not a number: {'x' * 12!r}...\n")
        code, _, err = run(capsys, "modmul", "--modulus", "21", "1" * 2999 + "x", "1")
        assert code == 1
        assert len(err.encode()) < 100 and err.count("\n") == 1

    def test_operand_out_of_range(self, capsys):
        code, _, err = run(capsys, "modmul", "--modulus", "21", "21", "3")
        assert code == 1
        assert "not in [0, 21)" in err

    def test_params_word_bits_out_of_range(self, capsys):
        for bits in (3, MAX_WORD_BITS + 1):
            code, _, err = run(
                capsys, "params", "--modulus", "21", "--word-bits", str(bits),
            )
            assert code == 1
            assert f"[4, {MAX_WORD_BITS}]" in err

    def test_selection_failure_is_exit_2(self, capsys):
        # 4-bit candidates cannot satisfy case 4 around 21
        code, _, err = run(
            capsys, "params", "--modulus", "21", "--case", "4", "--word-bits", "4",
        )
        assert code == 2

    @pytest.mark.parametrize("moduli", ["4, 6, 7, 11", "1, 5, 7, 11"])
    def test_unusable_moduli_from_file_are_exit_2(self, capsys, tmp_path, moduli):
        bad = tmp_path / "bad.params"
        bad.write_text(
            f"moduli: {moduli}\nN: 21\ng_indices: 1, 2\nh_indices: 1, 3\ncase: 1\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "modmul", "--modulus", "21", "20", "19", "--params", str(bad),
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_condition_failure_from_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_text(
            "moduli: 4, 5, 7\nN: 21\ng_indices: 1, 2\nh_indices: 1, 3\ncase: 1\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "modmul", "--modulus", "21", "20", "19", "--params", str(bad),
        )
        assert code == 2
        assert "capacity" in err

    def test_malformed_file_is_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.params"
        bad.write_text("moduli 4 5\n", encoding="utf-8")
        code, _, _ = run(
            capsys, "modmul", "--modulus", "21", "20", "19", "--params", str(bad),
        )
        assert code == 1

    def test_modulus_file_mismatch(self, capsys):
        code, _, err = run(
            capsys, "modmul", "--modulus", "23", "2", "3",
            "--params", bundled_params_path(),
        )
        assert code == 1
        assert "disagrees" in err

    def test_case_file_mismatch(self, capsys):
        code, _, err = run(
            capsys, "modmul", "--modulus", "21", "2", "3", "--case", "2",
            "--params", bundled_params_path(),
        )
        assert code == 1

    def test_missing_operand(self, capsys):
        code, _, _ = run(capsys, "modmul", "--modulus", "21", "20")
        assert code == 1

    def test_negative_exponent(self, capsys):
        code, _, _ = run(capsys, "modexp", "--modulus", "21", "2", "-3")
        assert code == 1

    def test_closed_stdout_is_exit_1_without_traceback(self):
        # A reader that quits early, as ``| head -n 1`` does. The pipe is
        # closed before the command writes, so its first write fails.
        n = random.Random(2048).getrandbits(2048) | 1 << 2047 | 1
        src = str(Path(rnsbarrett.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rnsbarrett.cli",
             "params", "--modulus", str(n), "--word-bits", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


# Argument lists whose outputs must not depend on how many commands the
# parser registers: help at both levels, each kind of usage error, and a
# successful call of every command.
PARSER_CASES = {
    "help": ["--help"],
    "h": ["-h"],
    "modmul-help": ["modmul", "--help"],
    "modexp-help": ["modexp", "--help"],
    "params-help": ["params", "--help"],
    "no-arguments": [],
    "unknown-command": ["bogus"],
    "missing-operand": ["modmul", "--modulus", "21", "20"],
    "unknown-option": ["modmul", "--modulus", "21", "--bogus", "20", "19"],
    "bad-case": ["modexp", "--modulus", "21", "--case", "1", "20", "13"],
    "modmul": ["modmul", "--modulus", "21", "20", "19"],
    "modexp": ["modexp", "--modulus", "21", "20", "13"],
    "params": ["params", "--modulus", "21", "--word-bits", "4"],
}


def outcome(capsys, *args):
    """main's return or SystemExit code, with what it printed."""
    try:
        result = ("return", main(*args))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParserBuild:
    @pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES.keys())
    def test_output_matches_every_command_registered(self, capsys, monkeypatch, argv):
        narrowed = outcome(capsys, argv)
        # The console script calls main() with no arguments.
        monkeypatch.setattr(sys, "argv", ["rns-barrett", *argv])
        assert outcome(capsys) == narrowed
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build([]))
        assert outcome(capsys, argv) == narrowed

    @pytest.mark.parametrize("name, built", [
        ("modmul", 2), ("modexp", 2), ("params", 2),
        ("help", 4), ("no-arguments", 4), ("unknown-command", 4),
    ])
    def test_parsers_built_per_call(self, capsys, monkeypatch, name, built):
        # The top-level parser and one subparser per registered command.
        count = 0
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal count
            count += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        with contextlib.suppress(SystemExit):
            main(PARSER_CASES[name])
        capsys.readouterr()
        assert count == built


@needs_str_limit
class TestIntegersTooLongToPrint:
    def test_huge_operand(self, capsys):
        code, out, err = run(capsys, "modmul", "--modulus", "21", HUGE_HEX, "1")
        assert (code, out) == (1, "")
        assert err == "error: operand A = <15000-bit integer> not in [0, 21)\n"

    def test_huge_base(self, capsys):
        code, out, err = run(capsys, "modexp", "--modulus", "21", HUGE_HEX, "3")
        assert (code, out) == (1, "")
        assert err == "error: base X = <15000-bit integer> not in [0, 63)\n"

    @pytest.mark.parametrize("command", [
        ["modmul", "--modulus", HUGE_HEX, "2", "3"],
        ["modexp", "--modulus", HUGE_HEX, "2", "3"],
        ["params", "--modulus", HUGE_HEX],
    ])
    def test_huge_modulus_refused_up_front(self, capsys, command):
        code, out, err = run(capsys, *command)
        assert (code, out) == (1, "")
        assert err == (
            "error: modulus <15000-bit integer> is too long for its results "
            "to print in decimal\n"
        )

    def test_longest_printable_modulus(self, capsys):
        # Results below 3*N print exactly while 3*N has at most the limit's
        # number of digits.
        n = (10 ** sys.get_int_max_str_digits() - 1) // 3
        code, out, _ = run(capsys, "modmul", "--modulus", hex(n), "2", "3")
        assert (code, out) == (0, "6\n")
        code, out, err = run(capsys, "modmul", "--modulus", hex(n + 1), "2", "3")
        assert (code, out) == (1, "")
        assert "too long" in err

    def test_decimal_operand_past_the_parse_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "modmul", "--modulus", "21", "1" * (limit + 100), "1")
        assert (code, out) == (1, "")
        assert err == (
            f"error: decimal number '111111111111'... is too long to parse "
            f"({limit + 100} digits, limit {limit}); write it in 0x hex\n"
        )
        # The same value in hex parses, and is refused only as out of range.
        code, _, err = run(capsys, "modmul", "--modulus", "21", hex(int("1" * 40)), "1")
        assert code == 1 and "not in [0, 21)" in err
