"""End-to-end checks of the command line front end.

Each subcommand runs through cli.main() against a temp directory; the
assertions pin exit codes, printed summaries, artifact formats, and the
manifest/replay contract.
"""
import argparse
import csv
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ardtk import cli
from ardtk.bits import BitWord
from ardtk.codec import MAX_WORD_BITS
from ardtk.cli import (
    _positive_int,
    build_parser,
    fmt_real,
    main,
    parse_fraction,
    parse_fraction_grid,
    parse_int_grid,
    rat_cells,
    read_pbm,
    read_word,
    write_pbm,
)
from ardtk.denoise import make_noisy_cross
from ardtk.game import GameParams, mark_bound


def write_word(path, word, raw=False):
    """A word file in the form read_word reads: one line of 0/1, or packed."""
    if raw:
        path.write_bytes(word.n.to_bytes(8, "big") + word.to_bytes())
    else:
        path.write_text(word.to01() + "\n")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def word96(tmp_path):
    word = BitWord.random(random.Random(5), 96)
    path = tmp_path / "word.bits"
    write_word(path, word)
    return word, path


class TestFileFormats:
    def test_word_ascii_roundtrip(self, tmp_path):
        word = BitWord.random(random.Random(1), 100)
        path = tmp_path / "w.bits"
        write_word(path, word)
        assert read_word(path) == word
        # line breaks are whitespace
        s = word.to01()
        path.write_text(s[:64] + "\n" + s[64:] + "\n")
        assert read_word(path) == word

    def test_word_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "w.bits"
        path.write_text("# header\n10 10\n  01\n")
        assert read_word(path) == BitWord.from_str("101001")

    def test_word_raw_roundtrip(self, tmp_path):
        word = BitWord.random(random.Random(2), 77)
        path = tmp_path / "w.raw"
        write_word(path, word, raw=True)
        assert read_word(path, raw=True) == word
        assert path.read_bytes()[:8] == (77).to_bytes(8, "big")

    def test_word_raw_truncated(self, tmp_path):
        path = tmp_path / "w.raw"
        path.write_bytes(b"\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_word(path, raw=True)

    def test_word_empty_file(self, tmp_path):
        path = tmp_path / "w.bits"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no bits"):
            read_word(path)

    def test_pbm_p1_roundtrip(self, tmp_path):
        word = BitWord.random(random.Random(3), 16 * 8)
        path = tmp_path / "img.pbm"
        write_pbm(path, word, 16)
        back, w, h = read_pbm(path)
        assert (back, w, h) == (word, 16, 8)

    def test_pbm_p4_matches_p1(self, tmp_path):
        raster = b"".join(
            (0xAAAA if r % 2 == 0 else 0x5555).to_bytes(2, "big")
            for r in range(16)
        )
        p4 = tmp_path / "img4.pbm"
        p4.write_bytes(b"P4\n# comment\n16 16\n" + raster)
        word, w, h = read_pbm(p4)
        assert (w, h, word.weight()) == (16, 16, 128)
        p1 = tmp_path / "img1.pbm"
        write_pbm(p1, word, 16)
        assert read_pbm(p1)[0] == word

    @pytest.mark.parametrize("width", [1, 5, 9, 33])
    def test_pbm_p4_padding_bits_dropped(self, tmp_path, width):
        # a P4 row is padded to whole bytes; here every padding bit is set
        rng = random.Random(width)
        height, rowbytes = 7, (width + 7) // 8
        pad = 8 * rowbytes - width
        rows = [format(rng.getrandbits(width), f"0{width}b") for _ in range(height)]
        p4 = tmp_path / "img4.pbm"
        p4.write_bytes(f"P4\n{width} {height}\n".encode() + b"".join(
            (int(row, 2) << pad | (1 << pad) - 1).to_bytes(rowbytes, "big") for row in rows
        ))
        p1 = tmp_path / "img1.pbm"
        p1.write_text(f"P1\n{width} {height}\n" + "\n".join(" ".join(row) for row in rows))
        expected = (BitWord.from_str("".join(rows)), width, height)
        assert read_pbm(p4) == read_pbm(p1) == expected

    def test_large_unaligned_pbm_matches_row_shift_reference(self, tmp_path):
        width, height = 1021, 1000
        rowbytes = (width + 7) // 8
        pad = 8 * rowbytes - width
        rng = random.Random(28)
        # every padding bit set
        raster = b"".join(
            (rng.getrandbits(width) << pad | (1 << pad) - 1).to_bytes(rowbytes, "big")
            for _ in range(height)
        )
        # the reference: one shift of the growing value per row
        value = 0
        for r in range(height):
            chunk = raster[r * rowbytes : (r + 1) * rowbytes]
            value = value << width | int.from_bytes(chunk, "big") >> pad
        want = BitWord(width * height, value)
        p4 = tmp_path / "img4.pbm"
        p4.write_bytes(f"P4\n{width} {height}\n".encode() + raster)
        assert read_pbm(p4) == (want, width, height)
        digits = want.to01()
        p1 = tmp_path / "img1.pbm"
        p1.write_text(f"P1\n# a comment\n{width} {height}\n" + "\n".join(
            " ".join(digits[r * width : (r + 1) * width]) for r in range(height)
        ))
        assert read_pbm(p1) == (want, width, height)
        back = tmp_path / "back.pbm"
        write_pbm(back, want, width)
        assert read_pbm(back) == (want, width, height)

    def test_pbm_p1_comment_in_raster_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_bytes(b"P1\n3 2\n1 0 # 0 x\r1\n0\t1 1 trailing x")
        assert read_pbm(path) == (BitWord.from_str("101011"), 3, 2)
        path.write_bytes(b"P1\n3 2\n1 0 1\n0 x 1 1")
        with pytest.raises(ValueError, match="stray byte b'x'"):
            read_pbm(path)

    @pytest.mark.parametrize("magic", [b"P1", b"P4"])
    def test_pbm_over_max_word_bits_refused_from_header(self, tmp_path, magic):
        path = tmp_path / "big.pbm"
        for width, height in ((4097, 4096), (1 << 40, 1 << 40)):
            assert width * height > MAX_WORD_BITS
            path.write_bytes(magic + f"\n{width} {height}\n".encode())
            with pytest.raises(ValueError, match="exceeds MAX_WORD_BITS"):
                read_pbm(path)

    @pytest.mark.parametrize("magic", [b"P1", b"P4"])
    def test_pbm_over_max_word_bits_refused_before_raster_is_read(
        self, tmp_path, monkeypatch, magic
    ):
        header = magic + b"\n# 25,000,000 pixels\n5000 5000\n"
        path = tmp_path / "big.pbm"
        path.write_bytes(header + b"\xff" * (1 << 20))
        delivered = []

        class Spy:
            """The file read_pbm opens, counting the bytes it hands out."""

            def __init__(self, *args):
                self.fh = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def read(self, size=-1):
                data = self.fh.read(size)
                delivered.append(len(data))
                return data

        monkeypatch.setattr(cli, "open", Spy, raising=False)
        with pytest.raises(ValueError, match="exceeds MAX_WORD_BITS"):
            read_pbm(path)
        assert sum(delivered) == len(header)

    def test_pbm_at_max_word_bits_is_read(self, tmp_path):
        path = tmp_path / "max.pbm"
        path.write_bytes(b"P4\n4096 4096\n" + b"\xff" * (MAX_WORD_BITS // 8))
        assert read_pbm(path) == (BitWord(MAX_WORD_BITS, (1 << MAX_WORD_BITS) - 1), 4096, 4096)

    def test_word_over_max_word_bits_refused(self, tmp_path):
        path = tmp_path / "big.raw"
        for n in (MAX_WORD_BITS + 1, (1 << 64) - 1):
            path.write_bytes(n.to_bytes(8, "big"))
            with pytest.raises(ValueError, match="exceeds MAX_WORD_BITS"):
                read_word(path, raw=True)
        path = tmp_path / "big.bits"
        path.write_text("# over the limit by one digit\n" + "1" * (MAX_WORD_BITS + 1))
        with pytest.raises(ValueError, match="exceeds MAX_WORD_BITS"):
            read_word(path)

    def test_pbm_rejects_other_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n3\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P1 or P4"):
            read_pbm(path)

    def test_pbm_truncated_raster(self, tmp_path):
        path = tmp_path / "img.pbm"
        path.write_bytes(b"P4\n16 16\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pbm(path)

    def test_pbm_width_must_divide(self):
        with pytest.raises(ValueError, match="width"):
            write_pbm("unused.pbm", BitWord.zeros(10), 4)

    def test_p1_long_rows_wrap(self, tmp_path):
        path = tmp_path / "wide.pbm"
        write_pbm(path, BitWord(200, (1 << 200) - 1), 100)
        assert max(len(ln) for ln in path.read_text().splitlines()) <= 70
        assert read_pbm(path)[0] == BitWord(200, (1 << 200) - 1)


class TestParsing:
    def test_int_grid(self):
        assert parse_int_grid("3, 5,9", 9) == [3, 5, 9]
        assert parse_int_grid("0:8:4,10", 10) == [0, 4, 8, 10]
        assert parse_int_grid("2:4", 16) == [2, 3, 4]

    def test_int_grid_errors(self):
        with pytest.raises(ValueError):
            parse_int_grid("1:10:0", 16)
        with pytest.raises(ValueError):
            parse_int_grid(" , ", 16)
        with pytest.raises(ValueError):
            parse_int_grid("1:2:3:4", 16)

    def test_int_grid_bounds_come_before_expansion(self):
        for text in ("17", "-1", "0:17", "-1:4", "0:1000000000000", "0:16:1,3:1000000000000"):
            with pytest.raises(ValueError, match="outside 0..16"):
                parse_int_grid(text, 16)
        assert parse_int_grid("16:0,16", 16) == [16]

    def test_fraction_grid(self):
        assert parse_fraction_grid("0,1/8,0.25") == [
            Fraction(0),
            Fraction(1, 8),
            Fraction(1, 4),
        ]

    def test_fraction_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            parse_fraction("3/0")

    def test_formatting(self):
        assert fmt_real(1 / 3) == "0.333333333333"
        assert rat_cells(Fraction(3, 16)) == ("3", "16")
        assert rat_cells(7) == ("7", "1")
        assert rat_cells(float("inf")) == ("inf", "")


class TestCodecCommand:
    def test_roundtrip_prints_codelength(self, tmp_path, word96, capsys):
        word, path = word96
        out = tmp_path / "run"
        assert main(["codec", "roundtrip", "--input", str(path),
                     "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.isdigit() and int(printed) > 0

    def test_manifest_records_input_hash(self, tmp_path, word96):
        _, path = word96
        out = tmp_path / "run"
        main(["codec", "roundtrip", "--input", str(path), "--out-dir", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["subcommand"] == "codec"
        assert doc["tool"] == "ardtk"
        assert str(path) in doc["inputs"]
        assert len(doc["inputs"][str(path)]) == 64
        assert doc["slack"]["conditional_clamp_bits"] == 16

    def test_raw_input(self, tmp_path, capsys):
        word = BitWord.random(random.Random(8), 64)
        path = tmp_path / "w.raw"
        write_word(path, word, raw=True)
        assert main(["codec", "roundtrip", "--input", str(path), "--raw",
                     "--out-dir", str(tmp_path / "run")]) == 0

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        code = main(["codec", "roundtrip", "--input",
                     str(tmp_path / "nope.bits"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCurveCommand:
    def test_rate_axis_corner_mode(self, tmp_path, word96, capsys):
        _, path = word96
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--budget", "64",
                     "--seed", "3", "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["axis_value", "bits", "distortion_num",
                          "distortion_den", "candidate_hash"]
        dists = [Fraction(int(r[2]), int(r[3])) for r in rows]
        assert dists == sorted(dists, reverse=True)
        bits = [int(r[1]) for r in rows]
        assert bits == sorted(bits)
        assert all(len(r[4]) == 12 for r in rows)

    def test_distortion_axis_fraction_cells(self, tmp_path):
        word = BitWord.random(random.Random(4), 16)
        path = tmp_path / "w.bits"
        write_word(path, word)
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--axis", "distortion",
                     "--grid", "0,1/8,1/4", "--budget", "32",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "curve.csv")
        assert [r[0] for r in rows] == ["0", "1/8", "1/4"]
        bits = [int(r[1]) for r in rows]
        assert bits == sorted(bits, reverse=True)

    def test_canonical_axis_grid(self, tmp_path):
        word = BitWord.random(random.Random(4), 16)
        path = tmp_path / "w.bits"
        write_word(path, word)
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--axis", "canonical",
                     "--grid", "0:16:4", "--budget", "32", "--seed", "1",
                     "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "curve.csv")
        assert [int(r[0]) for r in rows] == [0, 4, 8, 12, 16]

    def test_list_family_canonical_curve_replays(self, tmp_path, capsys):
        word = BitWord.random(random.Random(7), 256)
        path = tmp_path / "w.bits"
        write_word(path, word)
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--family", "list",
                     "--axis", "canonical", "--budget", "257", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "curve.csv")
        assert [int(r[0]) for r in rows] == list(range(257))
        bits = [int(r[1]) for r in rows]
        assert bits == sorted(bits, reverse=True) and bits[0] > bits[-1]
        capsys.readouterr()
        assert main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")]) == 0
        assert "replay ok" in capsys.readouterr().out

    @pytest.mark.parametrize("axis", ["rate", "canonical"])
    def test_huge_grid_range_fails_at_once(self, tmp_path, capsys, axis):
        path = tmp_path / "w.txt"
        write_word(path, BitWord.random(random.Random(5), 16))
        t0 = time.perf_counter()
        code = main(["curve", "--input", str(path), "--axis", axis,
                     "--grid", "0:1000000000000", "--out-dir", str(tmp_path / "run")])
        assert code == 1 and time.perf_counter() - t0 < 1.0
        assert "error:" in capsys.readouterr().err

    def test_euclid_distortion_axis_default_grid_past_8_bits(self, tmp_path):
        # every admissible radius: 0 and 2^-(n+1) .. 1/2, n + 2 rows
        path = tmp_path / "w.txt"
        write_word(path, BitWord.random(random.Random(6), 10))
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--family", "euclid",
                     "--axis", "distortion", "--budget", "16", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "curve.csv")
        assert len(rows) == 12
        assert [r[0] for r in rows] == ["0"] + [f"1/{1 << j}" for j in range(11, 0, -1)]

    def test_infeasible_rate_rows_have_blank_cells(self, tmp_path):
        word = BitWord.random(random.Random(6), 64)
        path = tmp_path / "w.bits"
        write_word(path, word)
        out = tmp_path / "run"
        assert main(["curve", "--input", str(path), "--grid", "1,2",
                     "--budget", "16", "--seed", "0",
                     "--out-dir", str(out)]) == 0
        _, rows = read_csv(out / "curve.csv")
        assert rows[0][2] == "inf" and rows[0][3] == "" and rows[0][4] == ""


class TestGameCommand:
    def test_pinned_example_wins(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["game", "--k", "6", "--m", "2", "--n", "4",
                     "--adversary", "random", "--seed", "7",
                     "--out-dir", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith("win true")
        doc = json.loads((out / "transcript.json").read_text())
        assert doc["win"] is True
        assert doc["verified"] is True
        assert doc["seed"] == 7
        assert doc["mark_bound"] == mark_bound(GameParams(n=4, k=6, m=2))
        assert doc["total_marks"] == sum(len(m["marks"]) for m in doc["moves"])
        assert doc["total_marks"] <= doc["mark_bound"]
        for move in doc["moves"]:
            assert move["set_size"] == len(move["set"])
            assert all(len(w) == 4 for w in move["set"])

    def test_probabilistic_strategy(self, tmp_path):
        out = tmp_path / "run"
        assert main(["game", "--k", "5", "--m", "1", "--n", "3",
                     "--strategy", "prob", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "transcript.json").read_text())
        assert doc["strategy"] == "prob"
        assert isinstance(doc["mark_bound"], float)

    def test_adversary_file(self, tmp_path):
        adv = tmp_path / "adv.txt"
        adv.write_text("# two sets\n0101 1100\n0101,0011\n")
        out = tmp_path / "run"
        assert main(["game", "--k", "3", "--m", "1", "--n", "4",
                     "--adversary", "file", "--adversary-file", str(adv),
                     "--seed", "0", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "transcript.json").read_text())
        assert len(doc["moves"]) == 2
        assert doc["moves"][0]["set_size"] == 2

    def test_adversary_file_blank_lines_are_empty_sets(self, tmp_path):
        adv = tmp_path / "adv.txt"
        adv.write_text("# comment\n0101 1100\n\n   \n# another\n0011\n\n")
        out = tmp_path / "run"
        assert main(["game", "--k", "3", "--m", "1", "--n", "4",
                     "--adversary", "file", "--adversary-file", str(adv),
                     "--seed", "0", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "transcript.json").read_text())
        assert [m["set_size"] for m in doc["moves"]] == [2, 0, 0, 1, 0]

    def test_adversary_file_bad_width(self, tmp_path, capsys):
        adv = tmp_path / "adv.txt"
        adv.write_text("010\n")
        code = main(["game", "--k", "3", "--m", "1", "--n", "4",
                     "--adversary", "file", "--adversary-file", str(adv),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "length 3" in capsys.readouterr().err

    def test_adversary_file_bad_token_names_line(self, tmp_path, capsys):
        adv = tmp_path / "adv.txt"
        adv.write_text("0101\n\n01x1 0011\n")
        code = main(["game", "--k", "3", "--m", "1", "--n", "4",
                     "--adversary", "file", "--adversary-file", str(adv),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {adv}:3: bit string may contain only 0 and 1\n")

    def test_oversized_n_fails_before_playing(self, tmp_path, capsys):
        t0 = time.perf_counter()
        code = main(["game", "--k", "20", "--m", "1", "--n", "17",
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1 and time.perf_counter() - t0 < 1.0
        assert "n <= 16" in capsys.readouterr().err

    def test_huge_generated_stream_fails_before_playing(self, tmp_path, capsys):
        t0 = time.perf_counter()
        code = main(["game", "--n", "3", "--k", "40", "--m", "1",
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1 and time.perf_counter() - t0 < 1.0
        assert "error:" in capsys.readouterr().err

    def test_file_mode_requires_path(self, tmp_path):
        assert main(["game", "--k", "3", "--m", "1", "--n", "4",
                     "--adversary", "file",
                     "--out-dir", str(tmp_path / "run")]) == 1


@pytest.fixture(scope="module")
def denoise_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("denoise")
    clean, noisy = make_noisy_cross(16, Fraction(1, 16), 3)
    write_pbm(base / "noisy.pbm", noisy, 16)
    write_pbm(base / "clean.pbm", clean, 16)
    out = base / "run"
    code = main(["denoise", "--input", str(base / "noisy.pbm"),
                 "--clean", str(base / "clean.pbm"),
                 "--budget", "64", "--seed", "1", "--out-dir", str(out)])
    return code, out


class TestDenoiseCommand:
    def test_exit_and_artifacts(self, denoise_run):
        code, out = denoise_run
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"denoised.pbm", "curve.csv", "clean_curve.csv",
                         "diagnostics.json", "plot.gp", "manifest.json"}

    def test_denoised_image_dimensions(self, denoise_run):
        _, out = denoise_run
        word, w, h = read_pbm(out / "denoised.pbm")
        assert (w, h, word.n) == (16, 16, 256)

    def test_diagnostics_shape(self, denoise_run):
        _, out = denoise_run
        doc = json.loads((out / "diagnostics.json").read_text())
        assert doc["bits"] == 256
        assert doc["knee"]["rate"] > 0
        assert set(doc["residual"]) == {"weight", "fraction", "codelength",
                                        "floor_bits", "typical", "deficiency"}
        assert doc["clean"]["denoised_hamming"] >= 0
        num, den = doc["residual"]["fraction"].split("/")
        assert Fraction(int(num), int(den)) == Fraction(doc["residual"]["weight"], 256)

    def test_curves_parse(self, denoise_run):
        _, out = denoise_run
        header, rows = read_csv(out / "curve.csv")
        assert header == ["rate", "distortion_num", "distortion_den",
                          "candidate_hash"]
        assert len(rows) >= 1
        header, rows = read_csv(out / "clean_curve.csv")
        assert header == ["rate", "distance_num", "distance_den"]

    def test_plot_script_references_both_curves(self, denoise_run):
        _, out = denoise_run
        text = (out / "plot.gp").read_text()
        assert '"curve.csv"' in text and '"clean_curve.csv"' in text
        assert "set output" in text

    def test_clean_dimension_mismatch(self, tmp_path):
        clean, noisy = make_noisy_cross(16, Fraction(1, 16), 3)
        write_pbm(tmp_path / "noisy.pbm", noisy, 16)
        write_pbm(tmp_path / "clean.pbm", clean, 32)  # 32x8, wrong shape
        code = main(["denoise", "--input", str(tmp_path / "noisy.pbm"),
                     "--clean", str(tmp_path / "clean.pbm"),
                     "--budget", "32", "--out-dir", str(tmp_path / "run")])
        assert code == 1


class TestCoverCommand:
    def test_ball_cover_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["cover", "ball", "--n", "8", "--delta", "1/4",
                     "--d", "1/8", "--seed", "2", "--out-dir", str(out)]) == 0
        assert "verified true" in capsys.readouterr().out
        doc = json.loads((out / "cover.json").read_text())
        assert doc["verified"] is True
        centers = (out / "centers.bits").read_text().splitlines()
        assert len(centers) == doc["centers"]
        assert all(len(c) == 8 and set(c) <= {"0", "1"} for c in centers)
        header, rows = read_csv(out / "cover.csv")
        assert header[:2] == ["shell_delta_num", "shell_delta_den"]
        assert all(r[-1] == "true" for r in rows)
        assert all(int(r[-2]) == doc["size_bound"] for r in rows)

    def test_space_cover(self, tmp_path):
        out = tmp_path / "run"
        assert main(["cover", "space", "--n", "8", "--d", "1/4",
                     "--seed", "2", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "cover.json").read_text())
        assert doc["mode"] == "space" and doc["delta"] == "1/2"

    def test_space_rejects_delta(self, tmp_path):
        assert main(["cover", "space", "--n", "8", "--d", "1/4",
                     "--delta", "1/4", "--out-dir", str(tmp_path)]) == 1

    def test_ball_too_large_is_domain_error(self, tmp_path, capsys):
        assert main(["cover", "ball", "--n", "32", "--delta", "1/2",
                     "--d", "1/4", "--out-dir", str(tmp_path)]) == 1
        assert "more than" in capsys.readouterr().err

    def test_ball_requires_delta(self, tmp_path):
        assert main(["cover", "ball", "--n", "8", "--d", "1/8",
                     "--out-dir", str(tmp_path)]) == 1

    def test_draw_exponent_is_not_an_option(self, tmp_path, capsys):
        # the per-shell draw budget is n^2, cover.DRAW_EXPONENT = 1
        assert main(["cover", "ball", "--delta", "1/2", "--n", "8", "--d", "1/8",
                     "--draw-exponent", "1", "--out-dir", str(tmp_path)]) == 2
        assert "--draw-exponent" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestShannonCommand:
    def test_rd_table(self, tmp_path):
        out = tmp_path / "run"
        assert main(["shannon", "--p", "1/4", "--delta-grid", "0,1/10,1/5",
                     "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "rd.csv")
        assert header == ["delta_num", "delta_den", "rate", "analytic_rate",
                          "iterations", "gap"]
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row[2]) - float(row[3])) <= 1e-4

    def test_bad_probability(self, tmp_path, capsys):
        assert main(["shannon", "--p", "3/2",
                     "--out-dir", str(tmp_path)]) == 1


class TestCompareCommand:
    def test_report_and_table(self, tmp_path):
        out = tmp_path / "run"
        assert main(["compare", "--n", "6", "--delta-grid", "0,1/2",
                     "--samples", "2", "--budget", "16", "--seed", "4",
                     "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["n"] == 6 and doc["samples"] == 2
        assert len(doc["mean_curve"]) == 2
        assert doc["delta2"] is not None  # exact image entropy fits at n=6
        header, rows = read_csv(out / "compare.csv")
        assert len(rows) == 2
        assert header[0] == "delta_num"
        # rows follow the grid order with exact rationals
        assert [r[0] for r in rows] == ["0", "1"]
        assert [r[1] for r in rows] == ["1", "2"]


class TestShapesCommand:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["shapes", "generate", "--n", "12", "--count", "4",
                     "--seed", "9", "--out-dir", str(out)]) == 0
        header, rows = read_csv(out / "shapes.csv")
        assert header == ["shape", "l", "value"]
        assert len(rows) == 4 * 13
        capsys.readouterr()
        assert main(["shapes", "validate", "--input", str(out / "shapes.csv"),
                     "--out-dir", str(tmp_path / "val")]) == 0
        assert "all ok" in capsys.readouterr().out

    def test_validate_flags_bad_shape(self, tmp_path, capsys):
        out = tmp_path / "gen"
        main(["shapes", "generate", "--n", "6", "--count", "1", "--seed", "0",
              "--out-dir", str(out)])
        path = out / "shapes.csv"
        rows = path.read_text().splitlines()
        rows[1] = "0,0,99"  # g(0) jumps far above g(1)
        path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = main(["shapes", "validate", "--input", str(path),
                     "--out-dir", str(tmp_path / "val")])
        assert code == 1
        assert "bad at" in capsys.readouterr().out

    def test_generate_needs_n(self, tmp_path):
        assert main(["shapes", "generate",
                     "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("rows, n, message", [
        (["0,0,1", "0,1,0", "0,-3,7"], None, "level -3 below 0"),
        (["0,0,1", "0,1,0", "0,1,0"], None, "repeats level 1"),
        (["0,0,1", "0,1,0", "0,1000000000000,0"], "12", "above --n 12"),
    ], ids=["negative", "repeated", "huge"])
    def test_validate_refuses_malformed_table(self, tmp_path, capsys, rows, n, message):
        path = tmp_path / "shapes.csv"
        path.write_text("\n".join(["shape,l,value"] + rows) + "\n")
        argv = ["shapes", "validate", "--input", str(path),
                "--out-dir", str(tmp_path / "val")]
        start = time.perf_counter()
        code = main(argv + (["--n", n] if n else []))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err
        assert "ok" not in out

    def test_validate_skips_blank_lines(self, tmp_path, capsys):
        # an editor's trailing blank line, and one between rows
        path = tmp_path / "shapes.csv"
        path.write_text("shape,l,value\n0,0,1\n\n0,1,0\n\n")
        code = main(["shapes", "validate", "--input", str(path),
                     "--out-dir", str(tmp_path / "val")])
        assert code == 0
        assert "shapes 1 all ok" in capsys.readouterr().out

    @pytest.mark.parametrize("row", ["0,1", "0,x,0", "0,1,0,0", ",,"])
    def test_validate_refuses_row_without_three_integers(self, tmp_path, capsys, row):
        path = tmp_path / "shapes.csv"
        path.write_text(f"shape,l,value\n0,0,1\n\n{row}\n0,1,0\n")
        code = main(["shapes", "validate", "--input", str(path),
                     "--out-dir", str(tmp_path / "val")])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {path}:4: expected three integers")
        assert "ok" not in out

    def test_validate_huge_level_without_n_is_a_gap(self, tmp_path, capsys):
        # no list as long as the level: the first missing level is reported
        path = tmp_path / "shapes.csv"
        path.write_text("shape,l,value\n0,0,1\n0,1,0\n0,1000000000000,0\n")
        start = time.perf_counter()
        code = main(["shapes", "validate", "--input", str(path),
                     "--out-dir", str(tmp_path / "val")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "shape 0 bad at l=2" in capsys.readouterr().out


REPLAY_RUNS = {
    "codec": ["codec", "roundtrip", "--input", "{word}"],
    "curve-rate": ["curve", "--input", "{word}", "--budget", "32"],
    "curve-canonical": ["curve", "--input", "{word}", "--axis", "canonical",
                        "--budget", "32"],
    "curve-distortion": ["curve", "--input", "{word}", "--axis", "distortion",
                         "--budget", "64"],
    "curve-list": ["curve", "--input", "{word}", "--family", "list", "--budget", "48"],
    "curve-euclid": ["curve", "--input", "{word}", "--family", "euclid",
                     "--budget", "64"],
    "denoise": ["denoise", "--input", "{noisy}", "--clean", "{clean}",
                "--budget", "32"],
    "cover-ball": ["cover", "ball", "--n", "10", "--delta", "1/2", "--d", "1/5"],
    "cover-space": ["cover", "space", "--n", "8", "--d", "1/4"],
    "game-random-det": ["game", "--n", "6", "--k", "6", "--m", "2"],
    "game-balls-prob": ["game", "--n", "4", "--k", "5", "--m", "1",
                        "--adversary", "balls", "--strategy", "prob"],
    "game-file": ["game", "--n", "4", "--k", "3", "--m", "1",
                  "--adversary", "file", "--adversary-file", "{sets}"],
    "shannon": ["shannon", "--p", "1/3"],
    "compare": ["compare", "--n", "8", "--samples", "3", "--budget", "64"],
    "shapes": ["shapes", "generate", "--n", "12", "--count", "3"],
}


class TestManifestReplay:
    @pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
    def test_replay_is_byte_identical(self, tmp_path, capsys, name):
        files = {
            "word": tmp_path / "word.bits",
            "noisy": tmp_path / "noisy.pbm",
            "clean": tmp_path / "clean.pbm",
            "sets": tmp_path / "sets.txt",
        }
        write_word(files["word"], BitWord.random(random.Random(40), 40))
        clean, noisy = make_noisy_cross(16, Fraction(1, 10), 0)
        write_pbm(files["clean"], clean, 16)
        write_pbm(files["noisy"], noisy, 16)
        files["sets"].write_text("0000 0001\n0001 0011\n\n0011 1111 0001\n")
        argv = [a.format(**files) for a in REPLAY_RUNS[name]]
        out = tmp_path / "run"
        assert main(argv + ["--seed", "3", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")])
        assert code == 0
        assert "replay ok" in capsys.readouterr().out

    def test_replay_reproduces_curve(self, tmp_path, word96, capsys):
        _, path = word96
        out = tmp_path / "run"
        main(["curve", "--input", str(path), "--budget", "32", "--seed", "3",
              "--out-dir", str(out)])
        capsys.readouterr()
        replay_dir = tmp_path / "again"
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(replay_dir)])
        assert code == 0
        assert "replay ok" in capsys.readouterr().out
        assert (replay_dir / "curve.csv").read_bytes() == (
            out / "curve.csv"
        ).read_bytes()

    def test_replay_default_directory(self, tmp_path, word96):
        _, path = word96
        out = tmp_path / "run"
        main(["codec", "roundtrip", "--input", str(path),
              "--out-dir", str(out)])
        assert main(["replay", str(out / "manifest.json")]) == 0
        assert (out / "replay" / "manifest.json").exists()

    def test_replay_detects_changed_input(self, tmp_path, word96, capsys):
        _, path = word96
        out = tmp_path / "run"
        main(["curve", "--input", str(path), "--budget", "32", "--seed", "3",
              "--out-dir", str(out)])
        write_word(path, BitWord.zeros(96))
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")])
        assert code == 1
        assert "changed since" in capsys.readouterr().err

    def test_replay_detects_output_mismatch(self, tmp_path, word96, capsys):
        _, path = word96
        out = tmp_path / "run"
        main(["curve", "--input", str(path), "--budget", "32", "--seed", "3",
              "--out-dir", str(out)])
        man = out / "manifest.json"
        doc = json.loads(man.read_text())
        doc["outputs"]["curve.csv"] = "0" * 64
        man.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["replay", str(man),
                     "--out-dir", str(tmp_path / "again")])
        assert code == 1
        assert "mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [
        {}, [], "manifest", None,
        {"argv": "codec roundtrip", "seed": 0, "inputs": {}, "outputs": {}},
        {"argv": ["codec", 1], "seed": 0, "inputs": {}, "outputs": {}},
        {"argv": [], "seed": "0", "inputs": {}, "outputs": {}},
        {"argv": [], "seed": 1.5, "inputs": {}, "outputs": {}},
        {"argv": [], "seed": True, "inputs": {}, "outputs": {}},
        {"argv": [], "seed": 0, "outputs": {}},
        {"argv": [], "seed": 0, "inputs": [], "outputs": {}},
        {"argv": [], "seed": 0, "inputs": {}, "outputs": {"curve.csv": 7}},
    ])
    def test_malformed_manifest_is_domain_error(self, tmp_path, capsys, doc):
        man = tmp_path / "manifest.json"
        man.write_text(json.dumps(doc))
        assert main(["replay", str(man), "--out-dir", str(tmp_path / "again")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest" in err
        assert "Traceback" not in err
        assert not (tmp_path / "again").exists()

    def test_replay_uses_recorded_seed_over_env(self, tmp_path, word96,
                                                monkeypatch, capsys):
        _, path = word96
        out = tmp_path / "run"
        monkeypatch.setenv("ARDTK_SEED", "3")
        main(["curve", "--input", str(path), "--budget", "32",
              "--out-dir", str(out)])
        monkeypatch.setenv("ARDTK_SEED", "4")  # must not leak into the rerun
        capsys.readouterr()
        code = main(["replay", str(out / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")])
        assert code == 0
        assert "replay ok" in capsys.readouterr().out


class TestSeedsAndUsage:
    def test_env_seed_recorded(self, tmp_path, word96, monkeypatch):
        _, path = word96
        monkeypatch.setenv("ARDTK_SEED", "41")
        out = tmp_path / "run"
        main(["codec", "roundtrip", "--input", str(path),
              "--out-dir", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["seed"] == 41

    def test_flag_beats_env(self, tmp_path, word96, monkeypatch):
        _, path = word96
        monkeypatch.setenv("ARDTK_SEED", "41")
        out = tmp_path / "run"
        main(["codec", "roundtrip", "--input", str(path), "--seed", "5",
              "--out-dir", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["seed"] == 5

    def test_bad_env_seed(self, tmp_path, word96, monkeypatch, capsys):
        _, path = word96
        monkeypatch.setenv("ARDTK_SEED", "many")
        assert main(["codec", "roundtrip", "--input", str(path),
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert "ARDTK_SEED" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, capsys):
        assert main(["bogus"]) == 2
        assert main(["curve"]) == 2  # --input is required
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_nested_out_dir_created(self, tmp_path, word96):
        _, path = word96
        out = tmp_path / "a" / "b" / "c"
        assert main(["codec", "roundtrip", "--input", str(path),
                     "--out-dir", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ardtk.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ardtk 0.1.0"


def test_every_option_parses_to_a_json_value():
    # write_manifest stores the parsed options as they are, so each one
    # must come out a str, int, float, bool or None
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in [("", parser), *subs.choices.items()]:
        for action in sub._actions:
            if action is subs:
                continue
            where = (name, action.dest)
            assert action.type in (None, int, float, _positive_int), where
            assert action.nargs in (None, 0), where
            default = action.default
            assert default is None or type(default) in (str, int, float, bool), where
