"""Command line front end.

Subcommands expose the library surface: codec roundtrips, per-word
curve estimates, bitmap denoising, ball covers, the online marking
game, the Shannon baseline, ensemble comparison, and staircase shapes.

Every run writes a manifest.json beside its outputs recording the tool
version, the argument vector, the resolved seed, codec parameters,
slack constants, and SHA-256 hashes of every input and output file.
``ardtk replay manifest.json`` reruns the recorded command into a
fresh directory and fails unless the regenerated outputs are
byte-identical.

File conventions:

  words    read only: ASCII '0'/'1', whitespace ignored, '#' lines are
           comments; --raw switches to a packed form (8-byte big-endian
           bit count, then MSB-first packed bytes)
  images   PBM; plain P1 and packed P4 are read, P1 is written
  tables   CSV with a header row; rational columns come as exact
           num/den pairs, other reals carry 12 significant digits

Exit status: 0 on success, 1 on domain errors (bad file contents,
infeasible parameters, failed checks), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .bits import BitWord
from .codec import (
    BWT_BLOCK_BITS,
    CODER_PRECISION,
    CONDITIONAL_CLAMP_BITS,
    _header_bits,
    codelength,
    compress,
    decompress,
)
from .cover import CoverError, cover_ball, cover_space
from .denoise import (
    RESIDUAL_FLOOR_FACTOR,
    best_rate_against,
    curve_against_reference,
    denoise,
)
from .distortion import EUCLID, HAMMING, LIST, DistortionSpec
from .game import (
    ADVERSARIES,
    GameOverflowError,
    GameParams,
    mark_bound,
    play_game,
    probabilistic_mark_cap,
    verify_transcript,
)
from .rdsearch import (
    DEFAULT_SLACK_C,
    MissingGridPointError,
    canonical_estimate,
    distortion_rate_curve,
    shape_generate,
    shape_validate,
    transform_rate_distortion,
)
from .shannon import (
    BAConvergenceError,
    DEFAULT_DELTA1_SLACK,
    SourceModel,
    analytic_binary_hamming,
    blahut_arimoto,
    expected_rate_comparison,
    hamming_distortion_matrix,
)

TOOL = "ardtk"

DOMAIN_ERRORS = (
    ValueError,
    OSError,
    MissingGridPointError,
    CoverError,
    GameOverflowError,
    BAConvergenceError,
)


# ---------------------------------------------------------------------------
# number and cell formatting

def fmt_real(x) -> str:
    return format(float(x), ".12g")


def fmt_cell(v) -> str:
    return str(v) if isinstance(v, (int, Fraction)) else fmt_real(v)


def rat_cells(v) -> "tuple[str, str]":
    """Exact num/den pair for rationals; lone formatted value otherwise."""
    if isinstance(v, Fraction):
        return str(v.numerator), str(v.denominator)
    if isinstance(v, int):
        return str(v), "1"
    return fmt_real(v), ""


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def parse_int_grid(text: str, top: int) -> "list[int]":
    """Comma list of ints in 0..top; a:b and a:b:step ranges are
    inclusive of b.  Bounds are checked before a range is expanded."""
    out: "list[int]" = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = [int(v) for v in tok.split(":")]
        if len(parts) == 1:
            parts *= 2
        if len(parts) == 2:
            parts.append(1)
        if len(parts) != 3:
            raise ValueError(f"bad range {tok!r}")
        start, stop, step = parts
        for v in (start, stop):
            if not 0 <= v <= top:
                raise ValueError(f"grid value {v} outside 0..{top}")
        if step < 1:
            raise ValueError("range step must be positive")
        out.extend(range(start, stop + 1, step))
    if not out:
        raise ValueError("empty grid")
    return out


def parse_fraction_grid(text: str) -> "list[Fraction]":
    out = [parse_fraction(tok) for tok in text.split(",") if tok.strip()]
    if not out:
        raise ValueError("empty grid")
    return out


# ---------------------------------------------------------------------------
# file formats

def read_word(path, raw: bool = False) -> BitWord:
    if raw:
        data = Path(path).read_bytes()
        if len(data) < 8:
            raise ValueError(f"{path}: truncated packed word")
        n = int.from_bytes(data[:8], "big")
        return BitWord.from_bytes(data[8:], n)
    text = Path(path).read_text()
    body = "".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("#")
    )
    word = BitWord.from_str(body)
    if word.n == 0:
        raise ValueError(f"{path}: no bits found")
    return word


def read_pbm(path) -> "tuple[BitWord, int, int]":
    """PBM image as (word, width, height); bit 1 is a black pixel."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PBM header")
        return data[start:pos]

    magic = token()
    if magic not in (b"P1", b"P4"):
        raise ValueError(f"{path}: not a PBM file (want P1 or P4)")
    width, height = int(token()), int(token())
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad PBM dimensions")
    need = width * height
    if magic == b"P1":
        bits: "list[int]" = []
        while pos < len(data) and len(bits) < need:
            c = data[pos : pos + 1]
            pos += 1
            if c in (b"0", b"1"):
                bits.append(c == b"1")
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif not c.isspace():
                raise ValueError(f"{path}: stray byte {c!r} in P1 raster")
        if len(bits) < need:
            raise ValueError(f"{path}: truncated P1 raster")
        word = BitWord.from_bits(int(b) for b in bits)
    else:
        pos += 1  # exactly one whitespace byte separates header and raster
        rowbytes = (width + 7) // 8
        raster = data[pos : pos + rowbytes * height]
        if len(raster) < rowbytes * height:
            raise ValueError(f"{path}: truncated P4 raster")
        value = 0
        for r in range(height):
            chunk = raster[r * rowbytes : (r + 1) * rowbytes]
            # each row is padded to whole bytes; the padding bits drop
            value = value << width | int.from_bytes(chunk, "big") >> (8 * rowbytes - width)
        word = BitWord(need, value)
    return word, width, height


def write_pbm(path, word: BitWord, width: int) -> None:
    if width < 1 or word.n % width:
        raise ValueError("width must divide the bit length")
    height = word.n // width
    lines = ["P1", f"{width} {height}"]
    bits = word.to01()
    for r in range(height):
        row = bits[r * width : (r + 1) * width]
        # P1 readers expect lines of at most 70 characters
        lines.extend(row[i : i + 64] for i in range(0, width, 64))
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path, header: "Sequence[str]", rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run manifests

def write_manifest(out_dir: Path, args, argv, seed, inputs, outputs) -> Path:
    # every option parses to a str, int, float, bool or None
    flags = {
        key: val
        for key, val in sorted(vars(args).items())
        if key not in ("func", "command")
    }
    doc = {
        "tool": TOOL,
        "version": __version__,
        "subcommand": args.command,
        "argv": list(argv),
        "seed": seed,
        "flags": flags,
        "codec_params": {
            "block_size": BWT_BLOCK_BITS,
            "coder_precision": CODER_PRECISION,
        },
        "slack": {
            "conditional_clamp_bits": CONDITIONAL_CLAMP_BITS,
            "shape_slack_c": DEFAULT_SLACK_C,
            "delta1_slack": DEFAULT_DELTA1_SLACK,
            "residual_floor_factor": RESIDUAL_FLOOR_FACTOR,
        },
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    write_json(path, doc)
    return path


def _read_manifest(path: Path) -> dict:
    """The manifest at path, checked for the fields replay reads."""
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a manifest is a JSON object")
    argv = doc.get("argv")
    if not (isinstance(argv, list) and all(isinstance(t, str) for t in argv)):
        raise ValueError(f"{path}: manifest argv must be a list of strings")
    if type(doc.get("seed")) is not int:
        raise ValueError(f"{path}: manifest seed must be an integer")
    for key in ("inputs", "outputs"):
        table = doc.get(key)  # JSON object keys are always strings
        if not (
            isinstance(table, dict) and all(isinstance(v, str) for v in table.values())
        ):
            raise ValueError(f"{path}: manifest {key} must map names to hashes")
    return doc


def run_replay(args) -> int:
    man_path = Path(args.manifest)
    doc = _read_manifest(man_path)
    for path, digest in sorted(doc["inputs"].items()):
        actual = sha256_file(path)
        if actual != digest:
            raise ValueError(f"input {path} changed since the recorded run")
    new_dir = Path(args.out_dir) if args.out_dir else man_path.parent / "replay"
    # argparse keeps the last value given for an option
    code = main(doc["argv"] + ["--out-dir", str(new_dir), "--seed", str(doc["seed"])])
    if code != 0:
        raise ValueError(f"replayed command exited {code}")
    ok = True
    for name, digest in sorted(doc["outputs"].items()):
        if name == "manifest.json":
            continue
        actual = sha256_file(new_dir / name)
        same = actual == digest
        ok &= same
        print(f"{name} {'ok' if same else 'mismatch'}")
    print(f"replay {'ok' if ok else 'mismatch'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand runners; each returns (input paths, output paths)

def run_codec(args, out_dir: Path, seed: int):
    word = read_word(args.input, raw=args.raw)
    cw = compress(word)
    if decompress(cw) != word:
        raise ValueError("roundtrip mismatch")
    print(cw.bit_length)
    return [args.input], []


def run_curve(args, out_dir: Path, seed: int):
    word = read_word(args.input, raw=args.raw)
    spec = DistortionSpec(args.family, word.n)
    if args.axis == "rate":
        # no codeword is longer than the raw one, header and n bits
        top = _header_bits(word.n) + word.n
        grid = parse_int_grid(args.grid, top) if args.grid else None
        curve = distortion_rate_curve(word, spec, grid, args.budget, seed)
    elif args.axis == "canonical":
        grid = (
            parse_int_grid(args.grid, word.n) if args.grid else list(range(word.n + 1))
        )
        curve = canonical_estimate(word, spec, grid, args.budget, seed)
    else:
        ghat = canonical_estimate(
            word, spec, list(range(word.n + 1)), args.budget, seed
        )
        deltas = parse_fraction_grid(args.grid) if args.grid else None
        curve = transform_rate_distortion(ghat, spec, deltas)
    path = out_dir / args.out
    rows = []
    for p in curve.points:
        rows.append(
            [
                fmt_cell(p.axis_value),
                fmt_cell(p.bits),
                *rat_cells(p.distortion),
                p.candidate.digest() if p.candidate is not None else "",
            ]
        )
    write_csv(
        path,
        ["axis_value", "bits", "distortion_num", "distortion_den", "candidate_hash"],
        rows,
    )
    print(f"points {len(curve.points)} budget_used {curve.budget_used}")
    return [args.input], [path]


def _deficiency_doc(est):
    return {
        "log_cardinality": est.log_cardinality,
        "conditional_bits": est.conditional_bits,
        "value": est.value,
    }


def run_denoise(args, out_dir: Path, seed: int):
    word, width, height = read_pbm(args.input)
    spec = DistortionSpec(HAMMING, word.n)
    levels = parse_fraction_grid(args.levels) if args.levels else None
    result = denoise(
        word, spec, args.budget, seed, image_width=width, levels=levels
    )
    inputs = [args.input]
    outputs = []

    den_path = out_dir / "denoised.pbm"
    write_pbm(den_path, result.denoised, width)
    outputs.append(den_path)

    curve_path = out_dir / "curve.csv"
    write_csv(
        curve_path,
        ["rate", "distortion_num", "distortion_den", "candidate_hash"],
        [
            [
                fmt_cell(p.bits),
                *rat_cells(p.distortion),
                p.candidate.digest() if p.candidate is not None else "",
            ]
            for p in result.curve.points
        ],
    )
    outputs.append(curve_path)

    clean_doc = None
    if args.clean:
        clean, cw, ch = read_pbm(args.clean)
        if (cw, ch) != (width, height):
            raise ValueError("clean image dimensions do not match the input")
        inputs.append(args.clean)
        ref_path = out_dir / "clean_curve.csv"
        write_csv(
            ref_path,
            ["rate", "distance_num", "distance_den"],
            [
                [fmt_cell(r), *rat_cells(dist)]
                for r, dist in curve_against_reference(result.curve, clean)
            ],
        )
        outputs.append(ref_path)
        clean_doc = {
            "file": str(args.clean),
            "denoised_hamming": result.denoised.hamming(clean),
            "best_rate": best_rate_against(result.curve, clean),
        }

    diag = result.diagnostics
    doc = {
        "bits": word.n,
        "width": width,
        "height": height,
        "input_codelength": codelength(word),
        "denoised_codelength": codelength(result.denoised),
        "knee": {
            "rate": result.knee.rate,
            "distortion": result.knee.distortion,
            "index": result.knee.index,
            "degenerate": result.knee.degenerate,
        },
        "residual": {
            "weight": diag.residual_weight,
            "fraction": str(diag.residual_fraction),
            "codelength": diag.residual_codelength,
            "floor_bits": diag.residual_floor_bits,
            "typical": diag.residual_typical,
            "deficiency": _deficiency_doc(diag.residual_deficiency),
        },
        "model": {
            "deficiency": _deficiency_doc(diag.model_deficiency),
            "sufficiency_gap": diag.model_sufficiency_gap,
        },
        "clean": clean_doc,
    }
    diag_path = out_dir / "diagnostics.json"
    write_json(diag_path, doc)
    outputs.append(diag_path)

    plot_path = out_dir / "plot.gp"
    _write_plot_script(plot_path, result.knee.rate, bool(args.clean))
    outputs.append(plot_path)

    print(
        f"knee rate {fmt_cell(result.knee.rate)}"
        f" residual weight {diag.residual_weight}"
    )
    return inputs, outputs


def _write_plot_script(path: Path, knee_rate: float, with_clean: bool) -> None:
    lines = [
        'set datafile separator ","',
        'set xlabel "rate (bits)"',
        'set ylabel "distortion"',
        "set key top right",
        "set terminal pngcairo size 800,600",
        'set output "curve.png"',
        f"set arrow from {fmt_real(knee_rate)}, graph 0"
        f" to {fmt_real(knee_rate)}, graph 1 nohead dashtype 2",
        'plot "curve.csv" every ::1 using 1:($2/$3) with linespoints'
        ' pointtype 7 title "to input"' + (", \\" if with_clean else ""),
    ]
    if with_clean:
        lines.append(
            '     "clean_curve.csv" every ::1 using 1:($2/$3) with'
            ' linespoints pointtype 5 title "to clean"'
        )
    path.write_text("\n".join(lines) + "\n")


def run_cover(args, out_dir: Path, seed: int):
    spec = DistortionSpec(HAMMING, args.n)
    d = parse_fraction(args.d)
    if args.mode == "ball":
        if args.delta is None:
            raise ValueError("cover ball needs --delta")
        delta = parse_fraction(args.delta)
        result = cover_ball(spec, delta, d, seed)
    else:
        if args.delta is not None:
            raise ValueError("cover space takes no --delta")
        result = cover_space(spec, d, seed)

    csv_path = out_dir / "cover.csv"
    write_csv(
        csv_path,
        [
            "shell_delta_num",
            "shell_delta_den",
            "offset_num",
            "offset_den",
            "centers_used",
            "draw_budget",
            "draws_used",
            "retries",
            "size_bound",
            "verified",
        ],
        [
            [
                *rat_cells(sh.delta_shell),
                *rat_cells(sh.offset),
                str(sh.centers_used),
                str(sh.draw_budget),
                str(sh.draws_used),
                str(sh.retries),
                str(result.size_bound),
                "true",
            ]
            for sh in result.shells
        ],
    )

    centers_path = out_dir / "centers.bits"
    centers_path.write_text("".join(w.to01() + "\n" for w in result.centers))

    summary_path = out_dir / "cover.json"
    write_json(
        summary_path,
        {
            "mode": args.mode,
            "n": args.n,
            "delta": str(result.delta),
            "d": str(result.d),
            "seed": result.seed,
            "centers": len(result.centers),
            "size_bound": result.size_bound,
            "volume_lower": result.volume_lower,
            "verified": result.verified,
        },
    )
    print(
        f"centers {len(result.centers)} bound {result.size_bound}"
        " verified true"
    )
    return [], [csv_path, centers_path, summary_path]


def read_adversary_file(path, n: int) -> "list[tuple[BitWord, ...]]":
    """One set per line: comma or space separated n-bit '0'/'1' words; a
    blank line is the empty set, a '#' line a comment.  Each set is the
    tuple of its distinct words in ascending value order, so a word
    repeated on a line counts once."""
    sets = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            continue
        words = [BitWord.from_str(tok) for tok in line.replace(",", " ").split()]
        for w in words:
            if w.n != n:
                raise ValueError(
                    f"{path}:{ln}: word of length {w.n}, expected {n}"
                )
        sets.append(tuple(sorted(set(words))))
    if not sets:
        raise ValueError(f"{path}: no sets found")
    return sets


def _move_doc(move, n: int):
    doc = {
        "set_size": len(move.alice_set),
        "marks": list(move.marks),
        "win": move.win,
    }
    if n <= 8:
        doc["set"] = [w.to01() for w in move.alice_set]
    return doc


def run_game(args, out_dir: Path, seed: int):
    params = GameParams(n=args.n, k=args.k, m=args.m)
    inputs = []
    if args.adversary == "file":
        if not args.adversary_file:
            raise ValueError("adversary file mode needs --adversary-file")
        alice = read_adversary_file(args.adversary_file, args.n)
        inputs.append(args.adversary_file)
    else:
        alice = ADVERSARIES[args.adversary](params, seed)
    tr = play_game(alice, params, strategy=args.strategy, seed=seed)
    check = verify_transcript(tr, params)
    bound = (
        mark_bound(params)
        if args.strategy == "det"
        else probabilistic_mark_cap(params)
    )
    doc = {
        "params": {
            "n": params.n,
            "k": params.k,
            "m": params.m,
            "max_moves": params.max_moves,
        },
        "strategy": tr.strategy,
        "adversary": args.adversary,
        "seed": seed,
        "moves": [_move_doc(m, params.n) for m in tr.moves],
        "total_marks": tr.total_marks,
        "mark_bound": bound,
        "win": tr.won,
        "verified": check.ok,
    }
    path = out_dir / args.out
    write_json(path, doc)
    print(f"win {str(tr.won).lower()} marks {tr.total_marks}")
    return inputs, [path]


def run_shannon(args, out_dir: Path, seed: int):
    p = parse_fraction(args.p)
    src = SourceModel.bernoulli(p, 1)
    grid = (
        parse_fraction_grid(args.delta_grid)
        if args.delta_grid
        else [Fraction(i, 20) for i in range(10)]
    )
    dmat = hamming_distortion_matrix()
    rows = []
    for delta in sorted(grid):
        pt = blahut_arimoto(src, dmat, float(delta), tol=args.tol)
        rows.append(
            [
                *rat_cells(delta),
                fmt_real(pt.rate),
                fmt_real(analytic_binary_hamming(float(p), float(delta))),
                str(pt.iterations),
                fmt_real(pt.gap),
            ]
        )
    path = out_dir / args.out
    write_csv(
        path,
        ["delta_num", "delta_den", "rate", "analytic_rate", "iterations", "gap"],
        rows,
    )
    print(f"points {len(rows)}")
    return [], [path]


def run_compare(args, out_dir: Path, seed: int):
    p = parse_fraction(args.p)
    src = SourceModel.bernoulli(p, args.n)
    spec = DistortionSpec(HAMMING, args.n)
    grid = (
        parse_fraction_grid(args.delta_grid)
        if args.delta_grid
        else [Fraction(i, 8) for i in range(5)]
    )
    report = expected_rate_comparison(
        src, spec, grid, args.samples, args.budget, seed
    )
    lower, upper = report.lower_envelope(), report.upper_envelope()
    json_path = out_dir / "report.json"
    write_json(
        json_path,
        {
            "n": report.n,
            "p": str(p),
            "delta_grid": [str(d) for d in report.delta_grid],
            "samples": report.samples,
            "budget": report.budget,
            "seed": report.seed,
            "per_sample": report.per_sample,
            "mean_curve": report.mean_curve,
            "min_curve": report.min_curve,
            "max_curve": report.max_curve,
            "shannon_nR": report.shannon_nR,
            "delta1_slack": report.delta1_slack,
            "delta2": report.delta2,
            "code_map_support": report.code_map_support,
            "exact_mean_curve": report.exact_mean_curve,
            "lower_envelope": lower,
            "upper_envelope": upper,
        },
    )
    csv_path = out_dir / "compare.csv"
    rows = []
    for i, delta in enumerate(report.delta_grid):
        rows.append(
            [
                *rat_cells(delta),
                str(report.min_curve[i]),
                fmt_real(report.mean_curve[i]),
                str(report.max_curve[i]),
                fmt_real(report.shannon_nR[i]),
                fmt_real(lower[i]),
                fmt_real(upper[i]),
                "" if report.delta2 is None else fmt_real(report.delta2[i]),
                (
                    ""
                    if report.code_map_support is None
                    else str(report.code_map_support[i])
                ),
            ]
        )
    write_csv(
        csv_path,
        [
            "delta_num",
            "delta_den",
            "min_rate",
            "mean_rate",
            "max_rate",
            "shannon_nR",
            "lower_envelope",
            "upper_envelope",
            "delta2",
            "code_map_support",
        ],
        rows,
    )
    print(f"samples {report.samples} grid {len(report.delta_grid)}")
    return [], [json_path, csv_path]


def run_shapes(args, out_dir: Path, seed: int):
    if args.mode == "generate":
        if args.n is None:
            raise ValueError("shapes generate needs --n")
        rng = random.Random(seed)
        rows = []
        for i in range(args.count):
            k = args.k if args.k is not None else rng.randint(0, args.n)
            g = shape_generate(args.n, k, rng.getrandbits(32))
            rows.extend([str(i), str(l), str(g(l))] for l in range(args.n + 1))
        path = out_dir / args.out
        write_csv(path, ["shape", "l", "value"], rows)
        print(f"shapes {args.count}")
        return [], [path]

    if not args.input:
        raise ValueError("shapes validate needs --input")
    by_shape: "dict[int, dict[int, int]]" = {}
    with open(args.input, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["shape", "l", "value"]:
            raise ValueError(f"{args.input}: expected a shape,l,value table")
        for row in reader:
            if not row:
                continue  # a blank line
            try:
                idx, l, value = map(int, row)
            except ValueError:
                raise ValueError(
                    f"{args.input}:{reader.line_num}: expected three integers "
                    f"shape,l,value, got {','.join(row)!r}"
                ) from None
            if l < 0:
                raise ValueError(f"{args.input}: shape {idx} has level {l} below 0")
            if args.n is not None and l > args.n:
                raise ValueError(f"{args.input}: shape {idx} has level {l} above --n {args.n}")
            levels = by_shape.setdefault(idx, {})
            if l in levels:
                raise ValueError(f"{args.input}: shape {idx} repeats level {l}")
            levels[l] = value
    bad = 0
    for idx in sorted(by_shape):
        levels = by_shape[idx]
        # the levels are distinct and at least 0, so unless they are
        # exactly 0..len - 1 one of 0..len - 1 is missing
        gap = next(l for l in range(len(levels) + 1) if l not in levels)
        if gap < len(levels):
            ok, where = False, gap
        else:
            ok, where = shape_validate([levels[l] for l in range(gap)], n=args.n)
        if ok:
            print(f"shape {idx} ok")
        else:
            bad += 1
            print(f"shape {idx} bad at l={where}")
    if bad:
        raise ValueError(f"{bad} of {len(by_shape)} shapes outside the family")
    print(f"shapes {len(by_shape)} all ok")
    return [args.input], []


# ---------------------------------------------------------------------------
# parser and dispatch

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="compressor-as-oracle rate-distortion toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL} {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out-dir",
        default=".",
        help="directory for outputs and manifest.json (default: .)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: $ARDTK_SEED, else 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "codec", parents=[common], help="compress a word and check the roundtrip"
    )
    p.add_argument("action", choices=["roundtrip"])
    p.add_argument("--input", required=True, help="word file")
    p.add_argument(
        "--raw", action="store_true", help="input uses the packed word format"
    )
    p.set_defaults(func=run_codec)

    p = sub.add_parser(
        "curve", parents=[common], help="estimate a curve for one word"
    )
    p.add_argument("--input", required=True, help="word file")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--family", choices=[HAMMING, EUCLID, LIST], default=HAMMING)
    p.add_argument(
        "--axis", choices=["rate", "distortion", "canonical"], default="rate"
    )
    p.add_argument(
        "--grid",
        help="comma list; ints (a:b[:step] ranges allowed) on the rate and"
        " canonical axes, fractions on the distortion axis; default:"
        " curve corners / 0..n / every admissible radius",
    )
    p.add_argument("--budget", type=_positive_int, default=2048)
    p.add_argument("--out", default="curve.csv", help="CSV filename")
    p.set_defaults(func=run_curve)

    p = sub.add_parser(
        "denoise", parents=[common], help="denoise a PBM image by compression"
    )
    p.add_argument("--input", required=True, help="PBM image (P1 or P4)")
    p.add_argument("--budget", type=_positive_int, default=160)
    p.add_argument(
        "--clean",
        help="reference PBM; adds clean_curve.csv and distance diagnostics",
    )
    p.add_argument("--levels", help="comma list of distortion fractions")
    p.set_defaults(func=run_denoise)

    p = sub.add_parser(
        "cover", parents=[common], help="cover a ball or the cube with balls"
    )
    p.add_argument("mode", choices=["ball", "space"])
    p.add_argument("--n", type=_positive_int, required=True, help="word length")
    p.add_argument("--d", required=True, help="covering ball radius (fraction)")
    p.add_argument("--delta", help="target ball radius (ball mode only)")
    p.set_defaults(func=run_cover)

    p = sub.add_parser(
        "game", parents=[common], help="play the online marking game"
    )
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--adversary",
        choices=sorted(ADVERSARIES) + ["file"],
        default="random",
    )
    p.add_argument("--adversary-file", help="one set per line, words in 0/1")
    p.add_argument("--strategy", choices=["det", "prob"], default="det")
    p.add_argument("--out", default="transcript.json")
    p.set_defaults(func=run_game)

    p = sub.add_parser(
        "shannon", parents=[common], help="classical rate-distortion baseline"
    )
    p.add_argument("--p", required=True, help="P(bit = 1), fraction or decimal")
    p.add_argument("--delta-grid", help="comma list of distortion fractions")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="rd.csv")
    p.set_defaults(func=run_shannon)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="sampled word curves against the Shannon baseline",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="block length")
    p.add_argument("--p", default="1/2", help="P(bit = 1)")
    p.add_argument("--delta-grid", help="comma list of distortion fractions")
    p.add_argument("--samples", type=_positive_int, default=4)
    p.add_argument("--budget", type=_positive_int, default=512)
    p.set_defaults(func=run_compare)

    p = sub.add_parser(
        "shapes", parents=[common], help="sample or validate staircase shapes"
    )
    p.add_argument("mode", choices=["generate", "validate"])
    p.add_argument("--n", type=_positive_int, help="domain size")
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--k", type=int, help="fixed initial height (default: random)")
    p.add_argument("--input", help="shape table to validate")
    p.add_argument("--out", default="shapes.csv")
    p.set_defaults(func=run_shapes)

    p = sub.add_parser("replay", help="rerun a manifest and compare outputs")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument(
        "--out-dir",
        default=None,
        help="directory for the rerun (default: <manifest dir>/replay)",
    )
    p.set_defaults(func=None)

    return parser


def resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ARDTK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ARDTK_SEED={env!r} is not an integer")
    return 0


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "replay":
            return run_replay(args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = resolve_seed(args)
        inputs, outputs = args.func(args, out_dir, seed)
        write_manifest(out_dir, args, argv, seed, inputs, outputs)
        return 0
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
