#!/usr/bin/env python3
"""ardtk benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload denoise-cross32 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; ardtk is imported from ``src/``.
``setup_s`` is the median time of five fresh set-ups, each a new
interpreter that imports the program and builds the inputs from
``--seed``, timed inside that interpreter and host-speed corrected.  The run then imports and builds once more for itself and
runs one untimed warm-up op, which is not part of ``setup_s``.  Then ops
run back to back, each from a cold oracle cache, until ``--seconds`` have
passed and every input has had at least one op.  Every op's output is
checked, and every op on an input must give the same output digest as
the first.  Op times are host-speed corrected too (see hostspeed.py):
the wall time scaled to a host that runs a fixed reference loop in a
nominal time, which takes out the drift of a shared host's speed.  The
raw wall times are printed as well.

``--trace 0`` reports the end-to-end metrics.  A run holds too few ops
for a tail percentile with ten samples beyond it, so each run prints its
op times and sweep.py reports the tail over the op times of many runs.
``--trace 1`` alternates an untraced and a traced op on each input and
reports the per-layer metrics of the traced ops (see tracing.py), the
quality figures and the tracing overhead.  Metric names and units come
from BENCHMARK.json.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ardtk from this checkout's src/, never from anywhere else."""
    pkg = SRC / "ardtk"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no ardtk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ardtk

    if Path(ardtk.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"ardtk imported from {ardtk.__file__}, not {pkg}")
    import hostspeed
    import tracing
    import workloads

    return workloads, tracing, hostspeed


def time_setup(workload: str, seed: int) -> "tuple[float, float]":
    """(wall, corrected) seconds of one fresh set-up in a new interpreter:
    import the program and build the workload's inputs from the seed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up of {workload} exited {proc.returncode}:\n{proc.stderr}")
    wall, corrected = (float(v) for v in proc.stdout.split())
    return wall, corrected


def spec_names(spec):
    return [m["name"] for m in spec]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads, tracing, hostspeed = import_program()
    except (OSError, ValueError, ImportError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from ardtk import codec

    import_s = perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    problems = []

    # set-up: the median of SETUP_REPS fresh set-ups, then this run's own
    # inputs and one warm-up op, which setup_s leaves out
    try:
        setup_times = [time_setup(wl.name, args.seed) for _ in range(SETUP_REPS)]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(c for _w, c in setup_times)
    t0 = perf_counter()
    inputs = wl.prepare(args.seed)
    gen_s = perf_counter() - t0
    codec.clear_cache()
    t0 = perf_counter()
    first_digest = {}
    try:
        warm = wl.op(inputs[0])
        problems += [f"warm-up: {p}" for p in wl.check(inputs[0], warm)]
        first_digest[0] = workloads.output_digest(wl, [warm])
    except Exception:  # reported; the measured ops show whether it repeats
        traceback.print_exc(file=sys.stderr)
        problems.append("warm-up op raised")
    warm_s = perf_counter() - t0

    # measurement
    tracer = tracing.Tracer() if args.trace else None
    k_inputs = len(inputs)
    min_ops = k_inputs * (2 if args.trace else 1)
    first_out = [None] * k_inputs
    untraced, traced, walls = [], [], []
    sampler = hostspeed.SpeedSampler()
    totals: dict = {}
    attempted = failed = 0
    t_begin = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - t_begin < args.seconds:
        k = (i // 2 if args.trace else i) % k_inputs
        is_traced = bool(args.trace) and i % 2 == 1
        i += 1
        inp = inputs[k]
        codec.clear_cache()
        attempted += 1
        try:
            if is_traced:
                with tracer.installed(), sampler:
                    t0 = perf_counter()
                    out = wl.op(inp)
                    wall = perf_counter() - t0
            else:
                with sampler:
                    t0 = perf_counter()
                    out = wl.op(inp)
                    wall = perf_counter() - t0
            dt = sampler.corrected(wall)
            bad = wl.check(inp, out)
            digest = workloads.output_digest(wl, [out])
            if first_digest.setdefault(k, digest) != digest:
                bad.append(f"output digest differs from the first op on input {k}"
                           f" ({'traced' if is_traced else 'untraced'})")
        except Exception:  # an op that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if bad:
            for p in bad:
                print(f"op {attempted} input {k}: {p}", file=sys.stderr)
            problems += bad
            failed += 1
            continue
        if first_out[k] is None:
            first_out[k] = out
        if is_traced:
            traced.append(dt)
            for key, v in tracing.layer_metrics(tracer.spans).items():
                totals[key] = totals.get(key, 0) + v
            tracer.spans.clear()
        else:
            untraced.append(dt)
            walls.append(wall)

    complete = all(o is not None for o in first_out)
    quality = wl.quality(list(zip(inputs, first_out))) if complete else {}
    run_digest = workloads.output_digest(wl, first_out) if complete else None

    if args.trace:
        spec = catalogue["per_layer"]
        metrics = tracing.per_op_metrics(totals, max(len(traced), 1))
        metrics.update({k: 0.0 for k in spec_names(spec) if k.startswith("quality.")})
        metrics.update(quality)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced)
            if traced and untraced else 0.0
        )
    else:
        spec = catalogue["end_to_end"]
        times = untraced or [0.0]
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(times),
            "ops_per_s": len(untraced) / sum(times) if untraced else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(spec_names(spec)):
        raise RuntimeError(
            f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(spec_names(spec)))}"
        )

    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "output_sha256": run_digest,
        "inputs": k_inputs,
    }
    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"# setup: fresh set-ups (wall, corrected) {json.dumps(setup_times)} s; this run: "
          f"import {import_s:.4f} s, inputs {gen_s:.4f} s, warm-up op {warm_s:.4f} s")
    print(f"# op_times {json.dumps(untraced)}")
    print(f"# op_wall_times {json.dumps(walls)}")
    for key, v in sorted(quality.items()):
        print(f"# {key} = {v!r}")
    print(f"# failed_ops_ratio = {failed}/{attempted}")
    for p in problems:
        print(f"# problem: {p}")
    units = {m["name"]: m["unit"] for m in spec}
    for m in spec:
        print(f"# {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    result = {
        "correct": not problems and failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": units[k]} for k in spec_names(spec)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
