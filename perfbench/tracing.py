"""Span recording at ardtk's module boundaries, from outside the package.

``Tracer.installed()`` swaps the public entry points listed in
``_bindings`` for wrappers that record one span per call (name, start,
end, parent span, and a few facts read from the arguments or result),
and puts the originals back on exit.  Nothing in ``src/`` is edited: the
wrappers are set as module attributes, which is where ardtk's own
callers look the names up at call time (``codec._codelength_cached``
finds ``compress`` as a module global on its cache-miss path, for
example).

``bits`` and ``cli`` get no wrappers: a ``bits`` call takes under a
microsecond, so a wrapper would mostly measure itself, and ``cli`` is on
no workload's path.  Their cost shows up as self time of the layers that
call them.

Spans are kept in memory for one op and folded into per-layer totals by
``layer_metrics`` once the op has ended.
"""
from __future__ import annotations

import contextlib
import inspect
from fractions import Fraction
from math import comb
from time import perf_counter

from ardtk import codec, cover, denoise, distortion, game, rdsearch, shannon

METHODS = ("raw", "bitac", "bwt", "lz")          # codeword tag 0..3
SIZE_CLASSES = ((64, "b12"), (1024, "b1024"), (4096, "b4096"), (None, "b32768"))

# span fields
NAME, START, END, PARENT, INFO = range(5)


def size_class(n: int) -> str:
    """Bucket a word length into the class named by its representative size:
    below 64 bits only raw and bitac are eligible, up to 1024 bitac still
    runs, and above 4096 a word fills whole BWT blocks."""
    for limit, label in SIZE_CLASSES[:-1]:
        if n <= limit:
            return label
    return SIZE_CLASSES[-1][1]


def _search_info(sig):
    def info(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        spec, delta, budget = (bound.arguments[k] for k in ("spec", "delta", "budget"))
        if spec.family == distortion.HAMMING:
            exhaustive = distortion.ball_cardinality(spec, Fraction(delta)) <= budget
        else:
            exhaustive = False
        return exhaustive
    return info


def _bindings():
    """(owner, attribute, span name, info function) for every wrapped name.

    A function bound under several names gets one wrapper per binding; a
    call goes through exactly one of them, so nothing is counted twice.

    An info function turns (args, kwargs, result) into the facts the
    per-layer metrics need; it runs after the span has closed.
    """
    search_info = _search_info(inspect.signature(rdsearch.search_min_rate))
    out = [
        (codec, "compress", "codec.compress",
         lambda a, k, r: (a[0].n, r.data[0] >> 6)),
        (codec, "decompress", "codec.decompress",
         lambda a, k, r: (r.n, a[0].data[0] >> 6)),
        (rdsearch, "search_min_rate", "rdsearch.search_min_rate", search_info),
        (shannon, "search_min_rate", "rdsearch.search_min_rate", search_info),
        (denoise, "distortion_rate_curve", "rdsearch.distortion_rate_curve",
         lambda a, k, r: r.budget_used),
        (denoise, "denoise", "denoise.denoise", None),
        (denoise, "majority_filter", "denoise.majority_filter", None),
        (denoise, "deficiency_estimate", "denoise.deficiency_estimate", None),
        (denoise, "sufficiency_gap", "denoise.sufficiency_gap", None),
        (shannon, "expected_rate_comparison", "shannon.expected_rate_comparison", None),
        (shannon, "blahut_arimoto", "shannon.blahut_arimoto", None),
        (distortion.Ball, "members", "distortion.members", None),
        (cover, "cover_ball", "cover.cover_ball", lambda a, k, r: r),
        (game, "play_game", "game.play_game",
         lambda a, k, r: (len(r.moves), r.total_marks)),
        (game, "verify_transcript", "game.verify_transcript", None),
    ]
    # every module that imported the oracle under its own name
    for mod in (codec, rdsearch, denoise, shannon):
        out.append((mod, "codelength", "codec.codelength", None))
    return out


class Tracer:
    """Records spans while installed; ``spans`` holds the current op's."""

    def __init__(self):
        self.spans: list = []
        self._stack: "list[int]" = []
        self._swaps = [
            (owner, attr, owner.__dict__[attr], self._wrap(name, owner.__dict__[attr], info))
            for owner, attr, name, info in _bindings()
        ]

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding for the duration of one op."""
        self.spans.clear()
        try:
            for owner, attr, _original, wrapper in self._swaps:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _wrapper in self._swaps:
                setattr(owner, attr, original)


def _ancestor_named(spans, i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans) -> dict:
    """Fold one op's spans into per-layer totals (not yet per-op means)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    compress_kids = [0] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            if s[NAME] == "codec.compress":
                compress_kids[p] += 1

    m: dict = {}

    def add(key, v):
        m[key] = m.get(key, 0) + v

    for i, s in enumerate(spans):
        name, info = s[NAME], s[INFO]
        self_s = dur[i] - child[i]
        if name == "codec.codelength":
            add("codec.codelength.calls", 1)
            if compress_kids[i]:
                add("codec.codelength.misses", 1)
            # the residual codelength denoise() takes itself is a diagnostic
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "denoise.denoise":
                add("denoise.diagnostics_s", dur[i])
        elif name == "codec.compress":
            n, tag = info
            add("codec.compress.calls", 1)
            add("codec.compress.s", dur[i])
            add("codec.compress.bits", n)
            add("codec.compress.s." + size_class(n), dur[i])
            add("codec.win." + METHODS[tag], 1)
            if _ancestor_named(spans, i, "rdsearch.search_min_rate"):
                add("rdsearch.evals", 1)
        elif name == "codec.decompress":
            add("codec.decompress.s." + METHODS[info[1]], dur[i])
        elif name == "rdsearch.search_min_rate":
            add("rdsearch.search_min_rate.calls", 1)
            add("rdsearch.search_min_rate.s", dur[i])
            add("rdsearch.self_s", self_s)
            add("rdsearch.exhaustive", 1 if info else 0)
        elif name == "rdsearch.distortion_rate_curve":
            add("rdsearch.budget_used_reported", info)
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "denoise.denoise":
                add("denoise.curve_s", dur[i])
        elif name == "denoise.denoise":
            add("denoise.self_s", self_s)
        elif name == "denoise.majority_filter":
            add("denoise.filter_s", dur[i])
        elif name in ("denoise.deficiency_estimate", "denoise.sufficiency_gap"):
            add("denoise.diagnostics_s", dur[i])
        elif name == "shannon.expected_rate_comparison":
            add("shannon.self_s", self_s)
        elif name == "shannon.blahut_arimoto":
            add("shannon.blahut_arimoto.calls", 1)
            add("shannon.blahut_arimoto.s", dur[i])
        elif name == "distortion.members":
            add("distortion.members.calls", 1)
            add("distortion.members.s", dur[i])
        elif name == "cover.cover_ball":
            add("cover.cover_ball.s", dur[i])
            for k, v in cover_counts(info).items():
                add(k, v)
        elif name == "game.play_game":
            add("game.play_game.s", dur[i])
            add("game.moves", info[0])
            add("game.marks", info[1])
        elif name == "game.verify_transcript":
            add("game.verify_transcript.s", dur[i])
    return m


def cover_counts(result) -> dict:
    """Work counts of one cover_ball call, read from its result.

    ``pair_checks`` and ``bytes_moved`` are computed from the result
    sizes, not counted: each candidate center is tested against every
    target word while pruning, each kept center at most once more while
    verifying, and each draw at most once against its shell.  Each test
    reads one uint32 operand, so bytes_moved is 4 * pair_checks.  Both
    are upper bounds.
    """
    n = result.spec.n
    target = distortion.ball_cardinality(result.spec, result.delta)
    candidates = 1 + sum(sh.centers_used for sh in result.shells)
    shell_checks = sum(
        sh.draws_used * comb(n, int(sh.delta_shell * n)) for sh in result.shells
    )
    pair_checks = shell_checks + target * (candidates + result.size)
    return {
        "cover.draws": sum(sh.draws_used for sh in result.shells),
        "cover.candidates": candidates,
        "cover.size": result.size,
        "cover.retries": sum(sh.retries for sh in result.shells),
        "cover.pair_checks": pair_checks,
        "cover.bytes_moved": 4 * pair_checks,
    }


def per_op_metrics(totals: dict, ops: int) -> dict:
    """Per-layer metrics as per-op means and ratios over ``ops`` traced ops.

    Every name is present; a layer a workload never calls reads 0.
    """
    def t(key):
        return totals.get(key, 0)

    def ratio(num, den):
        return t(num) / t(den) if t(den) else 0.0

    per_op = [
        "codec.codelength.calls", "codec.codelength.misses", "codec.compress.s",
        "rdsearch.search_min_rate.calls", "rdsearch.self_s", "rdsearch.evals",
        "rdsearch.budget_used_reported",
        "distortion.members.calls", "distortion.members.s",
        "denoise.curve_s", "denoise.diagnostics_s", "denoise.filter_s", "denoise.self_s",
        "shannon.blahut_arimoto.calls", "shannon.blahut_arimoto.s", "shannon.self_s",
        "cover.cover_ball.s", "cover.draws", "cover.candidates", "cover.retries",
        "cover.pair_checks", "cover.bytes_moved",
        "game.play_game.s", "game.moves", "game.marks", "game.verify_transcript.s",
    ]
    per_op += ["codec.compress.s." + label for _, label in SIZE_CLASSES]
    per_op += ["codec.decompress.s." + m for m in METHODS]
    out = {k: t(k) / ops for k in per_op}
    calls = t("codec.codelength.calls")
    out["codec.codelength.hit_ratio"] = (
        1 - t("codec.codelength.misses") / calls if calls else 0.0
    )
    out["codec.compress.bits_per_s"] = ratio("codec.compress.bits", "codec.compress.s")
    for m in METHODS:
        out["codec.win." + m] = ratio("codec.win." + m, "codec.compress.calls")
    out["rdsearch.evals_per_s"] = ratio("rdsearch.evals", "rdsearch.search_min_rate.s")
    out["rdsearch.exhaustive_ratio"] = ratio(
        "rdsearch.exhaustive", "rdsearch.search_min_rate.calls"
    )
    out["cover.keep_ratio"] = ratio("cover.size", "cover.candidates")
    out["game.s_per_move"] = ratio("game.play_game.s", "game.moves")
    return out
