"""berklip benchmark: one workload per run, every output checked exactly.

    python3 perfbench/run.py --workload {corpus,ladder,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; berklip is imported from ./src.  Each
workload is a closed loop with one caller in this process (cli: one
subprocess at a time).  With --trace 0 it runs passes over its inputs
for about S seconds, at least 3 (ladder: 2), and reports the end-to-end
metrics, with every time scaled to a reference speed (see SpeedRef);
with --trace 1 one pass runs untraced, one traced, and the per-layer
metrics are reported.  A table goes to stdout first; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.

Exit status: 0 when every check passed, 1 when an operation or a check
failed (the result line is still printed), 2 when berklip cannot be
imported from ./src (no result line).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
GOLDENS = BENCH / "goldens.json"
OUT_DIR = ROOT / ".perfbench_out"

GOLDEN_SEED = 0
# A set-up is repeated once the operations since the last one took this
# many times its wall time, so that the set-ups sample the host's speed
# across the whole run (about a ninth of a corpus or cli run) instead of
# one moment of it.  A ladder set-up takes about 14 s, so a ladder run
# makes one.
SETUP_PACE = 8
# Every operation runs at least this often, at different times in the
# run, and its latency is the mean of those runs.
MIN_PASSES = 3
# 27 maps in each of the 15 (p, degree) cells; with 200 maps the seed
# alone moved p90 by about 15 %, and 41 of 405 maps lie beyond p90
CORPUS_MAPS = 405
# Every timing is scaled to a reference speed (see SpeedRef): a reading
# of the reference kernel is taken every READ_EVERY_S of wall time, and a
# timing is scaled by the readings within READ_WINDOW_S of it.  REF_S is
# about the kernel's median time on the development host (2 vCPUs,
# Python 3.11.7), so scaled times read as wall times there.
READ_EVERY_S = 0.15
READ_WINDOW_S = 0.3
REF_S = 0.002
SAMPLE_N = 1000  # the CLI default --n
CLI_COMMANDS = ("invariants", "bounds", "profile", "sample", "verify")
CLI_SEED_FREE = ("invariants", "profile", "verify")  # stdout does not depend on --seed
CALL_TIMEOUT_S = 120


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _one_term_exp(s):
    """Exponent e of a sum p^e with coefficient 1; None for the zero sum."""
    if not s.terms:
        return None
    (coef, exp), = s.terms
    if coef != 1:
        raise ValueError(f"expected a single p-power, got {s}")
    return exp


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One seeded input set (``keys`` after ``prepare``) and the operation
    applied to each input."""

    name = ""
    in_process = True  # False when an operation waits for a subprocess
    min_passes = MIN_PASSES

    def __init__(self, seed: int, trace: bool):
        self.seed = seed
        self.trace = trace

    def prepare(self) -> None:
        raise NotImplementedError

    def run_op(self, key):
        raise NotImplementedError

    def trace_op(self, key):
        return self.run_op(key)

    def factored_ops(self, keys) -> int:
        """How many of the operations on ``keys`` analyse a factored map."""
        return len(keys)

    def op_latencies(self, key_means: dict) -> list[float]:
        """One latency per operation, from the mean latency of each key."""
        return list(key_means.values())

    def check(self, results: dict) -> dict:
        """Cross-checks on the result of each key: {bad key: message}."""
        raise NotImplementedError

    def outputs(self, key, result):
        """The serialized result, digested against the golden."""
        raise NotImplementedError

    def check_digest(self, results: dict) -> dict:
        """At the golden seed, the digest of all serialized results must
        equal the recorded one; every key fails if it does not."""
        if self.seed != GOLDEN_SEED or len(results) != len(self.keys):
            return {}
        digest = _sha256([self.outputs(k, results[k]) for k in self.keys])
        if digest == _goldens()[f"{self.name}_digest"]:
            return {}
        return {k: f"{self.name} digest differs from the golden" for k in self.keys}


class CorpusWorkload(Workload):
    name = "corpus"

    def prepare(self):
        self.maps = benchgen.corpus_maps(self.seed, CORPUS_MAPS)
        self.keys = range(len(self.maps))

    def run_op(self, key):
        m = self.maps[key]
        b = invariants.bundle(m)
        rep = lipschitz.bound_report(m, n=SAMPLE_N, seed=self.seed)
        prof = lipschitz.radial_profile(m, 0, 0)
        return b, rep, prof, lipschitz.segment_lip(prof)

    def check(self, results):
        bad = {}
        for key, (b, rep, _, _) in results.items():
            m = self.maps[key]
            try:
                if b.res != ratmap.resultant_ord_product(m):
                    raise ValueError("resultant_ord != resultant_ord_product")
                sampled = _one_term_exp(rep.sampled_max_ratio)
                lip = _one_term_exp(rep.lip_classical)
                res = _one_term_exp(rep.resultant_bound_classical)
                if lip != b.gpr.frac or res != b.res.frac:
                    raise ValueError("report disagrees with the bundle")
                if not ((sampled is None or sampled <= lip) and lip <= res):
                    raise ValueError("sampled ratio <= 1/GPR <= 1/|Res| violated")
            except (ValueError, AttributeError) as e:
                bad[key] = f"map {key}: {e}"
        return bad

    def outputs(self, key, result):
        """The JSON a user of the invariants, bounds and profile commands sees."""
        b, rep, prof, lip = result
        return [
            serialize.bundle_json(b),
            serialize.report_json(rep),
            serialize.profile_json(prof),
            serialize.ppow_json(self.maps[key].p, lip),
        ]


class LadderWorkload(Workload):
    """One operation is a ladder step: ``bundle`` on each map pair of one
    degree.  A key is one map pair, and a step's latency is the sum over
    its pairs.  The keys take the degrees in turn, so a step's pairs are
    spread over the pass and its time samples the host's speed at several
    moments instead of one."""

    name = "ladder"
    # a pass takes about 14 s and the one set-up 14 s: two passes leave
    # time for three d = 30 pairs, whose costs vary by about 10 %
    min_passes = 2

    def prepare(self):
        rounds = itertools.zip_longest(
            *[[(d, m, twin) for m, twin in pairs] for d, pairs in benchgen.ladder_steps(self.seed)]
        )
        self.pairs = [pair for rnd in rounds for pair in rnd if pair is not None]
        self.keys = range(len(self.pairs))

    def run_op(self, key):
        _, m, twin = self.pairs[key]
        return invariants.bundle(m), invariants.bundle(twin)

    def outputs(self, key, result):
        return [serialize.bundle_json(b) for b in result]

    def step_latencies(self, key_means: dict) -> dict:
        """Degree -> the summed mean latencies of its map pairs."""
        steps = {}
        for key, seconds in key_means.items():
            d = self.pairs[key][0]
            steps[d] = steps.get(d, 0.0) + seconds
        return steps

    def op_latencies(self, key_means):
        return list(self.step_latencies(key_means).values())

    def check(self, results):
        bad = {}
        for key, (b, tb) in results.items():
            d, m, _ = self.pairs[key]
            try:
                if b.res != ratmap.resultant_ord_product(m):
                    raise ValueError("resultant_ord != resultant_ord_product")
                if tb.res != b.res or tb.gir != b.gir:
                    raise ValueError("post-composed twin changed res or gir")
                if not b.gpr <= b.res:
                    raise ValueError("1/GPR <= 1/|Res| violated")
            except ValueError as e:
                bad[key] = f"map pair {key} (d={d}): {e}"
        return bad


class CliWorkload(Workload):
    name = "cli"
    in_process = False

    def prepare(self):
        self.cases = []
        self.factored = {}
        for path in sorted(INPUTS.glob("*.json")):
            m = serialize.parse_map_data(json.loads(path.read_text()))
            self.factored[path.name] = m.factored is not None
            self.cases.extend((cmd, path) for cmd in CLI_COMMANDS)
        self.keys = range(len(self.cases))

    def argv(self, key) -> list[str]:
        cmd, path = self.cases[key]
        return [cmd, "--input", str(path), "--seed", str(self.seed)]

    def case_id(self, key) -> str:
        cmd, path = self.cases[key]
        return f"{cmd} {path.stem}"

    def run_op(self, key):
        proc = subprocess.run(
            [sys.executable, "-m", "berklip", *self.argv(key)],
            cwd=ROOT,
            env=_python_env(),
            capture_output=True,
            timeout=CALL_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout.decode()

    def trace_op(self, key):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv(key))
        return code, out.getvalue()

    def factored_ops(self, keys):
        return sum(self.factored[self.cases[k][1].name] for k in keys)

    def check_digest(self, results):
        return {}  # check compares each case's stdout with its golden

    def check(self, results):
        bad = {}
        goldens = _goldens()["cli"]
        for key, (code, stdout) in results.items():
            cmd = self.cases[key][0]
            golden = goldens[self.case_id(key)]
            try:
                if code != golden["exit"]:
                    raise ValueError(f"exit code {code}, expected {golden['exit']}")
                if self.seed == GOLDEN_SEED or cmd in CLI_SEED_FREE:
                    if hashlib.sha256(stdout.encode()).hexdigest() != golden["stdout_sha256"]:
                        raise ValueError("stdout differs from the golden")
                if not self.trace and self.trace_op(key) != (code, stdout):
                    raise ValueError("subprocess and in-process outputs differ")
            except ValueError as e:
                bad[key] = f"{self.case_id(key)}: {e}"
        return bad


WORKLOADS = {w.name: w for w in (CorpusWorkload, LadderWorkload, CliWorkload)}


def _goldens() -> dict:
    return json.loads(GOLDENS.read_text())


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


class Outcome:
    """Latencies, results and failures of the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.pass_s: list[float] = []
        self.windows: dict = {}  # key -> (start, end, seconds) of each of its runs
        self.results: dict = {}  # key -> result of its first run
        self.errors: dict = {}  # key -> first failure message

    def run_pass(self, keys, op, after_op=None, held=None) -> None:
        """Apply ``op`` to every key once, in order.  ``after_op`` gets the
        seconds of each operation and runs outside the timing.  The growth
        of ``held()`` during an operation is taken out of its seconds."""
        pass_s = 0.0
        for key in keys:
            window, result, error = _call(op, key, held)
            self._record(key, window, result, error)
            pass_s += window[2]
            if after_op is not None:
                after_op(window[2])
        self.pass_s.append(pass_s)

    def _record(self, key, window: tuple[float, float, float], result, error: str | None):
        self.attempted += 1
        self.windows.setdefault(key, []).append(window)
        if error is not None:
            self.errors.setdefault(key, error)
        elif key not in self.results:
            self.results[key] = result
        elif self.results[key] != result:
            self.errors.setdefault(key, f"{key}: repeated operation gave another result")

    def finish(self, wl: Workload) -> None:
        """Run the workload's checks outside the timed region."""
        for check in (wl.check, wl.check_digest):
            for key, msg in check(self.results).items():
                self.errors.setdefault(key, msg)

    @property
    def failed(self) -> int:
        """Operations on inputs whose run or check failed."""
        return sum(len(self.windows[k]) for k in self.errors)

    def key_means(self, scale=None) -> dict:
        """Each key's mean latency; with ``scale``, each run's seconds
        are first multiplied by ``scale(start, end)``."""
        return {
            k: statistics.fmean(seconds * (scale(start, end) if scale else 1.0)
                                for start, end, seconds in v)
            for k, v in self.windows.items()
        }


def _call(op, key, held=None):
    """Run ``op(key)``: ((start, end, seconds), result, error), where
    seconds is end - start less the growth of ``held()``."""
    held_start = held() if held else 0.0
    start = perf_counter()
    try:
        result, error = op(key), None
    except Exception as e:  # a failed operation is counted, not fatal
        result, error = None, f"{key}: {type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    end = perf_counter()
    seconds = end - start - ((held() - held_start) if held else 0.0)
    return (start, end, seconds), result, error


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank q-quantile: the smallest value with a share >= q of
    the values at or below it."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _import_s() -> float:
    """Time to import berklip.cli in a fresh interpreter."""
    code = ("from time import perf_counter as t; s = t(); import berklip.cli; "
            "print(t() - s)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_python_env(),
                          capture_output=True, text=True, check=True, timeout=CALL_TIMEOUT_S)
    return float(proc.stdout)


_REF_FRACTIONS = [Fraction(i * i + 7, (i % 9 + 1) * 3 ** (i % 5)) for i in range(1, 21)]
_REF_MATRIX = [[(3 ** ((i * 7 + j * 5) % 23) + i * j + 1) * (1 if (i + j) % 3 else -1)
                for j in range(14)] for i in range(14)]


def _reference_kernel() -> int:
    """Fixed work like berklip's inner loops, on the standard library
    only: Fraction products and sums, a 3-adic valuation by repeated
    division, and a fraction-free (Bareiss) determinant of a 14x14
    integer matrix with entries up to 3^22, as in the Sylvester
    resultant.  About 2 ms."""
    total = 0
    for x in _REF_FRACTIONS:
        s = Fraction(0)
        for y in _REF_FRACTIONS[:16]:
            s += x * y
        n = s.numerator
        while n % 3 == 0:
            n //= 3
            total += 1
        total += s.denominator.bit_length()
    a = [row[:] for row in _REF_MATRIX]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return total + a[-1][-1].bit_length()


class SpeedRef:
    """The host's speed through one run, read from a reference kernel.

    The development host runs this one-threaded process at speeds up to
    1.8x apart, and the speed changes within seconds.  CPU time moves
    with wall time, so the process is not waiting: it runs slower.  Ten
    runs of 30 s then spread by more than any bound a regression check
    can use.  So a reading of the reference kernel is taken every
    READ_EVERY_S, and each timing is scaled to the reference speed: its
    seconds times REF_S over the median kernel time of the readings
    around it.  With ``timer``, an interval timer takes the readings,
    also in the middle of a long operation, and the seconds spent in
    them (``held_s``) are taken out of the timings.  Without it, as for
    operations that wait for a subprocess (a reading in this process
    would compete with the child for the host's two cores), readings
    are taken between operations.  The kernel uses only the standard
    library, so no change to berklip moves it, and a change that makes
    berklip faster shows in full.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        self.at: list[float] = []  # when each reading ended
        self.ref_s: list[float] = []  # median kernel seconds of each reading
        self.held_s = 0.0  # seconds spent in readings
        self.op_s = 0.0  # operation seconds since the last reading, without timer
        self._reading = False
        self._old_handler = None

    def held(self) -> float:
        return self.held_s

    def read(self, *_signal_args) -> None:
        if self._reading:
            return
        self._reading = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the operation's objects belongs to the operation
        start = perf_counter()
        times = []
        for _ in range(3):
            kernel_start = perf_counter()
            _reference_kernel()
            times.append(perf_counter() - kernel_start)
        end = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(end)
        self.ref_s.append(statistics.median(times))
        self.held_s += end - start
        self.op_s = 0.0
        self._reading = False

    def between(self) -> None:
        """A reading between two timed spans, unless the timer takes them."""
        if not self.timer:
            self.read()

    def after_op(self, seconds: float) -> None:
        self.op_s += seconds
        if self.op_s >= READ_EVERY_S:
            self.between()

    def __enter__(self):
        self.read()
        if self.timer:
            self._old_handler = signal.signal(signal.SIGALRM, self.read)
            signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self.read()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median of the readings within READ_WINDOW_S of
        [start, end], which include the last one before it and the first
        one after it."""
        lo = min(bisect.bisect_left(self.at, start - READ_WINDOW_S),
                 bisect.bisect_left(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + READ_WINDOW_S),
                 bisect.bisect_right(self.at, end) + 1)
        return REF_S / statistics.median(self.ref_s[max(lo, 0):hi])


class SetUps:
    """The workload's set-ups in one run, each timed as the import of
    berklip.cli in a fresh interpreter plus ``prepare``, which builds the
    inputs afresh.  The first runs before the first pass, and the others
    between operations at the pace set by SETUP_PACE."""

    def __init__(self, wl: Workload, speed: SpeedRef):
        self.wl = wl
        self.speed = speed
        self.timings: list[tuple[float, float, float]] = []  # (seconds, start, end)
        self.wall_s = 0.0  # wall time of the last set-up, interpreter start included
        self.op_s = 0.0  # operation seconds since the last set-up

    def __call__(self) -> None:
        self.speed.between()
        start = perf_counter()
        import_s = _import_s()  # timed inside the child, which readings do not hold up
        held = self.speed.held_s
        prepare_start = perf_counter()
        self.wl.prepare()
        end = perf_counter()
        prepare_s = end - prepare_start - (self.speed.held_s - held)
        self.speed.between()
        self.timings.append((import_s + prepare_s, start, end))
        self.wall_s, self.op_s = end - start, 0.0

    def scaled_s(self) -> list[float]:
        return [s * self.speed.scale(start, end) for s, start, end in self.timings]

    def after_op(self, seconds: float) -> None:
        self.op_s += seconds
        if self.op_s >= SETUP_PACE * self.wall_s:
            self()


def end_to_end(wl: Workload, seconds: float):
    speed = SpeedRef(timer=wl.in_process)
    setups = SetUps(wl, speed)
    out = Outcome()

    def after_op(op_s: float) -> None:
        speed.after_op(op_s)
        setups.after_op(op_s)

    start = perf_counter()
    with speed:
        # after min_passes, another pass starts only if, at the mean time
        # of the passes so far (set-ups included), it ends within ``seconds``
        while (n := len(out.pass_s)) < wl.min_passes or (perf_counter() - start) * (n + 1) / n <= seconds:
            if not setups.timings:
                setups()
            out.run_pass(wl.keys, wl.run_op, after_op, speed.held)
    out.finish(wl)
    means = out.key_means(speed.scale)
    ordered = sorted(wl.op_latencies(means))
    wall = sorted(wl.op_latencies(out.key_means()))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups.scaled_s()), "s"),
        # every pass runs each operation once
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "op_p50_ms": (_rank(ordered, 0.5) * 1e3, "ms"),
        "op_p90_ms": (_rank(ordered, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    ref_ms = sorted(r * 1e3 for r in speed.ref_s)
    notes = [
        f"{len(out.pass_s)} passes over {len(wl.keys)} inputs, unscaled seconds per pass: "
        + " ".join(f"{s:.3f}" for s in out.pass_s),
        "latency of an input is its mean over the passes",
        f"setup_s is the median of {len(setups.timings)} set-ups spread over the run",
        f"times are scaled to the reference speed: {len(ref_ms)} kernel readings, "
        f"p10/p50/p90 {_rank(ref_ms, 0.1):.3f}/{_rank(ref_ms, 0.5):.3f}/{_rank(ref_ms, 0.9):.3f} ms "
        f"against REF_S {REF_S * 1e3:g} ms",
        f"unscaled times: setup_s {statistics.median(t[0] for t in setups.timings):.4g} s, "
        f"ops_per_s {len(wall) / sum(wall):.4g}, op_p50_ms {_rank(wall, 0.5) * 1e3:.4g}, "
        f"op_p90_ms {_rank(wall, 0.9) * 1e3:.4g}",
    ]
    if wl.name == "ladder":
        notes += [f"solve_d{d}_s {s:.4f} s (scaled)" for d, s in wl.step_latencies(means).items()]
    return out, metrics, notes


def _startup_ms(reps: int = 5) -> tuple[float, float]:
    """Medians of the wall time of a bare interpreter and of the import
    of berklip.cli inside a fresh one, in ms."""
    bare = []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=_python_env(),
                       check=True, timeout=CALL_TIMEOUT_S)
        bare.append(perf_counter() - start)
    imports = [_import_s() for _ in range(reps)]
    return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3


def per_layer(wl: Workload, seed: int):
    tracer = benchtrace.Tracer()
    tracer.install()
    try:
        tracer.root("setup", wl.prepare)
    finally:
        tracer.uninstall()
    keys = list(wl.keys)
    plain, traced = Outcome(), Outcome()
    # untraced and traced runs alternate per input, so that drift in the
    # machine's speed affects both sides of trace.overhead_ratio alike
    for key in keys:
        plain.run_pass([key], wl.trace_op)
        tracer.install()
        try:
            traced.run_pass([key], lambda k: tracer.root(f"{wl.name}.op", wl.trace_op, k))
        finally:
            tracer.uninstall()
    traced.finish(wl)
    for key in keys:
        if key in plain.errors:
            traced.errors.setdefault(key, plain.errors[key])
        elif traced.results.get(key) != plain.results[key]:
            traced.errors.setdefault(key, f"{key}: traced and untraced results differ")
    interp_ms, import_ms = _startup_ms()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace_{wl.name}_{seed}.json.gz")

    t = tracer
    pairs = t.counters.get("lipschitz.sample_ratios.pairs", 0)
    maps = wl.factored_ops(keys)
    metrics = {
        "valued.int_val.calls": (t.counters["valued.int_val.calls"], "count"),
        "trace.overhead_ratio": (sum(traced.pass_s) / sum(plain.pass_s), "ratio"),
        "invariants.gpr.calls_per_map": (t.calls("invariants.gpr") / maps if maps else 0.0, "ratio"),
        "lipschitz.sample_ratios.us_per_pair": (
            t.self_s("lipschitz.sample_ratios") / pairs * 1e6 if pairs else 0.0, "us"),
        "serialize.json_out.self_s": (
            sum(t.self_s(f"serialize.{f}") for f in benchtrace.JSON_OUT), "s"),
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.run.self_s": (t.self_s("cli.main"), "s"),
        "cli.exit_nonzero": (
            sum(1 for code, _ in traced.results.values() if code != 0)
            if wl.name == "cli" else 0, "count"),
    }
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (t.calls(name), "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (t.self_s(name), "s")
    for name in OUTPUT_COUNTS:
        metrics[name] = (t.counters.get(name, 0), "count")
    notes = [
        f"{len(keys)} operations: {sum(plain.pass_s):.2f} s untraced, {sum(traced.pass_s):.2f} s traced",
        f"{len(t.spans)} spans written to {OUT_DIR.name}/",
    ]
    return traced, metrics, notes


CALL_COUNTS = [
    "valued.ppow_compare", "polynomials.taylor_shift", "piecewise.lower_envelope",
    "piecewise.PWLinear.max_with", "berk.push_forward", "ratmap.normalize",
    "invariants.hull", "invariants.gpr",
]
SELF_TIMES = [
    "valued.ppow_compare", "polynomials.taylor_shift", "polynomials.sylvester_det_ord",
    "piecewise.lower_envelope", "piecewise.PWLinear.max_with", "berk.push_forward",
    "ratmap.resultant_ord", "ratmap.gir_minors", "ratmap.from_factored",
    "invariants.hull", "invariants.gpr", "invariants.rp_ord", "invariants.bundle",
    "lipschitz.bound_report", "lipschitz.gpr_witness", "lipschitz.sample_ratios",
    "lipschitz.radial_profile", "lipschitz.segment_lip", "serialize.parse_map_data",
]
OUTPUT_COUNTS = ["piecewise.lower_envelope.pieces_out", "invariants.hull.edges_out"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _import_berklip() -> None:
    """Import berklip from ./src and the harness modules built on it."""
    global benchgen, benchtrace, cli, invariants, lipschitz, ratmap, serialize
    if not (SRC / "berklip" / "__init__.py").is_file():
        raise ImportError(f"no berklip package under {SRC}")
    sys.path.insert(0, str(SRC))
    import berklip

    if Path(berklip.__file__).resolve().parent != SRC / "berklip":
        raise ImportError(f"berklip was imported from {berklip.__file__}, not {SRC}")
    import benchgen
    import benchtrace
    from berklip import cli, invariants, lipschitz, ratmap, serialize


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _import_berklip()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, bool(args.trace))
    if args.trace:
        out, metrics, notes = per_layer(wl, args.seed)
    else:
        out, metrics, notes = end_to_end(wl, args.seconds)
    attempted, failed = out.attempted, out.failed
    for msg in list(dict.fromkeys(out.errors.values()))[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{'fail_rate':<44} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
