"""The three workloads: generate a batch, decide it, check it, repeat.

A run works in batches.  Batch b of a workload is generated from
(workload, seed, b), written as `.alg` files and decided by one client,
one pair after another (a closed loop, no worker threads or processes).
Pair workloads parse their files before the timer starts; classify parses
inside the timed `finalg classify` call, as a user's run does.  Batches
repeat while another one fits in the requested seconds; every batch is
new input (apart from the three fixed associative isomorphic pairs of
hard-pairs), so little that the library might cache from one batch can
serve the next.  Verdicts are checked after each batch, outside the timed
region.  Times are reported in reference seconds (see `speed`): each timed
call is scaled by the speed of the host measured around it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import finalg
import finalg.cli
import finalg.isotest

import gen
import speed
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
# set-up probes: this many after each of the first MIN_BATCHES batches, so
# the median spans the run rather than one moment of it
SETUP_REPEATS = 12
# the process's peak RSS levels off within the first three batches, so
# fewer would make peak_rss_mb depend on how many batches fit in a run
MIN_BATCHES = 3
# kernel runs before and after each set-up probe
PROBE_KERNEL_RUNS = 9


def probe_setup(src: Path, inputs: Path) -> tuple:
    """(import seconds, parse seconds) of finalg and the batch files, in a
    fresh process, in reference seconds: scaled by the kernel time taken
    just before and just after the probe."""
    before = speed.kernel_time(PROBE_KERNEL_RUNS)
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(src),
                           str(inputs)],
                          capture_output=True, text=True, timeout=120, check=True)
    after = speed.kernel_time(PROBE_KERNEL_RUNS)
    scale = speed.REF_KERNEL_S / statistics.mean((before, after))
    imported, parsed = done.stdout.strip().splitlines()[-1].split()
    return scale * float(imported), scale * float(parsed)


def _verdict_failure(v, expected, A, B) -> str | None:
    """Why a pair's result is wrong, or None when it is right."""
    if isinstance(v, Exception):
        return f"error: {v!r}"
    if v.outcome == "inconclusive":
        return f"inconclusive: {v.reason}"
    if v.outcome != expected:
        return f"expected {expected}, got {v.outcome} ({v.reason})"
    if v.outcome == gen.ISO and not (
            v.certificate is not None
            and finalg.verify_certificate(A, B, v.certificate)):
        return "certificate failed verification"
    return None


class Run:
    """One run's timings, failures and optional trace."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, src: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.src = work, src
        self.tracer = Tracer() if trace else None
        self.sampler = speed.Sampler()
        self.setup_s: list = []     # (import s, parse s) per probe
        self.walls: list = []       # reference seconds per batch
        self.raw_walls: list = []   # measured seconds per batch
        self.traced_walls: list = []
        self.latencies_ms: list = []
        self.attempted = 0
        self.failures: list = []
        self.peak_rss_mb = 0.0

    def batches(self, write, decide, check) -> None:
        """The batch loop shared by every workload.

        write(b, dir) -> records of what was written; decide(dir, records,
        tag) -> (walls, verdicts, outcome), where walls lists (start, end,
        seconds spent in the sampler) of the calls that make up the batch
        time and verdicts the same of each `graded_isomorphism` call;
        check(dir, records, outcome) -> failure records.  The untraced pass
        runs under the speed sampler and is the one checked.
        """
        start, b, spent = perf_counter(), 0, 0.0
        # start another batch only while one more of average cost still fits
        # in the run; the cost includes generating and checking, so a
        # faster library decides more batches in the same time
        while b < MIN_BATCHES or spent + spent / b <= self.seconds:
            batch_dir = self.work / f"batch{b}"
            records = write(b, batch_dir)
            if b < MIN_BATCHES:
                self.setup_s += [probe_setup(self.src, self.work / "batch0")
                                 for _ in range(SETUP_REPEATS)]
            self.sampler.start()
            try:
                walls, verdicts, outcome = decide(batch_dir, records, "plain")
            finally:
                self.sampler.stop()
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self._record(walls, verdicts)
            if self.tracer is not None:
                self.tracer.install()
                try:
                    walls = decide(batch_dir, records, "traced")[0]
                finally:
                    self.tracer.uninstall()
                self.traced_walls.append(sum(t1 - t0 for t0, t1, _ in walls))
            self.attempted += len(records)
            self.failures += [dict(f, batch=b)
                              for f in check(batch_dir, records, outcome)]
            spent = perf_counter() - start
            b += 1

    def _record(self, walls, verdicts) -> None:
        """Batch wall and latencies of an untraced pass, sampler time taken
        out, in reference seconds."""
        def scaled(t0, t1, h):
            return self.sampler.scale(t0, t1) * (t1 - t0 - h)
        self.raw_walls.append(sum(t1 - t0 - h for t0, t1, h in walls))
        self.walls.append(sum(scaled(*t) for t in walls))
        self.latencies_ms += [1000.0 * scaled(*t) for t in verdicts]


# ------------------------------------------------------------- pair streams

def _decide_pairs(run, batch_dir: Path, records, tag):
    loaded = [(finalg.parse_file(batch_dir / r["a"]),
               finalg.parse_file(batch_dir / r["b"])) for r in records]
    results, timed = [], []
    for A, B in loaded:
        t0, h0 = perf_counter(), run.sampler.spent
        try:
            v = finalg.graded_isomorphism(A, B)
        except Exception as exc:  # one failing pair must not end the run
            v = exc
        h1, t1 = run.sampler.spent, perf_counter()
        timed.append((t0, t1, h1 - h0))
        results.append(v)
    return timed, timed, (loaded, results)


def _check_pairs(batch_dir: Path, records, outcome):
    loaded, results = outcome
    for rec, (A, B), v in zip(records, loaded, results):
        why = _verdict_failure(v, rec["expected"], A, B)
        if why is not None:
            yield {"pair": rec["id"], "why": why}


def run_pairs(run: Run) -> None:
    if run.workload == "screen-stream":
        composition = gen.screen_composition()
        oracle = gen.screen_oracle()

        def make(b):
            return gen.screen_stream(run.seed, b, composition, oracle)
    else:
        def make(b):
            return gen.hard_pairs(run.seed, b)

    run.batches(lambda b, batch_dir: gen.write_pairs(make(b), batch_dir),
                functools.partial(_decide_pairs, run), _check_pairs)


# ------------------------------------------------------------ classify corpus

@contextlib.contextmanager
def _timing_verdicts(run, timed: list):
    """Append (start, end, seconds spent in the sampler) of every
    `graded_isomorphism` call to timed, at every name bound to it in the
    package, as classify imports it by name."""
    original = finalg.isotest.graded_isomorphism

    @functools.wraps(original)
    def timing(*args, **kwargs):
        t0, h0 = perf_counter(), run.sampler.spent
        try:
            return original(*args, **kwargs)
        finally:
            timed.append((t0, perf_counter(), run.sampler.spent - h0))

    bound = [(mod, key) for name, mod in list(sys.modules.items())
             if name.startswith("finalg.") and mod is not None
             for key, value in list(vars(mod).items()) if value is original]
    for mod, key in bound:
        setattr(mod, key, timing)
    try:
        yield
    finally:
        for mod, key in bound:
            setattr(mod, key, original)


def _decide_classify(run, batch_dir: Path, records, tag):
    report_path = batch_dir.parent / f"{batch_dir.name}-{tag}.json"
    verdicts: list = []
    t0, h0 = perf_counter(), run.sampler.spent
    with contextlib.redirect_stdout(io.StringIO()), \
            _timing_verdicts(run, verdicts):
        rc = finalg.cli.main(["classify", str(batch_dir), "--out",
                              str(report_path)])
    h1, t1 = run.sampler.spent, perf_counter()
    walls = [(t0, t1, h1 - h0)]
    if rc != 0:
        return walls, verdicts, None
    return walls, verdicts, json.loads(report_path.read_text(encoding="utf-8"))


def _check_classify(batch_dir: Path, records, report):
    """A failure per corpus entry classified wrongly."""
    if report is None:
        return [{"entry": r["file"], "why": "classify failed"} for r in records]
    key_of = {r["file"]: r["class"] for r in records}
    file_of = {e["label"]: Path(e["path"]).name for e in report["entries"]}
    failures = {}
    for e in report["entries"]:
        if e["error"] is not None:
            failures[Path(e["path"]).name] = f"error: {e['error']}"
    for cls in report["classes"]:
        files = {file_of[label] for label in cls}
        for f in files:
            want = {g for g, k in key_of.items() if k == key_of[f]}
            if files != want and f not in failures:
                failures[f] = (f"class {sorted(files)} differs from "
                               f"expected {sorted(want)}")
    for ev in report["evidence"]:
        if ev["method"] != "search":
            continue
        left, right = file_of[ev["left"]], file_of[ev["right"]]
        why = None
        if ev["outcome"] == "inconclusive":
            why = f"inconclusive: {ev['reason']}"
        elif ev["outcome"] == gen.ISO and not finalg.verify_certificate(
                finalg.parse_file(batch_dir / left),
                finalg.parse_file(batch_dir / right), ev["certificate"]):
            why = "certificate failed verification"
        if why is not None:
            failures.setdefault(left, f"pair with {right}: {why}")
            failures.setdefault(right, f"pair with {left}: {why}")
    return [{"entry": f, "why": why} for f, why in sorted(failures.items())]


def run_classify(run: Run) -> None:
    corpus = [run.src.parent / "corpus" / "div4", run.src.parent / "corpus" / "div8"]
    run.batches(lambda b, batch_dir: gen.write_corpus(
                    gen.classify_corpus(run.seed, b, corpus), batch_dir),
                functools.partial(_decide_classify, run), _check_classify)


RUNNERS = {"screen-stream": run_pairs, "hard-pairs": run_pairs,
           "classify-corpus": run_classify}


# ------------------------------------------------------------------ metrics

def end_to_end(run: Run) -> dict:
    """name -> (value, unit).  p90 only with at least 100 samples, so ten
    lie beyond it."""
    lat = run.latencies_ms
    out = {"setup_s": (statistics.median(i + p for i, p in run.setup_s), "s"),
           "wall_s": (statistics.median(run.walls), "s"),
           "verdict_p50_ms": (statistics.median(lat), "ms")}
    if len(lat) >= 100:
        out["verdict_p90_ms"] = (statistics.quantiles(lat, n=10)[8], "ms")
    out["failed_frac"] = (len(run.failures) / run.attempted, "ratio")
    out["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return out


def per_layer(run: Run) -> dict:
    """name -> (value, unit), per batch: totals over the traced batches
    divided by their number, so runs of different length compare."""
    n = len(run.traced_walls)
    layers = run.tracer.layer_times()
    counts = run.tracer.counts
    out: dict = {}

    def span(name):
        calls, incl, _ = layers.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.ms"] = (1000.0 * incl / n, "ms")

    def count(name):
        out[name] = (counts.get(name, 0) / n, "count")

    for k, part in enumerate(("import", "parse")):
        out[f"setup.{part}_ms"] = (
            1000.0 * statistics.median(t[k] for t in run.setup_s), "ms")
    span("present.parse")
    span("truncated.build")
    span("truncated.filtration")
    span("truncated.generates")
    count("truncated.multiply_vec.calls")
    span("gfp.rref")
    count("gfp.rref.cells")
    count("gfp.rowspace_add.calls")
    span("groebner.basis")
    span("groebner.annihilator")
    span("groebner.eliminate")
    span("groebner.series")
    count("groebner.normal_form.calls")
    span("isotest.fingerprint")
    span("isotest.prune")
    count("isotest.prune.tested")
    count("isotest.prune.eliminated")
    tested = counts.get("isotest.prune.tested", 0)
    out["isotest.prune.yield"] = (
        counts.get("isotest.prune.eliminated", 0) / tested if tested else 0.0,
        "ratio")
    span("isotest.search")
    search_self = layers.get("isotest.search", (0, 0.0, 0.0))[2]
    out["isotest.search.self_ms"] = (1000.0 * search_self / n, "ms")
    for key in ("leaves", "relation_cuts", "generation_failures"):
        count(f"isotest.search.{key}")
    leaves = counts.get("isotest.search.leaves", 0)
    out["isotest.search.leaves_per_s"] = (
        leaves / search_self if search_self else 0.0, "1/s")
    span("isotest.verify")
    for stage in ("fingerprint", "prune", "search"):
        count(f"isotest.decided_by.{stage}")
    out["classify.self_ms"] = (
        1000.0 * layers.get("classify", (0, 0.0, 0.0))[2] / n, "ms")
    for key in ("pairs_run", "transitivity_skips", "evidence_records"):
        count(f"classify.{key}")
    span("cli.main")
    out["trace.overhead"] = (statistics.median(
        t / u for t, u in zip(run.traced_walls, run.raw_walls)), "ratio")
    return out


def layer_table(run: Run) -> dict:
    """Every span name with calls, inclusive and self ms, per batch."""
    n = len(run.traced_walls)
    return {name: {"calls": calls / n, "ms": 1000.0 * incl / n,
                   "self_ms": 1000.0 * own / n}
            for name, (calls, incl, own)
            in sorted(run.tracer.layer_times().items())}
