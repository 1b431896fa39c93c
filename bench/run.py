"""heckealg benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload affine|graded|spectra --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a checkout; it imports ``heckealg`` from ``src/``
of that checkout and from nowhere else.  The library runs in this one
process as a closed loop with one client: a job starts when the previous
one has finished.  The seeded job list of the workload runs in passes
for ``--seconds``: one warm-up pass, then timed passes; another pass
starts only if it should end in time.

Times are reported in reference seconds: every job's time is divided by
the time of the calibration chunks run just before and after it
(``calibrate.py``) and multiplied by the chunk's reference time, so that
the shared machine's changes of speed cancel out.  Set-up times, taken in
fresh interpreters, are scaled by chunks run in the same interpreter
right after the set-up.  The run record keeps the times in plain
seconds as well.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
set-up time, median pass time, per-job p50 and p90 and peak RSS.  With
``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics of the traced passes, with the tracing
overhead.  The line before it is a run record (interpreter, CPU count,
git revision, seed, jobs, failures).  The exit code is 1 when any job
gives a wrong answer or raises, 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 8        # fresh interpreters timed for setup_s, at least
MAX_PROBES = 16         # one after each pass, up to this many
MIN_SAMPLES = 100       # job times per run, so p90 has ten beyond it
MAX_SECONDS = 150       # stop starting passes after this, whatever else
CAL_EVERY_S = 0.2       # job time between two calibration chunks
PROBE_WARMUP_CHUNKS = 2  # calibration chunks after a set-up probe, untimed
PROBE_CHUNKS = 5        # and timed

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms",
                    "job_ms_p90": "ms", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The library cannot be imported from src/ or the workload cannot
    be built."""


def load_library():
    """Import heckealg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import heckealg.cli
    except ImportError as exc:
        raise SetupError("cannot import heckealg from %s: %s"
                             % (SRC, exc)) from exc
    where = Path(heckealg.cli.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SetupError("heckealg was imported from %s, not %s"
                             % (where, SRC))


def setup_once(workload: str, seed: int, size: str) -> dict:
    """Import the library and build the job list; meant for a fresh
    interpreter, where the import is cold.

    Calibration chunks run afterwards in the same interpreter, because
    the speed of a fresh process can differ from that of the one that
    started it; ``scale`` turns the set-up times into reference seconds.
    """
    t0 = time.perf_counter()
    load_library()
    t1 = time.perf_counter()
    import workloads
    jobs = workloads.build(workload, seed, size)
    t2 = time.perf_counter()
    import calibrate
    for _ in range(PROBE_WARMUP_CHUNKS):
        calibrate.chunk()
    chunk = statistics.median(calibrate.chunk()
                              for _ in range(PROBE_CHUNKS))
    return {"import_s": t1 - t0, "build_s": t2 - t1, "jobs": len(jobs),
            "scale": calibrate.REFERENCE_CHUNK_S / chunk}


def probe_setup(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError("set-up probe failed: %s"
                             % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision():
    """Commit of the checkout, read from .git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(jobs, times: list, failures: list, chunks: list):
    """Run every job once; append per-job times in reference seconds, the
    labels of failed jobs and the calibration chunk times.  Returns the
    pass time in reference seconds and in seconds.

    Calibration chunks run before the first job, after the last and
    after every ``CAL_EVERY_S`` of job time, one chunk per
    ``CAL_EVERY_S`` of the jobs just run, so that a long job is followed
    by as many chunks as short ones of the same length.  The jobs in
    between two groups of chunks are scaled by the mean chunk time of
    the two groups.
    """
    import calibrate

    def calibration(n: int) -> float:
        group = [calibrate.chunk() for _ in range(n)]
        chunks.extend(group)
        return sum(group) / n

    clock = time.perf_counter
    before = calibration(1)
    segment = []
    ref_total = raw_total = 0.0
    for i, job in enumerate(jobs):
        t = clock()
        try:
            ok = job.run()
        except Exception:
            ok = False
            print("job %s raised:\n%s" % (job.label, traceback.format_exc()),
                  file=sys.stderr)
        segment.append(clock() - t)
        if not ok:
            failures.append(job.label)
        if i == len(jobs) - 1 or sum(segment) >= CAL_EVERY_S:
            after = calibration(max(1, round(sum(segment) / CAL_EVERY_S)))
            scale = 2 * calibrate.REFERENCE_CHUNK_S / (before + after)
            times.extend(dur * scale for dur in segment)
            ref_total += sum(segment) * scale
            raw_total += sum(segment)
            before, segment = after, []
    return ref_total, raw_total


def run_passes(jobs, seconds: float, traced: bool, probe):
    """A warm-up pass, then passes while the next one should end within
    ``seconds``, and until there are enough samples; with tracing,
    untraced and traced passes alternate, starting untraced.  The
    warm-up pass fills the library's caches; its answers are checked
    but its times are not kept.

    ``probe()`` times one set-up in a fresh interpreter.  It runs after
    each pass, so that the set-up samples are spread over the run like
    the passes are, and again at the end until there are enough.
    """
    import calibrate
    import tracing
    tracer = tracing.Tracer()
    walls = {False: [], True: []}   # (reference s, s) per pass
    times = []              # untraced job times only
    layers = []
    failures: list = []
    chunks: list = []
    probes = []
    clock = time.perf_counter
    start = clock()
    calibrate.warm_up()
    run_pass(jobs, [], failures, [])
    k = 0
    while True:
        pass_start = clock()
        with_trace = traced and k % 2 == 1
        if with_trace:
            tracer.reset()
            tracer.install()
            try:
                ref, raw = run_pass(jobs, [], failures, chunks)
            finally:
                tracer.remove()
            walls[True].append((ref, raw))
            # Layer times in reference seconds, at the pass's mean scale.
            layers.append({name: value * ref / raw
                           if name.endswith("_s") else value
                           for name, value in tracer.metrics().items()})
        else:
            walls[False].append(run_pass(jobs, times, failures, chunks))
        if len(probes) < MAX_PROBES:
            probes.append(probe())
        k += 1
        now = clock()
        if now - start >= MAX_SECONDS:
            break
        enough = walls[True] if traced else len(times) >= MIN_SAMPLES
        if enough and now - start + (now - pass_start) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return walls, times, layers, failures, chunks, probes


def job_kind(label: str) -> str:
    """A job label without its trailing index."""
    head, _, tail = label.rpartition("/")
    return head if tail.isdigit() else label


def median_metrics(runs):
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("affine", "graded", "spectra"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a few jobs of every kind (smoke tests)")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.probe_setup:
            print(json.dumps(setup_once(args.workload, args.seed, args.size)))
            return 0
        load_library()
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    import calibrate
    import workloads
    jobs = workloads.build(args.workload, args.seed, args.size)
    walls, times, layers, failures, chunks, probes = run_passes(
        jobs, args.seconds, bool(args.trace), lambda: probe_setup(args))

    attempted = len(jobs) * (1 + len(walls[False]) + len(walls[True]))
    wall = statistics.median(ref for ref, _raw in walls[False])
    samples = sorted(times)
    if args.trace:
        values = median_metrics(layers)
        values["cli.import_s"] = statistics.median(
            p["import_s"] * p["scale"] for p in probes)
        values["trace.wall_s"] = statistics.median(ref for ref, _raw
                                                   in walls[True])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        units = {name: ("s" if name.endswith("_s") else "count")
                 for name in values}
        units["spectra.act_point_per_point"] = "ratio"
    else:
        values = {
            "setup_s": statistics.median(
                (p["import_s"] + p["build_s"]) * p["scale"] for p in probes),
            "wall_s": wall,
            "job_ms_p50": 1e3 * statistics.median(samples),
            "job_ms_p90": 1e3 * statistics.quantiles(samples, n=10)[8],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "jobs_per_pass": len(jobs),
        "jobs_by_kind": dict(Counter(job_kind(j.label) for j in jobs)),
        "passes_untraced": len(walls[False]),
        "passes_traced": len(walls[True]),
        "pass_walls_ref_s": [round(ref, 4) for ref, _raw in walls[False]],
        "pass_walls_s": [round(raw, 4) for _ref, raw in walls[False]],
        "job_samples": len(samples),
        "setup_probes_s": [round(p["import_s"] + p["build_s"], 4)
                           for p in probes],
        "calibration_chunks": len(chunks),
        "calibration_chunk_s": statistics.median(chunks),
        "setup_probe_scales": [round(p["scale"], 3) for p in probes],
        "failed_ratio": len(failures) / attempted,
        "failed_jobs": sorted(set(failures))[:20],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
