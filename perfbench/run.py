"""clickdyn benchmark: seeded closed-loop jobs, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {forced,output,statics} \\
        --seed N --seconds S --trace {0,1}

One client in one process runs jobs in a closed loop: the next job starts
only when the previous one has returned.  A job is an in-process
``clickdyn.cli.main([...])`` call writing to a scratch directory, or one
library call.  Jobs come in rounds (see ``jobs.py``).  A run executes a
fixed number of rounds, ``--seconds`` divided by the workload's nominal
round time, so two commits compared on one seed run exactly the same jobs;
on the reference machine (2-core x86 VM) the jobs are busy for about
``--seconds``.  Every job's output is checked after it returns, outside
its timed interval.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh interpreters importing ``clickdyn.cli`` and generating the
inputs), jobs per second, median and tail job latency, and peak resident
memory.  Job times are normalized to the reference CPU speed with the
kernel timings of ``calibrate.py``, taken 40 times a second during the
jobs, because a shared 2-core x86 VM changes speed by about 1.6x every few
seconds; the raw values are printed with the context.  Set-up time is
normalized instead by the time a fresh interpreter takes to import a fixed
set of standard-library modules, taken just before and after each set-up:
import speed drifts with the host's load over minutes and does not follow
the kernel's speed.

``--trace 1`` runs fewer rounds untraced, then the same rounds traced
(``tracer.py``), and reports the per-layer metrics from raw times; the
traced outputs must be byte-identical to the untraced ones.

Earlier lines of standard output carry the run's context (versions, nproc,
seed, job counts, failure fraction); the last line is the result object.
Scratch files and the span file go to ``.perfbench/`` in the checkout.
"""

import os

# One process, no worker threads: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_ROUNDS = 4
# Seconds per round on the reference machine (2-core x86 VM, Python 3.11,
# numpy 2.4); fixes the rounds per run.  A traced run covers fewer rounds
# because it runs them twice, untraced and traced.
NOMINAL_ROUND_S = {"forced": 7.1, "output": 0.95, "statics": 0.36}
TRACE_SHARE = 0.4
# Standard-library modules that neither the program nor this script loads.
# Importing them in a fresh interpreter is work of the set-up's kind
# (finding, unmarshalling and running modules, loading extension modules),
# so its time tracks how fast the host imports at the moment.
REFERENCE_MODULES = (
    "asyncio", "email.mime.multipart", "http.server", "xml.dom.minidom",
    "xml.etree.ElementTree", "xmlrpc.client", "wsgiref.simple_server",
    "sqlite3", "tarfile", "unittest.mock", "logging.handlers", "ctypes",
    "multiprocessing.pool", "concurrent.futures", "difflib", "uuid",
    "html.parser", "urllib.request", "pydoc", "doctest", "mailbox", "smtplib",
    "imaplib", "ftplib", "configparser", "optparse", "cProfile", "pstats",
    "pdb", "plistlib", "tomllib", "zoneinfo", "csv", "shelve")
# A typical time for that import on the reference machine.
REFERENCE_IMPORT_S = 0.12
SUBCOMMANDS = ("energy", "moment", "stiffness", "phase-portrait",
               "equilibria", "bifurcation-set", "freevib", "hbm", "melnikov",
               "simulate", "sweep", "lyapunov", "poincare")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time importing clickdyn.cli and generating the "
                         "inputs in this fresh interpreter, then exit")
    ap.add_argument("--reference-import", action="store_true",
                    help="time importing the reference modules in this "
                         "fresh interpreter, then exit")
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on sys.path and import the package."""
    if not (SRC / "clickdyn" / "cli.py").is_file():
        raise SystemExit(f"error: no clickdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clickdyn.cli

    if Path(clickdyn.cli.__file__).resolve().parent != SRC / "clickdyn":
        raise SystemExit("error: imported clickdyn from outside the checkout")


def _setup_only(args) -> int:
    t0 = time.perf_counter()
    _import_program()
    import jobs

    for r in range(SETUP_ROUNDS):
        jobs.round_jobs(args.workload, args.seed, r)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _reference_import() -> int:
    loaded = [name for name in REFERENCE_MODULES if name in sys.modules]
    if loaded:
        raise SystemExit(f"error: reference modules already loaded: {loaded}")
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(json.dumps({"reference_s": time.perf_counter() - t0}))
    return 0


def _child(args, flag: str) -> dict:
    """Run this script in a fresh interpreter in one of its timing modes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), flag,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _time_setup(args) -> list[dict]:
    """Set-up times, each with the mean of the reference import times
    taken just before and just after it."""
    refs = [_child(args, "--reference-import")["reference_s"]]
    samples = []
    for _ in range(SETUP_REPEATS):
        setup_s = _child(args, "--setup-only")["setup_s"]
        refs.append(_child(args, "--reference-import")["reference_s"])
        samples.append({"setup_s": setup_s,
                        "reference_s": 0.5 * (refs[-2] + refs[-1])})
    return samples


def _report_failure(rec: dict) -> None:
    print(f"job {rec['kind']} {rec['failure']}: {rec['job']}: "
          f"{rec['detail']}", file=sys.stderr)


class Runner:
    """Runs jobs one after another and keeps one record per job."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import jobs

        self.jobs = jobs
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._rounds: dict[int, list[dict]] = {}

    def round(self, r: int) -> list[dict]:
        if r not in self._rounds:
            self._rounds[r] = self.jobs.round_jobs(self.workload, self.seed, r)
        return self._rounds[r]

    def run(self, job: dict, index: int, check: bool = True) -> dict:
        """Run, time and check one job.

        The record's ``failure`` is None, ``"raised"`` (an exception or a
        nonzero exit code: the job produced nothing) or ``"wrong"`` (its
        outputs failed a check).
        """
        out = self.workdir / f"job{index}"
        rec = {"kind": job["kind"], "job": job, "failure": None,
               "digest": None}
        rec["t0"] = time.perf_counter()
        try:
            result = self.jobs.execute(job, out)
        except Exception:
            rec["failure"] = "raised"
            rec["detail"] = traceback.format_exc()
        rec["t1"] = time.perf_counter()
        rec["latency"] = rec["t1"] - rec["t0"]
        if rec["failure"] is None and "argv" in job and result != 0:
            rec["failure"] = "raised"
            rec["detail"] = f"exit code {result}"
        if rec["failure"] is None:
            try:
                errors = self.jobs.check(job, out, result) if check else []
                rec["digest"] = self.jobs.digest(job, out, result)
            except Exception:
                errors = [traceback.format_exc()]
            if errors:
                rec["failure"] = "wrong"
                rec["detail"] = "; ".join(errors)
        shutil.rmtree(out, ignore_errors=True)
        if rec["failure"]:
            _report_failure(rec)
        return rec

    def rounds(self, n_rounds: int, check: bool = True) -> list[dict]:
        records = []
        for r in range(n_rounds):
            for job in self.round(r):
                records.append(self.run(job, len(records), check))
        return records



def _n_rounds(args, share: float = 1.0) -> int:
    return max(1, round(share * args.seconds
                        / NOMINAL_ROUND_S[args.workload]))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _rerun(runner: Runner, records: list[dict]) -> None:
    """Run the workload's rerun job again; its outputs must not change."""
    kind = runner.jobs.RERUN_KIND[runner.workload]
    first = next(rec for rec in records if rec["kind"] == kind)
    again = runner.run(first["job"], len(records), check=False)
    if first["failure"] is None and again["digest"] != first["digest"]:
        first["failure"] = "wrong"
        first["detail"] = "rerun outputs are not byte-identical"
        _report_failure(first)


def _context(args, records: list[dict]) -> dict:
    import numpy
    import scipy

    failed = sum(1 for rec in records if rec["failure"])
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec["latency"])
    kinds = {kind: {"jobs": len(lat), "p50_s": statistics.median(lat)}
             for kind, lat in by_kind.items()}
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "threads": threading.active_count(),
            "jobs": len(records), "failed": failed,
            "fail_frac": failed / len(records), "kinds": kinds}


def _job_stats(records: list[dict], latency) -> dict:
    """Throughput and latencies of the jobs under one clock.

    Every job that returned counts, failed or not: failures are reported
    apart (``failed``, ``fail_frac``), and which seeded inputs hit a known
    defect would otherwise move the throughput.
    """
    times = [latency(rec) for rec in records]
    tail, tail_pct = _tail(times)
    return {"jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times), "job_tail_s": tail,
            "job_tail_pct": tail_pct, "busy_s": sum(times)}


def _end_to_end(args, runner: Runner) -> tuple[list[dict], dict, dict]:
    from calibrate import REFERENCE_S, SpeedSampler

    setup = _time_setup(args)
    with SpeedSampler() as sampler:
        records = runner.rounds(_n_rounds(args))
        _rerun(runner, records)
    norm = _job_stats(records,
                      lambda rec: sampler.normalize(rec["t0"], rec["t1"]))
    raw = _job_stats(records, lambda rec: rec["latency"])
    raw["setup_s"] = statistics.median(x["setup_s"] for x in setup)
    setup_s = statistics.median(
        x["setup_s"] * REFERENCE_IMPORT_S / x["reference_s"] for x in setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"),
               "jobs_per_s": (norm["jobs_per_s"], "1/s"),
               "job_p50_s": (norm["job_p50_s"], "s"),
               "job_tail_s": (norm["job_tail_s"], "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    context = {"rounds": _n_rounds(args),
               "job_tail_pct": norm["job_tail_pct"], "raw": raw,
               "speed": REFERENCE_S / statistics.median(sampler.costs),
               "setup_samples": setup}
    return records, metrics, context


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(args, runner: Runner) -> tuple[list[dict], dict, dict]:
    from tracer import Tracer

    n_rounds = _n_rounds(args, TRACE_SHARE)
    untraced = runner.rounds(n_rounds)
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for r in range(n_rounds):
            for job in runner.round(r):
                tracer.job = len(traced)
                traced.append(runner.run(job, len(traced), check=False))
    finally:
        tracer.uninstall()
    for base, rec in zip(untraced, traced):
        if rec["failure"] is None and rec["digest"] != base["digest"]:
            rec["failure"] = "wrong"
            rec["detail"] = "traced outputs differ from untraced ones"
            _report_failure(rec)
    tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.npz")

    c = tracer.counts
    s = tracer.self_s
    acc = c["integrate.steps_accepted"]
    rej = c["integrate.steps_rejected"]
    sweep_points = c["hbm.sweep_points"]
    untraced_s = sum(rec["latency"] for rec in untraced)
    traced_s = sum(rec["latency"] for rec in traced)
    m = {
        "integrate.calls": (c["integrate.integrate_rhs.calls"], "count"),
        "integrate.self_s": (s["integrate"], "s"),
        "integrate.steps_accepted": (acc, "count"),
        "integrate.steps_rejected": (rej, "count"),
        "integrate.accept_ratio": (_ratio(acc, acc + rej), "ratio"),
        "integrate.rhs_evals": (c["integrate.rhs_evals"], "count"),
        "integrate.rhs_per_step": (_ratio(c["integrate.rhs_evals"], acc),
                                   "ratio"),
        "integrate.steps_per_s": (_ratio(acc, s["integrate"]), "1/s"),
        "hbm.self_s": (s["hbm"], "s"),
        "hbm.root_solves": (c["hbm.frf_amplitudes.calls"], "count"),
        "hbm.root_solves_per_s": (_ratio(c["hbm.frf_amplitudes.calls"],
                                         s["hbm"]), "1/s"),
        "hbm.sweep_points": (sweep_points, "count"),
        "hbm.periods_per_sweep_point": (
            _ratio(c["hbm.sweep_periods"], sweep_points), "ratio"),
        "hbm.rhs_per_sweep_point": (
            _ratio(c["hbm.sweep_rhs_evals"], sweep_points), "ratio"),
        "freevib.self_s": (s["freevib"], "s"),
        "freevib.periods": (c["freevib.period_of_energy.calls"], "count"),
        "freevib.periods_per_s": (_ratio(c["freevib.period_of_energy.calls"],
                                         s["freevib"]), "1/s"),
        "freevib.potential_calls": (c["freevib.potential_calls"], "count"),
        "freevib.potential_points": (c["freevib.potential_points"], "count"),
        "equilibria.self_s": (s["equilibria"], "s"),
        "equilibria.calls": (c["equilibria.calls"], "count"),
        "equilibria.curve_samples": (c["equilibria.curve_samples"], "count"),
        "model.self_s": (s["model"], "s"),
        "model.calls": (c["model.calls"], "count"),
        "model.points": (c["model.points"], "count"),
        "model.points_per_s": (_ratio(c["model.points"], s["model"]), "1/s"),
        "melnikov.self_s": (s["melnikov"], "s"),
        "melnikov.cells": (c["melnikov.cells"], "count"),
        "melnikov.cells_per_s": (_ratio(c["melnikov.cells"], s["melnikov"]),
                                 "1/s"),
        "melnikov.orbit_samples": (c["melnikov.orbit_samples"], "count"),
        "dataset.self_s": (s["dataset"], "s"),
        "dataset.rows": (c["dataset.rows"], "count"),
        "dataset.bytes": (c["dataset.bytes"], "count"),
        "dataset.rows_per_s": (_ratio(c["dataset.rows"], s["dataset"]),
                               "1/s"),
        "cli.self_s": (s["cli"], "s"),
        "cli.parse_s": (tracer.parse_s, "s"),
    }
    for sub in SUBCOMMANDS:
        walls = [rec["latency"] for rec in untraced
                 if "argv" in rec["job"] and rec["job"]["argv"][0] == sub]
        m[f"cli.{sub}.wall_s"] = (statistics.median(walls) if walls else 0.0,
                                  "s")
    m["trace.jobs_per_s_untraced"] = (len(untraced) / untraced_s, "1/s")
    m["trace.jobs_per_s_traced"] = (len(traced) / traced_s, "1/s")
    m["trace.overhead_ratio"] = (m["trace.jobs_per_s_traced"][0]
                                 / m["trace.jobs_per_s_untraced"][0], "ratio")
    m["trace.coverage"] = (tracer.covered_s / traced_s, "ratio")
    context = {"rounds": n_rounds, "spans": len(tracer.span_name)}
    return untraced + traced, m, context


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:
        return _setup_only(args)
    if args.reference_import:
        return _reference_import()
    _import_program()
    workdir = WORK / f"work-{os.getpid()}"
    runner = Runner(args.workload, args.seed, workdir)
    try:
        measure = _per_layer if args.trace else _end_to_end
        records, metrics, extra = measure(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context = _context(args, records)
    context.update(extra)
    print(json.dumps({"context": context}))
    failed = context["failed"]
    print(json.dumps({
        # outputs that were produced are right; jobs that raised count
        # only as failed
        "correct": all(rec["failure"] != "wrong" for rec in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
