"""cvqsim benchmark: seeded closed-loop workloads of fresh `cvq` processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Run from the root of a source checkout; the jobs import cvqsim from
./src.  One client submits one job at a time (a closed loop).  Every job
is a fresh Python process that calls `cvqsim.cli.main(argv)` or one
public library function and exits, because every `cvq` invocation
starts with cold caches.  A round runs the workload's whole job list
once; rounds repeat until about --seconds have passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the job
time of a round, averaged over the rounds, and the set-up time, sampled
at even intervals through the run.  --trace 1 alternates untraced and
traced rounds; the traced rounds give the per-layer metrics from spans
around each layer's public functions, the untraced ones the job time of
each kind, and the ratio of the two kinds of round gives trace.overhead.

Every job's output is checked (see checks.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, with the machine it ran on, goes
to .bench_build/perfbench/results/ (or --results DIR); --compare prints
two such sets side by side.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
JOB = os.path.join(HERE, "job.py")
# Set-up spawns per run, spread evenly over it: on a shared host the
# speed drifts over seconds, and five spawns in a row at the start of a
# run spread by a third of their median from run to run.
SETUP_SAMPLES = 8
# Untraced runs time at least this many rounds, so times are averages.
MIN_ROUNDS = 3
# A run that is not done by then is cut short, well inside 180 s.
HARD_LIMIT_S = 170.0
IMPORT_ONLY = "import cvqsim.cli, cvqsim.telegates"
# BLAS and OpenMP threads per job.  With two threads on a shared 2-CPU
# machine a 60x60 expm took 10x longer and varied by 20% from spawn to
# spawn, so jobs use one thread and leave a CPU to the rest of the box.
JOB_THREADS = 1

# The harness runs output checks between jobs; one BLAS thread keeps idle
# worker threads of its own from spinning while the next job starts.
os.environ["OPENBLAS_NUM_THREADS"] = str(JOB_THREADS)
sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

GAUSSIAN_GATES = ("gaussian.squeeze", "gaussian.phase_shift",
                  "gaussian.beam_splitter", "gaussian.displace",
                  "gaussian.loss")
FOCK_OPS = ("fock.displace_fock", "fock.squeeze_fock", "fock.phase_fock",
            "fock.beam_splitter_fock", "fock.apply_cubic",
            "fock.controlled_phase", "fock.homodyne_fock")


def job_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("CVQ_OUT_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(JOB_THREADS)
    return env


def machine_record(env: dict) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "git_commit": commit}


class Runner:
    """Spawns job processes one at a time and records what they cost."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def spawn(self, argv, stderr_path=None) -> dict:
        """Run argv to completion; time from spawn to exit, peak RSS."""
        err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(
                min(max(1.0, self.deadline - time.monotonic()), HARD_LIMIT_S),
                proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stderr_path:
                err.close()
        return {"seconds": seconds, "exit": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def job(self, job: dict, trace_path=None) -> dict:
        argv = [sys.executable, JOB, json.dumps(job)]
        if trace_path:
            argv += ["--trace", trace_path]
        return self.spawn(argv, job["out"] + ".stderr")


class SetupSampler:
    """Times spawning a process that imports cvqsim.cli/telegates.

    One unmeasured spawn first writes the bytecode caches, which a user
    pays once per install, not once per run.  After that, `due()` takes
    one sample whenever `interval` seconds have passed since the last.
    """

    ARGV = [sys.executable, "-c", IMPORT_ONLY]

    def __init__(self, runner: Runner, interval: float):
        self.runner = runner
        self.interval = interval
        self.times = []
        if runner.spawn(self.ARGV)["exit"] != 0:
            raise RuntimeError("cannot import cvqsim from ./src")
        self.next = time.monotonic()

    def due(self) -> None:
        if time.monotonic() < self.next:
            return
        res = self.runner.spawn(self.ARGV)
        if res["exit"] != 0:
            raise RuntimeError("cannot import cvqsim from ./src")
        self.times.append(res["seconds"])
        self.next = time.monotonic() + self.interval


def fock_references(runner: Runner, jobs: list, refs_dir: str) -> dict:
    """Run every Fock program again with more levels, untimed."""
    os.makedirs(refs_dir, exist_ok=True)
    refs = {}
    for job in jobs:
        if job["kind"] != "run_fock":
            continue
        out = os.path.join(refs_dir, job["id"] + ".json")
        cutoff = job["cutoff"] + workloads.REFERENCE_EXTRA_LEVELS
        argv = job["argv"][:job["argv"].index("--cutoff")]
        ref = dict(job, argv=argv + ["--cutoff", str(cutoff), "--out", out],
                   out=out)
        if runner.job(ref)["exit"] != 0:
            raise RuntimeError(f"reference run of {job['id']} failed")
        refs[job["id"]] = out
    return refs


def run_round(runner: Runner, jobs: list, refs: dict, setup: SetupSampler,
              trace_dir=None) -> dict:
    """Run every job once; wall_s is their summed time, spawn to exit."""
    records = []
    for job in jobs:
        setup.due()
        for path in (job["out"], job.get("params", {}).get("csv")):
            if path and os.path.exists(path):
                os.remove(path)
        trace_path = (os.path.join(trace_dir, job["id"] + ".json")
                      if trace_dir else None)
        if trace_path and os.path.exists(trace_path):
            os.remove(trace_path)
        rec = {"id": job["id"], "kind": job["kind"]}
        rec.update(runner.job(job, trace_path))
        rec["error"] = None
        if rec["exit"] != 0:
            rec["error"] = f"exit code {rec['exit']}"
        else:
            try:
                checks.check_job(job, refs.get(job["id"]))
            except (checks.CheckError, OSError, ValueError, KeyError,
                    TypeError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        if job["call"] == "cli" and os.path.exists(job["out"]):
            rec["output_bytes"] = os.path.getsize(job["out"])
        if trace_path:
            rec["trace"] = trace_path
        records.append(rec)
    return {"traced": bool(trace_dir), "jobs": records,
            "wall_s": sum(rec["seconds"] for rec in records)}


def end_to_end(rounds: list, setup_times: list) -> dict:
    """Round wall time averaged over the untraced rounds; median set-up.

    Means, not medians: on a shared machine whole rounds run slow
    together, and over ten seeds the mean of three to five rounds
    spread less than their median.
    """
    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(len(r["jobs"]) for r in plain)
    failed = sum(rec["error"] is not None for r in plain for rec in r["jobs"])
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(rec["rss_mb"] for r in plain for rec in r["jobs"]),
    }


class _Spans:
    """Per-layer totals over every span of the traced rounds."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.sized = {}            # (name, size tag) -> [calls, seconds]
        self.extra = {}
        self.stream = {True: [0, 0.0], False: [0, 0.0]}
        self.counters = {"tdm.sink_s": 0.0, "fock.max_leakage": 0.0}

    def add_file(self, path: str) -> None:
        with open(path) as fh:
            data = json.load(fh)
        spans = data["spans"]
        child = [0.0] * len(spans)
        states = {}
        for name, start, end, parent, ok, size, extra in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, ok, size, extra) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[idx]
            if not ok or (extra and extra.get("exit")):
                self.errors[layer] += 1
            if size is not None:
                cell = self.sized.setdefault((name, size), [0, 0.0])
                cell[0] += 1
                cell[1] += dur
            for key in ("instructions", "steps"):
                if extra and key in extra:
                    self.extra[key] = self.extra.get(key, 0) + extra[key]
            if extra and "state" in extra:
                states[extra["state"]] = extra["sites"]
            if extra and "recorded" in extra:
                cell = self.stream[extra["recorded"]]
                cell[0] += extra["slots"]
                cell[1] += dur
        self.extra["sites"] = self.extra.get("sites", 0) + sum(states.values())
        self.counters["tdm.sink_s"] += data["counters"]["tdm.sink_s"]
        self.counters["fock.max_leakage"] = max(
            self.counters["fock.max_leakage"],
            data["counters"]["fock.max_leakage"])

    def layer_sum(self, table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    def mean_us(self, names, size):
        calls = sum(self.sized.get((n, size), [0, 0.0])[0] for n in names)
        secs = sum(self.sized.get((n, size), [0, 0.0])[1] for n in names)
        return secs / calls * 1e6 if calls else 0.0


def per_layer(rounds: list, notes: list) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    sp = _Spans()
    for rnd in traced:
        for rec in rnd["jobs"]:
            if os.path.exists(rec.get("trace", "")):
                sp.add_file(rec["trace"])
    k = len(traced)
    values = {}
    for kind in workloads.KINDS:
        values[f"jobs.{kind}_s"] = statistics.fmean(
            sum(rec["seconds"] for rec in r["jobs"] if rec["kind"] == kind)
            for r in plain)
    for layer in LAYERS:
        values[f"{layer}.calls"] = sp.layer_sum(sp.calls, layer) / k
        values[f"{layer}.self_s"] = sp.layer_sum(sp.self_s, layer) / k
        values[f"{layer}.errors"] = sp.errors[layer] / k
    values["gaussian.gate_calls"] = sum(sp.calls.get(n, 0)
                                        for n in GAUSSIAN_GATES) / k
    for n in (workloads.LOOP_MODES,) + workloads.GAUSSIAN_MODES:
        name = f"gaussian.gate_us.n{n}"
        values[name] = sp.mean_us(GAUSSIAN_GATES, f"n{n}")
    for fn in ("compile_gates", "simulate", "generate_entangled"):
        values[f"loop.{fn}_s"] = sp.incl_s.get(f"loop.{fn}", 0.0) / k
    steps = sp.extra.get("steps", 0)
    values["loop.steps"] = steps / k
    values["loop.us_per_step"] = (sp.incl_s.get("loop.simulate", 0.0)
                                  / steps * 1e6 if steps else 0.0)
    values["cli.output_bytes"] = sum(rec.get("output_bytes", 0)
                                     for r in traced for rec in r["jobs"]) / k
    values["dsl.parse_s"] = sp.incl_s.get("dsl.parse", 0.0) / k
    values["dsl.validate_s"] = sp.incl_s.get("dsl.validate", 0.0) / k
    values["dsl.instructions"] = sp.extra.get("instructions", 0) / k
    values["fock.displace_fock.calls"] = sp.calls.get("fock.displace_fock",
                                                      0) / k
    for fn in ("displace_fock", "squeeze_fock", "apply_cubic",
               "homodyne_fock"):
        values[f"fock.{fn}.self_s"] = sp.self_s.get(f"fock.{fn}", 0.0) / k
    for _, cutoff in workloads.FOCK_CUTOFFS:
        name = f"fock.us_per_op.c{cutoff}"
        values[name] = sp.mean_us(FOCK_OPS, f"c{cutoff}")
    values["fock.max_leakage"] = sp.counters["fock.max_leakage"]
    values["telegates.channel_fidelity_s"] = sp.incl_s.get(
        "telegates.channel_fidelity", 0.0) / k
    values["telegates.tele_cubic_s"] = sp.incl_s.get("telegates.tele_cubic",
                                                     0.0) / k
    values["gkp.synthesis_s"] = (sp.incl_s.get("gkp.gkp_state", 0.0)
                                 + sp.incl_s.get("gkp.synthesis_leakage", 0.0)
                                 ) / k
    values["gkp.lattice_mass_s"] = sp.incl_s.get("gkp.lattice_mass", 0.0) / k
    values["gkp.sites"] = sp.extra.get("sites", 0) / k
    for recorded, name in ((False, "tdm.us_per_slot"),
                           (True, "tdm.us_per_slot_recorded")):
        slots, secs = sp.stream[recorded]
        values[name] = secs / slots * 1e6 if slots else 0.0
    values["tdm.slots"] = sp.stream[False][0] / k
    values["tdm.sink_s"] = sp.counters["tdm.sink_s"] / k
    values["tdm.emitted_covariance_s"] = sp.incl_s.get(
        "tdm.emitted_covariance", 0.0) / k
    values["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    attempted = sum(len(r["jobs"]) for r in rounds)
    values["fail_ratio"] = sum(rec["error"] is not None for r in rounds
                               for rec in r["jobs"]) / attempted
    notes.extend(f"{name}: 0, this workload does not run that code"
                 for name, v in values.items()
                 if v == 0 and not name.endswith(("errors", "fail_ratio")))
    return values


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "cvqsim", "__init__.py")):
        print(f"perfbench: no cvqsim source under {ROOT}/src", file=sys.stderr)
        return 2
    bench = load_benchmark()
    begin = time.monotonic()
    env = job_env()
    runner = Runner(env, begin + HARD_LIMIT_S)
    base = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    jobs = workloads.build(args.workload, args.seed,
                           os.path.join(base, "inputs"),
                           os.path.join(base, "outputs"))
    refs = fock_references(runner, jobs, os.path.join(base, "refs"))
    setup = SetupSampler(runner, args.seconds / SETUP_SAMPLES)
    rounds = []
    start = time.monotonic()
    while True:
        trace_dir = None
        if args.trace and len(rounds) % 2 == 1:
            trace_dir = os.path.join(base, "traces", f"round{len(rounds)}")
            os.makedirs(trace_dir, exist_ok=True)
        rounds.append(run_round(runner, jobs, refs, setup, trace_dir))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        enough = len(rounds) >= (2 if args.trace else MIN_ROUNDS)
        if enough and (elapsed + per_round / 2 > args.seconds
                       or time.monotonic() + per_round > begin + HARD_LIMIT_S):
            break
        if time.monotonic() > begin + HARD_LIMIT_S:
            print("perfbench: out of time", file=sys.stderr)
            return 2

    notes = []
    if args.trace:
        values = per_layer(rounds, notes)
        wanted = bench["per_layer"]
    else:
        values = end_to_end(rounds, setup.times)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    errors = [f"round {i} {rec['id']}: {rec['error']}"
              for i, r in enumerate(rounds) for rec in r["jobs"]
              if rec["error"]]
    attempted = sum(len(r["jobs"]) for r in rounds)
    result = {"correct": not errors, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(env), "result": result,
              "errors": errors, "notes": notes, "setup_times": setup.times,
              "rounds": rounds}
    out = args.out or os.path.join(
        args.results, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} jobs, {len(errors)} failed; record in {out}")
    for line in errors + notes:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _load_set(path: str) -> dict:
    """workload -> metric -> list of values, from a file or directory."""
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*.json"))))
    out = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        row = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            row.setdefault(name, []).append(m["value"])
    return out


def compare(base_path: str, new_path: str) -> int:
    """Print every metric of two result sets, median new/base per workload."""
    base, new = _load_set(base_path), _load_set(new_path)
    workloads_seen = sorted(set(base) | set(new))
    names = []
    for w in workloads_seen:
        for name in list(base.get(w, {})) + list(new.get(w, {})):
            if name not in names:
                names.append(name)
    for name in names:
        print(name)
        for w in workloads_seen:
            a = base.get(w, {}).get(name)
            b = new.get(w, {}).get(name)
            ma = statistics.median(a) if a else math.nan
            mb = statistics.median(b) if b else math.nan
            ratio = mb / ma if ma else math.nan
            print(f"  {w:18s} base {ma:12.6g} (n={len(a or [])})  "
                  f"new {mb:12.6g} (n={len(b or [])})  new/base {ratio:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.FOCUS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result record path")
    parser.add_argument("--results", default=os.path.join(WORK, "results"),
                        help="directory for result records")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files or directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
