"""Seeded inputs and job lists for the three benchmark workloads.

A workload is one round of jobs, run one after another by a single
client (a closed loop).  Every job runs in a fresh Python process, so
each pays the cold caches a `cvq` user pays.  `build(workload, seed,
inputs_dir)` writes every `.cvq` circuit and schedule the jobs read and
returns the job list; the program under test receives only these files
and the job parameters.  The same seed gives byte-identical files and
the same job list.

A workload runs only the job kinds of its focus, so the other two
workloads are the "bypass" side of each comparison: an optimisation of
one workload's kinds should leave the others flat.  Job kinds of other
workloads are not run as small probes, because a probe of a few tenths
of a second is mostly interpreter start-up and, on a shared host, too
noisy to bound.
"""

from __future__ import annotations

import math
import os
import random

# Job kinds; the per-layer metric jobs.<kind>_s sums their job times.
KINDS = ("run_gaussian", "loop", "run_fock", "gkp", "telegates", "stream",
         "stream_recorded")

# The focus kinds of each workload; BENCHMARK.json says why it was chosen.
FOCUS = {
    "gaussian_wide": ("run_gaussian", "loop"),
    "fock_nongaussian": ("run_fock", "gkp", "telegates"),
    "tdm_stream": ("stream", "stream_recorded"),
}

# Sizes the per-layer sweeps report; fixed so metric names never change.
GAUSSIAN_MODES = (96, 144, 192)
LOOP_MODES = 64
FOCK_CUTOFFS = ((3, 40), (2, 60), (1, 100))   # (modes, cutoff)
# Fock references are computed this many levels above the job's cutoff.
REFERENCE_EXTRA_LEVELS = 16
GKP_DELTAS = (0.2, 0.3)
GKP_CUTOFF = 100
STREAM_DB = 15.0

# `cvq gkp` at the seed code.  These fields depend on the cutoff rather
# than converge with it, so they are kept here at the cutoff the jobs
# use, for a 1e-6 comparison.  (0.5, 40) is the small case the
# benchmark's own tests run.
GKP_REFERENCE = {
    (0.2, 100): {
        "lattice_mass": {"zero": 0.9981534914641077,
                         "one": 0.9983552889279551},
        "logical_overlap": 3.892642720300984e-05,
        "synthesis_leakage": {"zero": 6.573668437445466e-05,
                              "one": 8.993186004891134e-05},
    },
    (0.3, 100): {
        "lattice_mass": {"zero": 0.9627013293371405,
                         "one": 0.9638688033212153},
        "logical_overlap": 0.000302266831258069,
        "synthesis_leakage": {"zero": 6.380667134695812e-09,
                              "one": 1.841369042053208e-08},
    },
    (0.5, 40): {
        "lattice_mass": {"zero": 0.7903194991347465,
                         "one": 0.7903204410880303},
        "logical_overlap": 0.07128542186190212,
        "synthesis_leakage": {"zero": 3.0413806430185525e-09,
                              "one": 2.363044587760867e-09},
    },
}


def _f(x: float) -> str:
    return f"{x:.6f}"


def db_to_r(db) -> float:
    """Squeezing parameter r of a level in dB (the DSL's convention)."""
    return float(db) * math.log(10.0) / 20.0


def gaussian_circuit(rng: random.Random, n: int) -> str:
    """Random wide Gaussian circuit on n modes.

    Squeezers, a beam-splitter chain, phases on every second mode, loss
    on every fourth and a homodyne with feedforward every sixth, then
    `report cov`.
    """
    q = [f"q{i}" for i in range(n)]
    lines = [f"mode {' '.join(q)};"]
    for m in q:
        lines.append(f"sq {m} {_f(rng.uniform(3.0, 12.0))}dB "
                     f"{rng.choice('xp')};")
    for i in range(n - 1):
        lines.append(f"bs {q[i]} {q[i + 1]} t={_f(rng.uniform(0.2, 0.8))};")
    for m in q[::2]:
        lines.append(f"ps {m} {_f(rng.uniform(-math.pi, math.pi))};")
    for i in range(0, n, 4):
        lines.append(f"loss {q[i]} {_f(rng.uniform(0.85, 0.99))};")
    for i in range(3, n - 1, 6):
        lines.append(f"hom {q[i]} theta={_f(rng.uniform(0.0, math.pi))} "
                     f"-> m{i};")
        lines.append(f"ff m{i} {q[i + 1]} gx={_f(rng.uniform(-1, 1))} "
                     f"gp={_f(rng.uniform(-1, 1))};")
    lines.append("report cov;")
    return "\n".join(lines) + "\n"


def loop_schedule(rng: random.Random, n_data: int, n_anc: int,
                  n_entries: int) -> str:
    """Schedule block: a mesh of bs/ps entries and one sqz per ancilla."""
    lines = ["schedule {", f"  data {n_data};", f"  anc {n_anc};",
             "  squeeze 10dB;"]
    sqz_at = sorted(rng.sample(range(n_entries), n_anc))
    for k in range(n_entries):
        if sqz_at and k == sqz_at[0]:
            sqz_at.pop(0)
            lines.append(f"  sqz {rng.randrange(n_data)} "
                         f"{_f(rng.uniform(0.6, 1.6))};")
        elif rng.random() < 0.6:
            i, j = rng.sample(range(n_data), 2)
            lines.append(f"  bs {i} {j} t={_f(rng.uniform(0.2, 0.8))};")
        else:
            lines.append(f"  ps {rng.randrange(n_data)} "
                         f"{_f(rng.uniform(-math.pi, math.pi))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fock_circuit(rng: random.Random, n_modes: int) -> str:
    """Random low-energy Fock circuit on 1-3 modes.

    Squeezing up to 3 dB, displacements up to 0.5 and cubic strengths
    up to 0.02 keep the photon-number tail far below every cutoff used,
    so the reports converge to 1e-6 when the cutoff is raised.
    """
    q = ["a", "b", "c"][:n_modes]
    lines = [f"mode {' '.join(q)};"]

    def sq(m):
        lines.append(f"sq {m} {_f(rng.uniform(1.0, 3.0))}dB "
                     f"{rng.choice('xp')};")

    def disp(m):
        lines.append(f"disp {m} dx={_f(rng.uniform(-0.5, 0.5))} "
                     f"dp={_f(rng.uniform(-0.5, 0.5))};")

    def ps(m):
        lines.append(f"ps {m} {_f(rng.uniform(-math.pi, math.pi))};")

    def cubic(m):
        lines.append(f"cubic {m} gamma={_f(rng.uniform(-0.02, 0.02))};")

    for m in q:
        sq(m)
        disp(m)
        ps(m)
    for _ in range(2):
        for i in range(n_modes - 1):
            lines.append(f"bs {q[i]} {q[i + 1]} "
                         f"t={_f(rng.uniform(0.3, 0.7))};")
        cubic(rng.choice(q))
        ps(rng.choice(q))
    if n_modes >= 2:
        lines.append(f"cphase {q[0]} {q[1]};")
        lines.append(f"hom {q[0]} theta={_f(rng.uniform(0.0, math.pi))} "
                     "-> m0;")
        lines.append(f"ff m0 {q[1]} gx={_f(rng.uniform(-0.3, 0.3))} "
                     f"gp={_f(rng.uniform(-0.3, 0.3))};")
        lines.append("report cov;")
    else:
        disp(q[0])
        lines.append("report cov;")
        lines.append("report fidelity coherent dx=0.0 dp=0.0;")
    return "\n".join(lines) + "\n"


def _cli(kind, job_id, argv, out, **extra):
    return {"id": job_id, "kind": kind, "call": "cli",
            "argv": list(argv) + ["--out", out], "out": out, **extra}


def _lib(kind, job_id, fn, params, out):
    return {"id": job_id, "kind": kind, "call": "lib", "fn": fn,
            "params": params, "out": out}


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _jobs(kind, rng, seed, inputs, outputs):
    """The jobs of one kind."""
    jobs = []
    if kind == "run_gaussian":
        for n in GAUSSIAN_MODES:
            path = _write(os.path.join(inputs, f"gaussian_n{n}.cvq"),
                          gaussian_circuit(rng, n))
            jobs.append(_cli(kind, f"run_gaussian_n{n}",
                             ["run", path, "--backend", "gaussian",
                              "--seed", str(seed)],
                             os.path.join(outputs, f"run_gaussian_n{n}.json")))
    elif kind == "loop":
        path = _write(os.path.join(inputs, "loop_mesh.cvq"),
                      loop_schedule(rng, LOOP_MODES - 4, 4, 2000))
        jobs.append(_cli(kind, "loop_mesh", ["loop", path, "--seed", str(seed)],
                         os.path.join(outputs, "loop_mesh.json")))
        jobs.append(_lib(kind, "loop_cluster", "loop_cluster",
                         {"n": LOOP_MODES, "db": _f(rng.uniform(8.0, 15.0)),
                          "seed": seed},
                         os.path.join(outputs, "loop_cluster.json")))
    elif kind == "run_fock":
        for n_modes, cutoff in FOCK_CUTOFFS:
            name = f"fock_m{n_modes}_c{cutoff}"
            path = _write(os.path.join(inputs, name + ".cvq"),
                          fock_circuit(rng, n_modes))
            jobs.append(_cli(kind, "run_" + name,
                             ["run", path, "--backend", "fock",
                              "--seed", str(seed), "--cutoff", str(cutoff)],
                             os.path.join(outputs, f"run_{name}.json"),
                             cutoff=cutoff))
    elif kind == "gkp":
        for delta in GKP_DELTAS:
            jobs.append(_cli(kind, f"gkp_d{delta}",
                             ["gkp", "--delta", str(delta),
                              "--cutoff", str(GKP_CUTOFF)],
                             os.path.join(outputs, f"gkp_d{delta}.json"),
                             delta=delta, cutoff=GKP_CUTOFF))
    elif kind == "telegates":
        jobs.append(_lib(kind, "channel_fidelity_c60", "channel_fidelity",
                         _coherent_params(rng, 60, 16),
                         os.path.join(outputs, "channel_fidelity_c60.json")))
        params = _coherent_params(rng, 60, 16)
        params.update(shots=4, seed=seed)
        del params["nodes"]
        jobs.append(_lib(kind, "tele_cubic_c60", "tele_cubic", params,
                         os.path.join(outputs, "tele_cubic_c60.json")))
    elif kind == "stream":
        n1 = 1_000_000 + rng.randrange(-5000, 5001)
        jobs.append(_cli(kind, "stream_1d", _stream_argv("1d", n1),
                         os.path.join(outputs, "stream_1d.json"), eta=None))
        eta = round(rng.uniform(0.85, 0.95), 6)
        n2 = 1_000_000 + rng.randrange(-5000, 5001)
        jobs.append(_cli(kind, "stream_1d_eta",
                         _stream_argv("1d", n2) + ["--eta", str(eta)],
                         os.path.join(outputs, "stream_1d_eta.json"), eta=eta))
        n3 = 500_000 + rng.randrange(-2500, 2501)
        jobs.append(_cli(kind, "stream_2d",
                         _stream_argv("2d", n3) + ["--width", "5"],
                         os.path.join(outputs, "stream_2d.json"), eta=None))
    elif kind == "stream_recorded":
        jobs.append(_recorded("stream_recorded_1d", "1d",
                              200_000 + rng.randrange(-1000, 1001), None,
                              outputs))
        jobs.append(_recorded("stream_recorded_2d", "2d",
                              50_000 + rng.randrange(-250, 251), 5, outputs))
        jobs.append(_lib(kind, "emitted_covariance", "emitted_covariance",
                         {"slots": 400, "db": _f(rng.uniform(8.0, 15.0))},
                         os.path.join(outputs, "emitted_covariance.npy")))
    return jobs


def _coherent_params(rng, cutoff, nodes):
    return {"cutoff": cutoff, "dx": _f(rng.uniform(-0.6, 0.6)),
            "dp": _f(rng.uniform(-0.6, 0.6)),
            "gamma": _f(rng.uniform(-0.1, 0.1)),
            "db": _f(rng.uniform(6.0, 15.0)), "nodes": nodes}


def _stream_argv(spec, pulses):
    return ["stream", "--spec", spec, "--pulses", str(pulses),
            "--squeezing", f"{STREAM_DB:g}dB"]


def _recorded(job_id, spec, pulses, width, outputs):
    return _lib("stream_recorded", job_id, "stream_recorded",
                {"spec": spec, "pulses": pulses, "width": width,
                 "db": f"{STREAM_DB:g}",
                 "csv": os.path.join(outputs, job_id + ".csv")},
                os.path.join(outputs, job_id + ".json"))


def build(workload: str, seed: int, inputs: str, outputs: str) -> list:
    """Write the workload's inputs for this seed and return its jobs.

    Each job kind draws from its own generator, so the inputs of one
    kind do not depend on which other kinds the workload runs.
    """
    if workload not in FOCUS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outputs, exist_ok=True)
    jobs = []
    for kind in FOCUS[workload]:
        jobs += _jobs(kind, random.Random(f"{kind}:{seed}"), seed, inputs,
                      outputs)
    return jobs
