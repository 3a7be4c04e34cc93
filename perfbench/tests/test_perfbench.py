"""Tests of the benchmark itself: inputs, output checks, spans, metrics.

    python3 -m pytest perfbench/tests -q

The check tests run small real jobs, in fresh processes as the benchmark
does, then corrupt each output and expect the check to fail.
"""

from __future__ import annotations

import copy
import filecmp
import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _build(tmp, workload, seed=SEED):
    return workloads.build(workload, seed, os.path.join(tmp, "in"),
                           os.path.join(tmp, "out"))


@pytest.mark.parametrize("workload", sorted(workloads.FOCUS))
def test_generator_is_deterministic(tmp_path, workload):
    a = _build(str(tmp_path / "a"), workload)
    b = _build(str(tmp_path / "b"), workload)
    strip = lambda jobs, d: json.dumps(jobs).replace(d, "")  # noqa: E731
    assert strip(a, str(tmp_path / "a")) == strip(b, str(tmp_path / "b"))
    cmp = filecmp.dircmp(tmp_path / "a" / "in", tmp_path / "b" / "in")
    # tdm_stream jobs take all their input as parameters, not files
    assert bool(cmp.left_list) == (workload != "tdm_stream")
    assert not cmp.left_only and not cmp.right_only
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a" / "in", tmp_path / "b" / "in", cmp.common_files,
        shallow=False)
    assert not mismatch and not errors
    c = _build(str(tmp_path / "c"), workload, seed=SEED + 1)
    assert strip(c, str(tmp_path / "c")) != strip(a, str(tmp_path / "a"))


def test_each_kind_runs_on_one_workload(tmp_path):
    seen = []
    for workload, focus in workloads.FOCUS.items():
        jobs = _build(str(tmp_path / workload), workload)
        assert {j["kind"] for j in jobs} == set(focus)
        seen += focus
    assert sorted(seen) == sorted(workloads.KINDS)


def _small_jobs(out):
    """Small real jobs, at least one for every check."""
    inputs = os.path.join(out, "in")
    os.makedirs(inputs, exist_ok=True)
    rng = random.Random(SEED)
    seed = str(SEED)
    jobs = {}

    def cli(job_id, kind, argv, **extra):
        jobs[job_id] = workloads._cli(kind, job_id, argv,
                                      os.path.join(out, job_id + ".json"),
                                      **extra)

    def lib(job_id, kind, fn, params, suffix=".json"):
        jobs[job_id] = workloads._lib(kind, job_id, fn, params,
                                      os.path.join(out, job_id + suffix))

    def cvq(name, text):
        return workloads._write(os.path.join(inputs, name), text)

    cli("gaussian", "run_gaussian",
        ["run", cvq("gaussian.cvq", workloads.gaussian_circuit(rng, 8)),
         "--backend", "gaussian", "--seed", seed])
    cli("loop", "loop",
        ["loop", cvq("loop.cvq", workloads.loop_schedule(rng, 6, 1, 24)),
         "--seed", seed])
    cli("fock", "run_fock",
        ["run", cvq("fock.cvq", workloads.fock_circuit(rng, 1)),
         "--backend", "fock", "--seed", seed, "--cutoff", "60"], cutoff=60)
    cli("gkp", "gkp", ["gkp", "--delta", "0.5", "--cutoff", "40"],
        delta=0.5, cutoff=40)
    lib("fidelity", "telegates", "channel_fidelity",
        workloads._coherent_params(rng, 20, 16))
    cli("stream", "stream", workloads._stream_argv("1d", 20_000), eta=None)
    jobs["recorded"] = workloads._recorded("recorded", "1d", 2_000, None,
                                           out)
    lib("cluster", "loop", "loop_cluster", {"n": 8, "db": "12.0", "seed": 1})
    lib("cubic", "telegates", "tele_cubic",
        {"cutoff": 20, "dx": "0.3", "dp": "-0.2", "gamma": "0.05",
         "db": "10.0", "shots": 2, "seed": 1})
    lib("covariance", "stream_recorded", "emitted_covariance",
        {"slots": 30, "db": "12.0"}, ".npy")
    lib("recorded_2d", "stream_recorded", "stream_recorded",
        {"spec": "2d", "pulses": 300, "width": 4, "db": "15",
         "csv": os.path.join(out, "recorded_2d.csv")})
    for job_id, extra, eta in (("lossy", ["--eta", "0.9"], 0.9),
                               ("stream_2d", ["--spec", "2d", "--width", "3"],
                                None)):
        argv = ["stream", "--spec", "1d", "--pulses", "3000",
                "--squeezing", "15dB"]
        if extra[0] == "--spec":
            argv = argv[:1] + extra + argv[3:]
        else:
            argv += extra
        cli(job_id, "stream", argv, eta=eta)
    return jobs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("jobs"))
    runner = run.Runner(run.job_env(), deadline=float("inf"))
    jobs = _small_jobs(out)
    refs = run.fock_references(runner, list(jobs.values()),
                               os.path.join(out, "refs"))
    for job in jobs.values():
        res = runner.job(job)
        assert res["exit"] == 0, open(job["out"] + ".stderr").read()
    return jobs, refs


def _check(job, refs):
    checks.check_job(job, refs.get(job["id"]))


def test_checks_accept_real_outputs(outputs):
    jobs, refs = outputs
    covered = set()
    for job in jobs.values():
        _check(job, refs)
        covered.add(checks.CHECKS[job.get("fn", job["kind"])])
    assert covered == set(checks.CHECKS.values())


def _edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _asymmetric(payload):
    payload["reports"][-1]["cov"][0][1] += 1e-6


def _unphysical(payload):
    cov = payload["reports"][-1]["cov"]
    payload["reports"][-1]["cov"] = [[0.5 * v for v in row] for row in cov]


def _stream_ratio_off(payload):
    form = next(iter(payload["forms"].values()))
    form["mean_var"] += 1e-3 * form["vacuum_var"]


def _fock_cov_off(payload):
    payload["reports"][0]["cov"][0][0] += 1e-5


CORRUPTIONS = [
    ("gaussian", _asymmetric),
    ("gaussian", _unphysical),
    ("loop", _asymmetric),
    ("fock", _fock_cov_off),
    ("gkp", lambda p: p["lattice_mass"].update(
        zero=p["lattice_mass"]["zero"] + 1e-5)),
    ("gkp", lambda p: p.update(squeezing_db=p["squeezing_db"] + 1e-6)),
    ("fidelity", lambda p: p.update(fidelity=p["fidelity"] + 1e-8)),
    ("stream", _stream_ratio_off),
    ("lossy", _stream_ratio_off),
    ("stream_2d", _stream_ratio_off),
    ("cluster", lambda p: p.update(
        cov=[[1.001 * v for v in row] for row in p["cov"]])),
    ("cubic", lambda p: p["shots"][0].update(
        added_noise_x=p["shots"][0]["added_noise_x"] * 1.001)),
    ("recorded", lambda p: next(iter(p["forms"].values()))
     .update(count=next(iter(p["forms"].values()))["count"] + 1)),
]


@pytest.mark.parametrize("job_id,corrupt", CORRUPTIONS,
                         ids=[f"{j}-{i}" for i, (j, _) in
                              enumerate(CORRUPTIONS)])
def test_checks_reject_corrupted_json(outputs, tmp_path, job_id, corrupt):
    jobs, refs = outputs
    job = copy.deepcopy(jobs[job_id])
    path = str(tmp_path / os.path.basename(job["out"]))
    shutil.copy(job["out"], path)
    job["out"] = path
    _edit_json(path, corrupt)
    with pytest.raises(checks.CheckError):
        _check(job, refs)


def _copy_csv(job, tmp_path, edit):
    job = copy.deepcopy(job)
    with open(job["params"]["csv"]) as fh:
        lines = fh.read().splitlines(keepends=True)
    path = str(tmp_path / "rows.csv")
    with open(path, "w") as fh:
        fh.writelines(edit(lines))
    job["params"]["csv"] = path
    return job


@pytest.mark.parametrize("job_id", ["recorded", "recorded_2d"])
def test_recorded_check_rejects_bad_rows(outputs, tmp_path, job_id):
    jobs, refs = outputs

    def nudge_last(lines):
        head, last = lines[:-1], lines[-1].rstrip("\n").split(",")
        last[-1] = repr(float(last[-1]) * (1 + 1e-6))
        return head + [",".join(last) + "\n"]

    for edit in (lambda lines: lines[:-1], nudge_last,
                 lambda lines: lines[:1] + lines[2:]):
        with pytest.raises(checks.CheckError):
            _check(_copy_csv(jobs[job_id], tmp_path, edit), refs)


def test_covariance_check_rejects_asymmetric_emitted(outputs, tmp_path):
    jobs, refs = outputs
    job = copy.deepcopy(jobs["covariance"])
    cov = np.load(job["out"])
    cov[0, 3] += 1e-6
    job["out"] = str(tmp_path / "cov.npy")
    np.save(job["out"], cov)
    with pytest.raises(checks.CheckError):
        _check(job, refs)


def test_traced_job_writes_spans_for_the_layers(outputs, tmp_path):
    jobs, _ = outputs
    runner = run.Runner(run.job_env(), deadline=float("inf"))
    trace = str(tmp_path / "spans.json")
    job = copy.deepcopy(jobs["fock"])
    assert runner.job(job, trace)["exit"] == 0
    with open(trace) as fh:
        data = json.load(fh)
    names = {s[0] for s in data["spans"]}
    assert {"cli.main", "dsl.parse", "dsl.validate", "dsl.run",
            "fock.squeeze_fock", "fock.apply_cubic"} <= names
    assert all(s[2] >= s[1] and s[4] for s in data["spans"])
    assert 0.0 < data["counters"]["fock.max_leakage"] < 1e-6
    sp = run._Spans()
    sp.add_file(trace)
    assert sp.extra["instructions"] > 0
    assert all(v >= -1e-9 for v in sp.self_s.values())


def test_self_time_subtracts_direct_children(tmp_path):
    spans = [["dsl.run", 0.0, 10.0, -1, True, None, None],
             ["gaussian.squeeze", 2.0, 5.0, 0, True, "n4", None],
             ["gaussian.apply_symplectic", 3.0, 4.0, 1, True, "n4", None],
             ["fock.displace_fock", 6.0, 7.0, 0, False, "c20", None]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans, "counters": {
        "tdm.sink_s": 0.0, "fock.max_leakage": 0.0}}))
    sp = run._Spans()
    sp.add_file(str(path))
    assert sp.self_s["dsl.run"] == pytest.approx(6.0)
    assert sp.self_s["gaussian.squeeze"] == pytest.approx(2.0)
    assert sp.errors["fock"] == 1 and sp.errors["dsl"] == 0
    assert sp.sized[("gaussian.squeeze", "n4")] == [1, 3.0]


def _round(traced, jobs):
    return {"traced": traced, "wall_s": 2.0 if traced else 1.0, "jobs": jobs}


def test_metric_names_match_benchmark_json():
    bench = run.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.FOCUS)
    recs = [{"id": f"{k}_job", "kind": k, "seconds": 0.5,
             "rss_mb": 50.0, "exit": 0, "error": None}
            for k in workloads.KINDS]
    rounds = [_round(False, recs), _round(True, recs)]
    e2e = run.end_to_end(rounds, setup_times=[0.4, 0.5, 0.45])
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    notes = []
    layer = run.per_layer(rounds, notes)
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    assert layer["trace.overhead"] == pytest.approx(1.0)
    assert any("gate_us" in n for n in notes)


def test_compare_prints_each_metric_per_workload(tmp_path, capsys):
    for side, value in (("base", 2.0), ("new", 1.0)):
        (tmp_path / side).mkdir()
        for workload in ("gaussian_wide", "tdm_stream"):
            rec = {"workload": workload, "result": {"metrics": {
                "wall_s": {"value": value, "unit": "s"}}}}
            (tmp_path / side / f"{workload}.json").write_text(json.dumps(rec))
    assert run.main(["--compare", str(tmp_path / "base"),
                     str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "wall_s"
    rows = [line for line in out[1:] if "new/base 0.5000" in line]
    assert [r.split()[0] for r in rows] == ["gaussian_wide", "tdm_stream"]


def test_refuses_to_run_without_the_source(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tdm_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closed_forms_used_by_the_checks():
    # 15 dB is a variance ratio of 10^-1.5
    assert math.exp(-2 * checks._r(15.0)) == pytest.approx(10 ** -1.5,
                                                           rel=1e-12)
