"""Output checks for every job kind.

Each check compares a job's output with a closed form or an invariant
that does not come from the code being timed, or, for Fock and GKP
reports, with reference values: Fock references are the same program
run with REFERENCE_EXTRA_LEVELS more Fock levels, GKP references are
stored in workloads.py.  Checks read only the keys they need, after
dropping `timings` and the top-level `wall_time_s`, so fields added or
moved later do not break them.

`check_job(job, ref)` raises CheckError with a reason, or returns None.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from workloads import GKP_REFERENCE
from workloads import db_to_r as _r

# Paper value of the fault-tolerance threshold, in dB of squeezing.
GKP_THRESHOLD_DB = 20.5
GKP_SYNTHESIS_BUDGET = 1e-4
FOCK_TOL = 1e-6
GKP_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def load_report(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("timings", None)
    payload.pop("wall_time_s", None)
    return payload


def _interleaved_form(n_modes: int) -> np.ndarray:
    j = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


def check_covariance(cov) -> None:
    """Symmetric, with every symplectic eigenvalue at least 1/2.

    The second condition is the uncertainty relation V + iJ/2 >= 0,
    tested by a Cholesky factorization after a shift of 1e-9 of the
    largest entry, which is far cheaper than eigenvalues on 1600 modes.
    """
    v = np.asarray(cov, dtype=float)
    _require(v.ndim == 2 and v.shape[0] == v.shape[1] and v.shape[0] % 2 == 0,
             f"covariance has shape {v.shape}")
    scale = max(1.0, float(np.abs(v).max()))
    asym = float(np.abs(v - v.T).max())
    _require(asym <= 1e-12 * scale, f"covariance asymmetric by {asym:.3e}")
    shifted = (v + 0.5j * _interleaved_form(v.shape[0] // 2)
               + 1e-9 * scale * np.eye(v.shape[0]))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise CheckError("uncertainty relation V + iJ/2 >= 0 violated") from None


def check_gaussian_report(job, _ref) -> None:
    payload = load_report(job["out"])
    covs = [rep["cov"] for rep in payload["reports"]
            if rep.get("type") in ("cov", "loop")]
    _require(covs, "no covariance report")
    for cov in covs:
        check_covariance(cov)


def check_loop_cluster(job, _ref) -> None:
    """CLUSTER_LINEAR nullifiers p_i - x_(i-1) - x_(i+1) at e^-2r/2."""
    with open(job["out"]) as fh:
        cov = np.asarray(json.load(fh)["cov"])
    check_covariance(cov)
    n = job["params"]["n"]
    _require(cov.shape == (2 * n, 2 * n), f"cluster covariance {cov.shape}")
    want = math.exp(-2 * _r(job["params"]["db"])) / 2
    for i in range(n):
        row = np.zeros(2 * n)
        row[2 * i + 1] = 1.0
        for k in (i - 1, i + 1):
            if 0 <= k < n:
                row[2 * k] = -1.0
        got = float(row @ cov @ row)
        _require(abs(got - want) <= CLOSED_FORM_TOL,
                 f"nullifier {i} variance {got!r}, want {want!r}")


def _close(a, b, tol, what) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} vs {b.shape}")
    err = float(np.abs(a - b).max()) if a.size else 0.0
    _require(err <= tol, f"{what} off its reference by {err:.3e}")


def check_fock_report(job, ref) -> None:
    """Reports within FOCK_TOL of the same program at a larger cutoff."""
    got, want = load_report(job["out"]), load_report(ref)
    _close([o["value"] for o in got["outcomes"]],
           [o["value"] for o in want["outcomes"]], FOCK_TOL, "outcomes")
    _require(len(got["reports"]) == len(want["reports"]), "report count")
    for k, (a, b) in enumerate(zip(got["reports"], want["reports"])):
        _require(a.get("type") == b.get("type"), f"report {k} type")
        if a["type"] == "cov":
            _close(a["mean"], b["mean"], FOCK_TOL, f"report {k} mean")
            _close(a["cov"], b["cov"], FOCK_TOL, f"report {k} cov")
            check_covariance(a["cov"])
        else:
            _close(a["value"], b["value"], FOCK_TOL, f"report {k} value")


def check_gkp(job, _ref) -> None:
    payload = load_report(job["out"])
    delta = job["delta"]
    db = -20.0 * math.log10(delta)
    _require(abs(payload["squeezing_db"] - db) <= CLOSED_FORM_TOL,
             f"squeezing_db {payload['squeezing_db']!r}, want {db!r}")
    _require(payload["threshold_db"] == GKP_THRESHOLD_DB, "threshold_db")
    margin = db - GKP_THRESHOLD_DB
    _require(abs(payload["threshold_margin_db"] - margin) <= CLOSED_FORM_TOL,
             "threshold_margin_db")
    ref = GKP_REFERENCE[(delta, job["cutoff"])]
    for j in ("zero", "one"):
        _require(payload["sites"][j] >= 1, f"no lattice sites for |{j}>")
        _require(payload["synthesis_leakage"][j] <= GKP_SYNTHESIS_BUDGET,
                 f"synthesis leakage of |{j}> over budget")
        _close(payload["lattice_mass"][j], ref["lattice_mass"][j], GKP_TOL,
               f"lattice_mass {j}")
        _close(payload["synthesis_leakage"][j], ref["synthesis_leakage"][j],
               GKP_TOL, f"synthesis_leakage {j}")
    _close(payload["logical_overlap"], ref["logical_overlap"], GKP_TOL,
           "logical_overlap")


def check_channel_fidelity(job, _ref) -> None:
    """Coherent input: noise-averaged fidelity 1/(1 + e^-2r)."""
    with open(job["out"]) as fh:
        got = json.load(fh)["fidelity"]
    want = 1.0 / (1.0 + math.exp(-2 * _r(job["params"]["db"])))
    _require(abs(got - want) <= CLOSED_FORM_TOL,
             f"channel fidelity {got!r}, want {want!r}")


def check_tele_cubic(job, _ref) -> None:
    with open(job["out"]) as fh:
        shots = json.load(fh)["shots"]
    _require(len(shots) == job["params"]["shots"], "shot count")
    noise = math.exp(-2 * _r(job["params"]["db"]))
    for k, shot in enumerate(shots):
        for quad in ("added_noise_x", "added_noise_p"):
            _require(abs(shot[quad] - noise) <= CLOSED_FORM_TOL * noise,
                     f"shot {k} {quad} {shot[quad]!r}, want {noise!r}")
        _require(abs(shot["norm"] - 1.0) <= CLOSED_FORM_TOL,
                 f"shot {k} output norm {shot['norm']!r}")
        _require(0.0 < shot["fidelity_vs_ideal"] <= 1.0 + 1e-12,
                 f"shot {k} fidelity {shot['fidelity_vs_ideal']!r}")


def check_stream(job, _ref) -> None:
    """Lossless: every form at 10^-1.5 of vacuum (15 dB).  Lossy: the
    mean variance is eta * expected + (1 - eta) * vacuum."""
    payload = load_report(job["out"])
    forms = payload["forms"]
    _require(forms, "no nullifier forms")
    eta = job["eta"]
    for name, form in forms.items():
        _require(form["count"] >= 1, f"form {name} never evaluated")
        if eta is None:
            ratio = form["mean_var"] / form["vacuum_var"]
            _require(abs(ratio - 10 ** -1.5) <= CLOSED_FORM_TOL,
                     f"form {name} ratio {ratio!r}, want 10^-1.5")
        else:
            want = eta * form["expected_var"] + (1 - eta) * form["vacuum_var"]
            _require(abs(form["mean_var"] - want) <= CLOSED_FORM_TOL,
                     f"form {name} mean_var {form['mean_var']!r}, "
                     f"want {want!r}")


def check_stream_recorded(job, _ref) -> None:
    """One CSV row per evaluable slot; steady rows all at e^-2r/2."""
    stats = load_report(job["out"])
    counts = {f["count"] for f in stats["forms"].values()}
    _require(len(counts) == 1, "forms evaluated different slot counts")
    n_rows = counts.pop() + stats["boundary_slots"]
    _require(n_rows <= job["params"]["pulses"], "more rows than pulses")
    want = math.exp(-2 * _r(job["params"]["db"])) / 2
    with open(job["params"]["csv"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _require(header[:2] == ["slot", "boundary"], "csv header")
        _require(sorted(header[2:]) == sorted(stats["forms"]), "csv columns")
        n = 0
        steady = None
        for n, row in enumerate(reader, start=1):
            _require(int(row[0]) == n - 1, f"csv row {n} has slot {row[0]}")
            if row[1] == "1":
                continue
            if steady is None:
                steady = row[2:]
                for v in steady:
                    _require(abs(float(v) - want) <= CLOSED_FORM_TOL * want,
                             f"steady variance {v}, want {want!r}")
            _require(row[2:] == steady, f"csv row {n} leaves steady state")
    _require(n == n_rows, f"{n} csv rows for {n_rows} evaluable slots")


def check_emitted_covariance(job, _ref) -> None:
    cov = np.load(job["out"])
    _require(cov.shape == (4 * job["params"]["slots"],) * 2,
             f"emitted covariance shape {cov.shape}")
    check_covariance(cov)


CHECKS = {
    "run_gaussian": check_gaussian_report,
    "loop": check_gaussian_report,
    "loop_cluster": check_loop_cluster,
    "run_fock": check_fock_report,
    "gkp": check_gkp,
    "channel_fidelity": check_channel_fidelity,
    "tele_cubic": check_tele_cubic,
    "stream": check_stream,
    "stream_recorded": check_stream_recorded,
    "emitted_covariance": check_emitted_covariance,
}


def check_job(job: dict, ref: str | None = None) -> None:
    CHECKS[job.get("fn", job["kind"])](job, ref)
