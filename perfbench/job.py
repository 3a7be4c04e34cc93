"""One benchmark job, run in a fresh process.

    python3 perfbench/job.py SPEC_JSON [--trace SPANS_PATH]

SPEC_JSON is a job from workloads.build().  A "cli" job calls
`cvqsim.cli.main(argv)`; a "lib" job calls one public library function
through the small adapters below and writes its result to spec["out"].
With --trace, the layer wrappers are installed before the first call
and the spans are written to SPANS_PATH when the job ends.  The exit
code is the job's: 0 on success.
"""

from __future__ import annotations

import json
import math
import sys

from workloads import db_to_r as _r


def loop_cluster(n, db, seed, tracer=None):
    from cvqsim import loop
    prog = loop.generate_entangled("CLUSTER_LINEAR", n, _r(db))
    final, log = loop.simulate(loop.LoopConfig(n_data=n), prog,
                               prog.input_state, rng_seed=seed)
    return {"survivors": log.survivors, "steps": len(prog.steps),
            "cov": final.cov.tolist()}


def _coherent(cutoff, dx, dp):
    from cvqsim import fock
    return fock.coherent_fock((float(dx) + 1j * float(dp)) / math.sqrt(2.0),
                              cutoff)


def channel_fidelity(cutoff, dx, dp, gamma, db, nodes, tracer=None):
    from cvqsim import telegates
    state = _coherent(cutoff, dx, dp)
    return {"fidelity": telegates.channel_fidelity(state, float(gamma),
                                                   _r(db), nodes)}


def tele_cubic(cutoff, dx, dp, gamma, db, shots, seed, tracer=None):
    import numpy as np
    from cvqsim import telegates
    state = _coherent(cutoff, dx, dp)
    out = []
    for shot in range(shots):
        rep = telegates.tele_cubic(state, float(gamma), _r(db),
                                   rng_seed=seed + shot)
        out.append({"added_noise_x": rep.added_noise_x,
                    "added_noise_p": rep.added_noise_p,
                    "fidelity_vs_ideal": rep.fidelity_vs_ideal,
                    "leakage": rep.leakage,
                    "norm": float(np.linalg.norm(rep.output.amps))})
    return {"shots": out}


def stream_recorded(spec, pulses, width, db, csv, tracer=None):
    from cvqsim import tdm
    with open(csv, "w") as fh:
        sink = tdm.csv_sink(fh)
        if tracer is not None:
            sink = tracer.timed_sink(sink)
        if spec == "1d":
            stats = tdm.stream_1d(pulses, _r(db), sink=sink)
        else:
            stats = tdm.stream_2d(pulses, width, _r(db), sink=sink)
    return json.loads(stats.to_json())


def emitted_covariance(slots, db, tracer=None):
    from cvqsim import tdm
    cov, _ = tdm.emitted_covariance(tdm.network_1d(_r(db)), slots)
    return cov


LIBRARY = {f.__name__: f for f in (loop_cluster, channel_fidelity, tele_cubic,
                                   stream_recorded, emitted_covariance)}


def run(spec: dict, tracer=None) -> int:
    if spec["call"] == "cli":
        from cvqsim import cli
        return cli.main(spec["argv"])
    result = LIBRARY[spec["fn"]](**spec["params"], tracer=tracer)
    if spec["out"].endswith(".npy"):
        import numpy as np
        np.save(spec["out"], result)
    else:
        with open(spec["out"], "w") as fh:
            json.dump(result, fh)
    return 0


def main(argv) -> int:
    spec = json.loads(argv[0])
    tracer = None
    if len(argv) == 3 and argv[1] == "--trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return run(spec, tracer)
    finally:
        if tracer is not None:
            tracer.dump(argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
