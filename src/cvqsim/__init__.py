"""Continuous-variable photonic quantum computing simulator.

Subpackages cover a Gaussian symplectic backend, a truncated Fock
backend, teleportation-based gates, time-multiplexed cluster-state
streaming, a dual-loop pulse processor, the GKP code, a small circuit
language, and fiber-loop resource budgeting.
"""

import math

__version__ = "0.1.0"


def squeezing_db_to_r(db: float) -> float:
    """Convert a squeezing level in dB to the squeeze parameter r.

    dB = 10 log10(Var_vac / Var_squeezed) = (20 / ln 10) r.
    """
    return db * math.log(10.0) / 20.0
