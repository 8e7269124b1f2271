"""Reference computations shared by the test modules.

They recompute a library quantity by the plain textbook route, one
factorization per member, so a test can compare the library's faster route
against them.
"""

import numpy as np


def member_minimality(system, n):
    """sigma_min((I - Q Q^H) F_n), Q an orthonormal basis of the other frames.

    The others must be jointly independent, or Q spans too much.
    """
    f = system.frames[n]
    others = [system.frames[i] for i in range(len(system)) if i != n]
    if others:
        q, _ = np.linalg.qr(np.concatenate(others, axis=1))
        f = f - q @ (np.conj(q).T @ f)
    return float(np.linalg.svd(f, compute_uv=False)[-1])


def minimality_oracle(system):
    """Uniform minimality min_n delta_n, one QR per member."""
    return min(member_minimality(system, n) for n in range(len(system)))


def extraction_oracle(system, delta):
    """The greedy critical subset, each trial rebuilt and scored by the oracle.

    Drops the first member whose removal keeps minimality below ``delta``,
    and stops when no removal does; labels of what is left, or None.
    """
    if minimality_oracle(system) >= delta:
        return None
    current = list(range(len(system)))
    while len(current) > 1:
        for k in range(len(current)):
            trial = current[:k] + current[k + 1:]
            if minimality_oracle(system.subsystem(trial)) < delta:
                current = trial
                break
        else:
            break
    return [system.labels[i] for i in current]
