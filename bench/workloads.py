"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed corpus of cases.  A case is one ``carleson-kit``
invocation: a subcommand, its flags and the JSON input document.  Case
``i`` belongs to stratum ``i % S`` and is generated from its own
``random.Random`` stream, in pure Python, so its bytes do not depend on
numpy or BLAS.  The reference reports in ``refs/`` are keyed by case index.

A run with ``--seed s`` draws *rounds* from the corpus: each round holds one
case of every stratum, picked and shuffled by ``s``.  Runs always stop at a
round boundary, so every run sees the same mix of input sizes and the
throughput of two seeds is comparable, while the inputs themselves differ.
Within a stratum the input size and the flags are fixed (on
``outer-contour`` also the depth of the outer part, which sets the cost of
the scan), so a round costs about the same whatever cases it draws.
``min_rounds`` is about the number of rounds a 30-second run holds; it fixes
the tail percentile a workload reports, so that percentile does not move
with the speed of the commit under test.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Case:
    """One CLI invocation; ``argv`` excludes ``--input`` and ``--out``."""

    index: int
    stratum: str
    command: str
    flags: tuple
    document: dict

    def input_bytes(self) -> bytes:
        return json.dumps(self.document, sort_keys=True, separators=(",", ":")).encode()

    def input_sha256(self) -> str:
        return hashlib.sha256(self.input_bytes()).hexdigest()

    def argv(self, input_path: str, out_path: str) -> list[str]:
        return [self.command, "--input", input_path, *self.flags, "--out", out_path]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strata: tuple  # ((label, maker), ...); maker(rng, member, index) -> (command, flags, document)
    per_stratum: int  # corpus cases per stratum
    min_rounds: int  # a timed run runs at least this many rounds
    trace_rounds: int  # rounds in one traced pass
    warmup: Callable  # () -> (command, flags, document), a small fixed case

    @property
    def corpus_size(self) -> int:
        return len(self.strata) * self.per_stratum

    def case(self, index: int) -> Case:
        if not 0 <= index < self.corpus_size:
            raise IndexError(f"{self.name} has no case {index}")
        label, maker = self.strata[index % len(self.strata)]
        rng = random.Random(f"{self.name}/{index}")
        command, flags, document = maker(rng, index // len(self.strata), index)
        return Case(index, label, command, tuple(flags), document)

    def warmup_case(self) -> Case:
        command, flags, document = self.warmup()
        return Case(-1, "warmup", command, tuple(flags), document)

    def rounds(self, seed: int, count: int) -> list[list[int]]:
        """``count`` rounds of case indices; the same seed gives the same rounds."""
        rng = random.Random(f"rounds/{self.name}/{seed}")
        s = len(self.strata)
        out = []
        for _ in range(count):
            picks = [k + s * rng.randrange(self.per_stratum) for k in range(s)]
            rng.shuffle(picks)
            out.append(picks)
        return out


# -- geometry helpers (pure Python) ------------------------------------------

def _point(rng: random.Random, rmax: float) -> complex:
    """Area-uniform point of the disk |z| <= rmax."""
    return cmath.rect(rmax * math.sqrt(rng.random()), TAU * rng.random())


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _rho(a: complex, b: complex) -> float:
    return abs(a - b) / abs(1.0 - a.conjugate() * b)


def _separated(rng: random.Random, n: int, rmax: float, sep: float) -> list[complex]:
    """n points of |z| <= rmax with pairwise pseudo-hyperbolic distance >= sep."""
    pts: list[complex] = []
    while len(pts) < n:
        z = _point(rng, rmax)
        if all(_rho(z, p) >= sep for p in pts):
            pts.append(z)
    return pts


def _near(rng: random.Random, a: complex, lo: float, hi: float) -> complex:
    """A point at pseudo-hyperbolic distance in [lo, hi] from a."""
    w = cmath.rect(rng.uniform(lo, hi), TAU * rng.random())
    return (a + w) / (1.0 + a.conjugate() * w)


def _kernel_vector(lam: complex, dim: int) -> list:
    """Unit vector of Taylor coefficients of the normalized kernel at lam."""
    coeffs = [lam.conjugate() ** j for j in range(dim)]
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in coeffs))
    return [_pair(c / norm) for c in coeffs]


# -- blaschke-contour ----------------------------------------------------------

# An odd number of strata puts the median report inside the middle stratum,
# not in the gap between two, where it would swing with the cases drawn.
_ZERO_COUNTS = (1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 42, 46, 50)
_CONTOUR_EPS = ("0.1", "0.05", "0.01")


def _blaschke_maker(count: int):
    def make(rng, member, index):
        zeros = [_pair(_point(rng, 0.985)) for _ in range(count)]
        flags = ["--epsilon", _CONTOUR_EPS[member % 3], "--depth", "12", "--seed", str(index)]
        return "contour", flags, {"zeros": zeros}
    return make


def _blaschke_warmup():
    return "contour", ["--epsilon", "0.1", "--depth", "12", "--seed", "1"], {
        "zeros": [[0.5, 0.0], [-0.3, 0.6], [0.1, -0.9]]}


# -- outer-contour -------------------------------------------------------------

_OUTER_RHO = 0.06

def _outer_document(rng: random.Random, size: int) -> dict:
    """Smooth outer part, 1-3 interior zeros, 1-2 singular atoms too light to
    trigger a witness at any depth above the scan floor (mass < M 2**-20).
    The depth rho of the outer part is fixed: the scan's cost grows with it."""
    rho = _OUTER_RHO
    k = rng.randrange(1, 6)
    phase = TAU * rng.random()
    outer = [-rho * (1.0 + 0.5 * math.cos(k * TAU * i / size + phase)) for i in range(size)]
    zeros = [_pair(_point(rng, 0.9)) for _ in range(rng.randrange(1, 4))]
    atoms = [[TAU * rng.random(), rng.uniform(1e-6, 4e-6)] for _ in range(rng.randrange(1, 3))]
    return {"zeros": zeros, "singular_atoms": atoms, "outer_log": outer}


def _outer_maker(size: int, c1: str):
    def make(rng, member, index):
        flags = ["--epsilon", "0.1", "--c1", c1, "--depth", "12", "--seed", str(index)]
        return "contour", flags, _outer_document(rng, size)
    return make


def _outer_warmup():
    return "contour", ["--epsilon", "0.1", "--c1", "0.5", "--seed", "1"], _outer_document(
        random.Random("outer-contour/warmup"), 1024)


# -- diagnostics ---------------------------------------------------------------

def _sequence_maker(n: int):
    def make(rng, member, index):
        return "sequence", [], {"points": [_pair(z) for z in _separated(rng, n, 0.9, 0.3)]}
    return make


def _carleson_maker(n: int):
    def make(rng, member, index):
        atoms = []
        for _ in range(n):
            z = _point(rng, 0.99)
            atoms.append([_pair(z), (1.0 - abs(z)) * rng.uniform(0.5, 1.5)])
        return "carleson", [], {"atoms": atoms}
    return make


_KERNEL_DIM = 40


def _system_maker(n: int):
    """n - 1 separated kernels plus one near-duplicate, so extraction runs."""
    def make(rng, member, index):
        pts = _separated(rng, n - 1, 0.8, 0.3)
        pts.append(_near(rng, pts[rng.randrange(n - 1)], 0.05, 0.1))
        groups = [[_kernel_vector(z, _KERNEL_DIM)] for z in pts]
        return "system", ["--delta", "0.2"], {"groups": groups}
    return make


def _embedding_maker(members: int):
    def make(rng, member, index):
        sizes = [rng.randrange(1, 4) for _ in range(members)]
        pts = _separated(rng, sum(sizes), 0.85, 0.3)
        families, start = [], 0
        for s in sizes:
            families.append([_pair(z) for z in pts[start:start + s]])
            start += s
        return "embedding", [], {"families": families}
    return make


_WEIGHT_TAGS = ("two_plus_cos", "sqrt_abs_one_minus_z", "abs_one_minus_z", "one")
_WEIGHT_SAMPLES = 8192  # p0_norm_check needs at least 2**13 stored samples


def _weight_tag(rng, member, index):
    return "weight", [], {"tag": _WEIGHT_TAGS[member % len(_WEIGHT_TAGS)]}


def _weight_samples(rng, member, index):
    n = _WEIGHT_SAMPLES
    phase = TAU * rng.random()
    if member % 2:
        p = rng.uniform(0.1, 0.9)  # power singularity |1 - e^{i(t - phase)}|^p
        values = [abs(2.0 * math.sin((TAU * (i + 0.5) / n - phase) / 2.0)) ** p for i in range(n)]
    else:
        a, k = rng.uniform(1.2, 3.0), rng.randrange(1, 8)
        values = [a + math.cos(k * TAU * i / n + phase) for i in range(n)]
    return "weight", [], {"samples": values}


def _diagnostics_warmup():
    return "sequence", [], {"points": [[0.0, 0.0], [0.5, 0.0], [-0.2, 0.6]]}


# -- construct strata of outer-contour -------------------------------------------

def _unitary2(rng: random.Random) -> list[list[complex]]:
    """Random 2x2 unitary: a rotation with random phases."""
    t = TAU * rng.random()
    c, s = math.cos(t), math.sin(t)
    p, q, r = (cmath.exp(1j * TAU * rng.random()) for _ in range(3))
    return [[p * c, -p * s * r], [q * s, q * c * r]]


def _matrix_maker(rng, member, index):
    """U diag((z - a)/(1 + |a|), c) V: contractive, with det zero a and a
    nonconstant outer part, so both the sphere net and outer logs run."""
    a = _point(rng, 0.6)
    c = rng.uniform(0.6, 0.95)
    u, v = _unitary2(rng), _unitary2(rng)
    diag = [(-a / (1.0 + abs(a)), c), (1.0 / (1.0 + abs(a)), 0.0)]  # per power of z
    coefficients = []
    for d0, d1 in diag:
        mat = [[u[i][0] * d0 * v[0][j] + u[i][1] * d1 * v[1][j] for j in range(2)]
               for i in range(2)]
        coefficients.append([[_pair(x) for x in row] for row in mat])
    return "construct", _construct_flags(index), {"matrices": [{"coefficients": coefficients}]}


def _scalar_maker(members: int, zeros: int):
    def make(rng, member, index):
        families = [[_pair(_point(rng, 0.7)) for _ in range(zeros)] for _ in range(members)]
        return "construct", _construct_flags(index), {"families": families}
    return make


def _construct_flags(seed: int) -> list[str]:
    # eps 0.3 and the depth-4 condition grid (249 points) keep a report near
    # 0.2 s, a small share of an outer-contour round
    return ["--epsilon", "0.3", "--alpha", "0.05", "--depth", "4", "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="blaschke-contour",
        why="contour on finite Blaschke products of 1-50 zeros: time goes to the "
            "curve-measure Carleson norm of the boundary polylines",
        strata=tuple((f"zeros-{n}", _blaschke_maker(n)) for n in _ZERO_COUNTS),
        per_stratum=18, min_rounds=9, trace_rounds=3, warmup=_blaschke_warmup),
    Workload(
        name="outer-contour",
        why="contour with 1024-4096 outer-log samples and small c1 (time goes to the "
            "bad-interval scan), plus small construct reports on the same outer path",
        strata=(tuple((f"outer-{n}-c1-{c1}", _outer_maker(n, c1))
                      for n in (1024, 2048, 4096) for c1 in ("0.1", "0.2"))
                + (("construct-2x2", _matrix_maker),
                   ("construct-1x2", _scalar_maker(1, 2)))),
        per_stratum=10, min_rounds=5, trace_rounds=2, warmup=_outer_warmup),
    Workload(
        name="diagnostics",
        why="many short sequence, carleson, system, embedding and weight reports: "
            "riesz loops, discrete Carleson constants and CLI overhead, no contour",
        strata=(tuple((f"sequence-{n}", _sequence_maker(n)) for n in (6, 12, 20))
                + tuple((f"carleson-{n}", _carleson_maker(n)) for n in (100, 200, 400))
                + tuple((f"system-{n}", _system_maker(n)) for n in (8, 14, 20))
                + tuple((f"embedding-{m}", _embedding_maker(m)) for m in (3, 5))
                + (("weight-tag", _weight_tag), ("weight-samples", _weight_samples))),
        per_stratum=16, min_rounds=35, trace_rounds=8, warmup=_diagnostics_warmup),
)}
