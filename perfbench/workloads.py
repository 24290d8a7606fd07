"""Seeded inputs, job lists and independent output checks for each workload.

Every variance the checks use is recomputed here from numpy moments,
<A^2> - <A>^2, on the matrices the benchmark wrote; nothing here imports
vurkit.  A workload is a list of CLI jobs (one cycle), the commands a user
runs once per input set (timed as set-up), and a ``check`` that turns one
job's JSON output into a list of failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# pinned reference values of the paper's fixtures
PAULI3_FLOOR = (1.7243, 2.0)
QUTRIT4_FLOOR = (0.9083, 1.0)
ORACLE_MIN = {"pauli3": 2.0, "qutrit4": 1.0}
SINGLET_MARGIN = -3.4486

REL_TOL = 1e-9
PROBES = 256


def qutrit4_matrices() -> list[np.ndarray]:
    """The qutrit quadruple: a diagonal matrix and three cyclic phase matrices."""
    def cyclic(w: float, u: float) -> np.ndarray:
        e = [np.exp(1j * k * u) for k in range(6)]
        return np.exp(1j * w) / np.sqrt(3) * np.array(
            [[0, e[5], e[4]], [1, 0, e[3]], [e[1], e[2], 0]], dtype=complex)

    first = 1j / np.sqrt(3) * np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=complex)
    return [np.diag([1, -1, 0]).astype(complex), first,
            cyclic(np.pi / 6, np.pi / 3), cyclic(-np.pi / 6, -np.pi / 3)]


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def gue(rng: np.random.Generator, n: int) -> np.ndarray:
    return hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def reference_spectra(n: int, count: int) -> list[np.ndarray]:
    """``count`` GUE spectra of size n, the same for every workload seed,
    each scaled to span [-1, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([n, count, 0x5EC]))
    spectra = []
    for _ in range(count):
        evals = np.linalg.eigvalsh(gue(rng, n))
        spectra.append(2.0 * (evals - evals[0]) / (evals[-1] - evals[0]) - 1.0)
    return spectra


def with_spectrum(rng: np.random.Generator, evals: np.ndarray) -> np.ndarray:
    """Hermitian matrix with the given eigenvalues in a seeded Haar-random basis."""
    u = haar_unitary(rng, evals.size)
    return hermitize((u * evals) @ u.conj().T)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_states(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return z / np.linalg.norm(z, axis=0)


def pure_variance_sums(mats, psi: np.ndarray) -> np.ndarray:
    """Variance sum of every column of ``psi`` (unit vectors)."""
    total = np.zeros(psi.shape[1])
    for a in mats:
        a_psi = a @ psi
        mean = np.real(np.sum(psi.conj() * a_psi, axis=0))
        total += np.sum(np.abs(a_psi) ** 2, axis=0) - mean ** 2
    return total


def mixed_variance(m: np.ndarray, rho: np.ndarray) -> float:
    mean = np.real(np.sum(rho * m.T))
    return float(np.real(np.sum(rho * (m @ m).T)) - mean ** 2)


def lowest_probe(mats, rng: np.random.Generator) -> float:
    """Lowest variance sum over seeded Haar states and every observable's eigenvectors."""
    n = mats[0].shape[0]
    eigvecs = [np.linalg.eigh(a)[1] for a in mats]
    psi = np.concatenate([haar_states(rng, n, PROBES)] + eigvecs, axis=1)
    return float(pure_variance_sums(mats, psi).min())


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _pairs(z: np.ndarray) -> list:
    return [float(z.real), float(z.imag)]


def write_matrix(path: Path, m: np.ndarray, key: str) -> str:
    path.write_text(json.dumps({key: [[_pairs(z) for z in row] for row in m]}))
    return str(path)


def write_pure(path: Path, v: np.ndarray) -> str:
    path.write_text(json.dumps({"pure": [_pairs(z) for z in v]}))
    return str(path)


@dataclass
class Workload:
    """One cycle of jobs plus what the checks and quality metrics need.

    A timed run repeats the cycle for its ``--seconds``, at least
    ``min_cycles`` times.  That minimum gives each job enough repeats for its
    median to be a steady figure, and puts the tail (at least 10 job
    runs beyond it) inside the runs of the slowest jobs, which cost alike.
    ``once`` jobs run once per run, before the cycles; ``traced_once`` jobs
    run only in a traced run.  ``reference`` names the computation in
    ``reference.py`` that gauges the host's speed; a timed run runs it before
    every ``reference_every``-th cycle job.
    """

    min_cycles: int
    reference: str
    reference_every: int = 1
    jobs: list[dict] = field(default_factory=list)
    once: list[dict] = field(default_factory=list)
    traced_once: list[dict] = field(default_factory=list)
    setup: list[list[str]] = field(default_factory=list)
    expect: dict = field(default_factory=dict)

    def add(self, key: str, argv: list[str], when: str = "cycle", **expect) -> None:
        lists = {"cycle": self.jobs, "once": self.once, "traced": self.traced_once}
        lists[when].append({"key": key, "argv": argv})
        self.expect[key] = expect


def _set_files(work: Path, label: str, mats) -> list[str]:
    return [write_matrix(work / f"{label}-{i}.json", m, "matrix") for i, m in enumerate(mats)]


# --- floors ------------------------------------------------------------------

def build_floors(rng: np.random.Generator, work: Path, tiny: bool) -> Workload:
    """``bound --auto-C --optimize`` on the fixtures, random sets and rescaled copies.

    A random set is three observables with seeded Haar-random eigenbases.
    The engine's cost depends on the spectra, not the bases, and an unscaled
    GUE draw's cost varies up to 3x with its widest eigenvalue gap.  So all
    random sets of one size share one spectrum triple: GUE draws that are the
    same for every seed, scaled to span [-1, 1] like the fixtures'.  The seed
    varies the bases, and with them the entropy constants, floors and probes,
    while the sets of one size cost the same.  The median job is then one of
    three like n = 3 jobs, and the tail one of two like n = 8 jobs.

    The n = 32 set and the x0.01 copies run once per run, ahead of the
    cycles.  The x100 copy of pauli3 runs only in a traced run: at seed it
    takes 19-31 s (the Gaussian sums underflow to flat zeros over most of the
    alpha grid, and every flat grid point is refined), which would take most
    of a timed run.
    """
    sets = {"pauli3": [PAULI[a] for a in "xyz"], "qutrit4": qutrit4_matrices()}
    for n, count in ((3, 1),) if tiny else ((3, 3), (8, 2), (32, 1)):
        spectra = reference_spectra(n, 3)
        for i in range(count):
            sets[f"rand{n}-{i}"] = [with_spectrum(rng, e) for e in spectra]
    scaled = [("pauli3", 0.01), ("rand3-0", 0.01)] + ([] if tiny else [("pauli3", 100.0)])
    for base, s in scaled:
        sets[f"{base}x{s:g}"] = [s * m for m in sets[base]]
    wl = Workload(min_cycles=6, reference="engine")
    for key, mats in sets.items():
        base, _, factor = key.partition("x")
        pinned = {"pauli3": PAULI3_FLOOR, "qutrit4": QUTRIT4_FLOOR}.get(key)
        when = ("traced" if factor == "100" else
                "once" if factor or key.startswith("rand32") else "cycle")
        wl.add(key, ["bound", *_set_files(work, key, mats), "--auto-C", "--optimize"], when,
               kind="floor", probe=lowest_probe(mats, rng), pinned=pinned,
               base=base if factor else None, scale=float(factor) if factor else None)
    return wl


def check_floor(exp: dict, payload: dict) -> list[str]:
    floor = payload["lower_bound"]
    bad = []
    if not floor <= exp["probe"] * (1 + REL_TOL):
        bad.append(f"floor {floor!r} exceeds the lowest probe variance sum {exp['probe']!r}")
    if exp["pinned"] is not None and not exp["pinned"][0] <= floor <= exp["pinned"][1]:
        bad.append(f"floor {floor!r} outside pinned range {exp['pinned']}")
    return bad


# --- oracle ------------------------------------------------------------------

def build_oracle(rng: np.random.Generator, work: Path, tiny: bool) -> Workload:
    """``oracle --restarts R --seed s`` on the fixtures and random n = 4, 8 sets.

    The random sets are seeded GUE triples, run with 12 restarts, a seeded
    oracle seed and ``--max-iters 250``.  At seed nearly every restart on
    them runs to that cap, so their cost hardly depends on the seed.  The
    fixtures run 16 restarts with the default cap and oracle seed 0: the
    same work in every run.  qutrit4 is the slowest job, and the median job
    is a random one.
    """
    sets = {"pauli3": [PAULI[a] for a in "xyz"], "qutrit4": qutrit4_matrices()}
    for n in ((4,) if tiny else (4, 8)):
        for i in range(1 if tiny else 2):
            sets[f"rand{n}-{i}"] = [gue(rng, n) for _ in range(3)]
    wl = Workload(min_cycles=11, reference="oracle")
    for key, mats in sets.items():
        if key in ORACLE_MIN:
            opts = ["--restarts", "16", "--seed", "0"]
        else:
            opts = ["--restarts", "12", "--seed", str(int(rng.integers(2**31))),
                    "--max-iters", "250"]
        wl.add(key, ["oracle", *_set_files(work, key, mats), *opts],
               kind="oracle", mats=mats, probe=lowest_probe(mats, rng), pinned=ORACLE_MIN.get(key))
    return wl


def check_oracle(exp: dict, payload: dict) -> list[str]:
    minimum = payload["minimum"]
    vec = np.array([complex(re, im) for re, im in payload["argmin_state"]["pure"]])
    recomputed = float(pure_variance_sums(exp["mats"], vec[:, None] / np.linalg.norm(vec))[0])
    bad = []
    if not close(minimum, recomputed):
        bad.append(f"minimum {minimum!r} != numpy moments at argmin {recomputed!r}")
    if exp["pinned"] is not None and not close(minimum, exp["pinned"], 1e-6):
        bad.append(f"minimum {minimum!r} != pinned {exp['pinned']}")
    return bad


# --- lur-sweep ---------------------------------------------------------------

def _local_set(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """Equally spaced spectrum in the computational and Fourier bases, both
    rotated by one seeded Haar unitary.  The rotation leaves the floor, the
    overlaps and the maximally entangled state's statistics unchanged, so the
    verdicts do not depend on the seed while every input file does."""
    lam = np.diag(np.linspace(-1.0, 1.0, d)).astype(complex)
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    w = haar_unitary(rng, d)
    return [hermitize(w @ m @ w.conj().T) for m in (lam, f @ lam @ f.conj().T)]


def _separable(rng: np.random.Generator, d: int, terms: int = 4) -> np.ndarray:
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((d * d, d * d), dtype=complex)
    for w, a, b in zip(weights, haar_states(rng, d, terms).T, haar_states(rng, d, terms).T):
        v = np.kron(a, b)
        rho += w * np.outer(v, v.conj())
    rho = hermitize(rho)
    return rho / np.real(np.trace(rho))


def _noisy_bell(d: int, p: float) -> np.ndarray:
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    return hermitize(p * np.outer(phi, phi) + (1 - p) * np.eye(d * d) / (d * d))


def build_lur(rng: np.random.Generator, work: Path, tiny: bool) -> Workload:
    """``lur --state S --pairs A1 B1 A2 B2 --u-a U --u-b U`` for d = 2, 4, 8, 16.

    Pairs are (A, -A^T), which annihilate the maximally entangled state.
    Noisy maximally entangled states use visibilities evenly spaced above the
    entanglement threshold 1/(d+1), so all are entangled and the share the
    test detects is fixed by d.  U is each local set's floor, computed once
    per pair set by ``bound --auto-C --optimize`` during set-up (B's floor
    equals A's: same overlaps, negated spectra).  The singlet runs with the
    three Pauli pairs and the pauli3 floor.  The ``io`` reference runs
    before every fifth job, six times a cycle.
    """
    wl = Workload(min_cycles=6, reference="io", reference_every=5)
    paulis = [PAULI[a] for a in "xyz"]
    pauli_files = _set_files(work, "pauli", paulis)
    wl.setup.append(["bound", *pauli_files, "--auto-C", "--optimize"])
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    wl.add("singlet", ["lur", "--state", write_pure(work / "singlet.json", singlet), "--pairs",
                       *[f for f in pauli_files for _ in range(2)],
                       "--u-a", "{U0}", "--u-b", "{U0}"],
           kind="lur", pairs=[(m, m) for m in paulis], rho=np.outer(singlet, singlet.conj()),
           u="{U0}", entangled=True, margin=SINGLET_MARGIN)
    for u_idx, (d, count) in enumerate(((2, 2), (4, 2)) if tiny else
                                       ((2, 4), (4, 4), (8, 4), (16, 2)), start=1):
        a_side = _local_set(rng, d)
        b_side = [-m.T for m in a_side]
        a_files = _set_files(work, f"d{d}-a", a_side)
        b_files = _set_files(work, f"d{d}-b", b_side)
        wl.setup.append(["bound", *a_files, "--auto-C", "--optimize"])
        pair_args = [f for ab in zip(a_files, b_files) for f in ab]
        threshold = 1.0 / (d + 1)
        visibilities = [threshold + (1 - threshold) * (k + 1) / count for k in range(count)]
        states = [(f"d{d}-bell{k}", _noisy_bell(d, p), True) for k, p in enumerate(visibilities)]
        states += [(f"d{d}-sep{k}", _separable(rng, d), False) for k in range(count)]
        for key, rho, entangled in states:
            state_file = write_matrix(work / f"{key}.json", rho, "density")
            wl.add(key, ["lur", "--state", state_file, "--pairs", *pair_args,
                         "--u-a", f"{{U{u_idx}}}", "--u-b", f"{{U{u_idx}}}"],
                   kind="lur", pairs=list(zip(a_side, b_side)), rho=rho, u=f"{{U{u_idx}}}",
                   entangled=entangled, margin=None)
    return wl


def check_lur(exp: dict, payload: dict) -> list[str]:
    rho = exp["rho"]
    lhs = 0.0
    for a, b in exp["pairs"]:
        na, nb = a.shape[0], b.shape[0]
        lhs += mixed_variance(np.kron(a, np.eye(nb)) + np.kron(np.eye(na), b), rho)
    bad = []
    if not close(payload["lhs"], lhs, 1e-8):
        bad.append(f"lhs {payload['lhs']!r} != numpy moments {lhs!r}")
    if payload["u_a"] != exp["u"] or payload["u_b"] != exp["u"]:
        bad.append(f"floors {payload['u_a']!r}, {payload['u_b']!r} != supplied {exp['u']!r}")
    if not exp["entangled"] and payload["verdict"] == "Entangled":
        bad.append("separable state judged Entangled")
    entangled_verdict = payload["verdict"] == "Entangled"
    if entangled_verdict != (payload["margin"] < 0) and abs(payload["margin"]) > 1e-6:
        bad.append(f"verdict {payload['verdict']} disagrees with margin {payload['margin']!r}")
    if exp["margin"] is not None and abs(payload["margin"] - exp["margin"]) > 5e-5:
        bad.append(f"margin {payload['margin']!r} != pinned {exp['margin']}")
    return bad


BUILDERS = {"floors": build_floors, "oracle": build_oracle, "lur-sweep": build_lur}
CHECKS = {"floor": check_floor, "oracle": check_oracle, "lur": check_lur}


def payload(record: dict) -> dict | None:
    """The ``payload`` of a job's JSON output, or None if the job failed to give one."""
    if record["rc"] != 0:
        return None
    try:
        return json.loads(record["stdout"])["payload"]
    except (ValueError, KeyError, TypeError):
        return None


def check(exp: dict, record: dict) -> list[str]:
    """Failures of one job: exit code, JSON shape, then the workload's own checks."""
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {record['error']}"]
    out = payload(record)
    if out is None:
        return ["output is not a run report with a payload"]
    try:
        return CHECKS[exp["kind"]](exp, out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable payload: {type(exc).__name__}: {exc}"]


def floor_quality(wl: Workload, payloads: dict) -> tuple[float, float]:
    """Mean floor / lowest probe over unscaled sets, and the worst relative
    scale-covariance error |floor(sA) - s^2 floor(A)| / (s^2 floor(A))."""
    ratios, errors = [], []
    for key, exp in wl.expect.items():
        if key not in payloads:
            continue
        floor = payloads[key]["lower_bound"]
        if exp["base"] is None:
            ratios.append(floor / exp["probe"])
        elif exp["base"] in payloads and payloads[exp["base"]]["lower_bound"] > 0:
            expected = exp["scale"] ** 2 * payloads[exp["base"]]["lower_bound"]
            errors.append(abs(floor - expected) / expected)
    # 1e-12 is the checks' resolution; an exact match reads as that floor, never 0
    return (float(np.mean(ratios)) if ratios else 0.0), max([1e-12] + errors)


def oracle_quality(wl: Workload, payloads: dict) -> float:
    """Mean of oracle minimum / lowest probe variance sum over the sets."""
    ratios = [payloads[k]["minimum"] / e["probe"] for k, e in wl.expect.items() if k in payloads]
    return float(np.mean(ratios)) if ratios else 0.0


def lur_quality(wl: Workload, payloads: dict) -> float:
    """Share of the entangled test states judged Entangled."""
    entangled = [k for k, e in wl.expect.items() if e["entangled"]]
    detected = sum(k in payloads and payloads[k]["verdict"] == "Entangled" for k in entangled)
    return detected / len(entangled)
