"""The workloads: seeded input pools and the requests of one round.

Each workload is a closed loop with one client.  It sends the requests
of round 0, 1, 2, ... in order, each only after the previous one has
returned.  Every round sends all three request kinds (``analyze``,
``bench`` and ``svir``), so that every end-to-end metric is defined on
every workload; a workload is set apart by its inputs and by the kind
that takes most of its time.

Inputs come from fixed pools whose golden answers are recorded in
``golden/``; the workload seed picks the order in which a run walks
through each pool, so the same seed gives the same inputs.  Matrices are
written as files during set-up; the program under test only sees files
and command lines.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALGORITHMS = ("b1", "b4", "b3", "srrqr")
METHODS = ("complex-step", "central-fd")

# SVIR parameter draws are uniform within this share of NOMINAL_SVIR.
SVIR_SPREAD = 0.2


@dataclass(frozen=True)
class MatrixPool:
    """Matrices ``realize(generator, seed)`` for seed in ``range(size)``.

    ``analyzed``: golden answers for ``cssident analyze``; ``rows``:
    golden ``cssident bench`` rows.
    """

    name: str
    generator: dict
    size: int
    policy: dict
    analyzed: bool
    rows: bool

    def policy_args(self) -> tuple[str, ...]:
        args = ("--k-policy", self.policy["mode"])
        return args + (("--k", str(self.policy["k"])) if "k" in self.policy else ())


@dataclass(frozen=True)
class SvirPool:
    """SVIR sensitivities for parameter draws ``0..size-1`` and both methods.

    ``analyzed``: golden answers for gap-policy analyses of each matrix.
    """

    name: str
    size: int
    substeps: int
    analyzed: bool


GAP = {"mode": "gap"}

SHIPS_400 = MatrixPool(
    "ships400", {"family": "ships", "n": 400, "p": 200, "spectrum": {"k": 40}},
    20, {"mode": "fixed", "k": 40}, analyzed=True, rows=False)
SHIPS_200 = MatrixPool(
    "ships200", {"family": "ships", "n": 200, "p": 100, "spectrum": {"k": 20}},
    32, {"mode": "fixed", "k": 20}, analyzed=False, rows=True)
KAHAN_100 = MatrixPool(
    "kahan100", {"family": "kahan", "n": 100, "zeta_range": [0.9, 0.99999]},
    120, {"mode": "fixed", "k": 99}, analyzed=True, rows=True)
GAUSS_31x4 = MatrixPool(
    "gauss31x4", {"family": "gaussian", "n": 31, "p": 4},
    160, GAP, analyzed=False, rows=True)
SVIR_100 = SvirPool("svir100", 32, substeps=100, analyzed=True)
SVIR_20 = SvirPool("svir20", 8, substeps=20, analyzed=False)

POOLS = (SHIPS_400, SHIPS_200, KAHAN_100, GAUSS_31x4, SVIR_100, SVIR_20)


@dataclass(frozen=True)
class Workload:
    """What one round sends.

    ``analyze_pool`` supplies the inputs of the four analyze requests;
    when it is None the round analyzes its own SVIR outputs instead.
    ``analyze_inputs`` is how many pool matrices set-up writes.
    """

    name: str
    why: str
    analyze_pool: MatrixPool | None
    analyze_inputs: int
    bench_pool: MatrixPool
    bench_realizations: int
    svir_pool: SvirPool


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "analyze-ships",
            "Tall 2:1 ships matrices with k = p/5, where css selection is ~90% "
            "of each analyze request and the O(p^4) SVD loops show.",
            SHIPS_400, 20, SHIPS_200, 1, SVIR_20),
        Workload(
            "bench-kahan",
            "Many small square Kahan matrices with k = p - 1: b4/b3 take p "
            "steps, b1/srrqr about one, and per-realization fixed costs weigh.",
            KAHAN_100, 40, KAHAN_100, 5, SVIR_20),
        Workload(
            "svir-pipeline",
            "RK4 sensitivities dominate and each 31x4 analysis is cheap, so "
            "per-call overheads show; the only gap-policy workload.",
            None, 0, GAUSS_31x4, 5, SVIR_100),
    )
}


@dataclass(frozen=True)
class Request:
    """One CLI call and the golden entries its output is checked against."""

    kind: str                 # "analyze", "svir" or "bench"
    label: str                # algorithm, method, or "bench"
    argv: tuple[str, ...]
    output: Path              # analyze JSON, svir CSV or bench out-dir
    table: str
    keys: tuple[str, ...]

    @property
    def units(self) -> int:
        """Attempted units: one per request, one per bench row."""
        return len(self.keys) if self.kind == "bench" else 1


def svir_params(draw: int):
    # cssident is imported late: it is importable only once src/ is on the path
    from cssident.odesens import NOMINAL_SVIR, sample_nominal_neighborhood
    return sample_nominal_neighborhood(NOMINAL_SVIR, SVIR_SPREAD, seed=draw)


def svir_argv(draw: int, method: str, substeps: int, output: Path) -> tuple[str, ...]:
    q = svir_params(draw)
    return ("svir", "--method", method, "--beta", repr(q.beta), "--nu", repr(q.nu),
            "--alpha", repr(q.alpha), "--gamma", repr(q.gamma),
            "--substeps", str(substeps), "--output", str(output))


def analyze_argv(path: Path, algorithm: str, policy_args, output: Path) -> tuple[str, ...]:
    return ("analyze", "--input", str(path), "--algorithm", algorithm,
            *policy_args, "--output", str(output))


def bench_spec(pool: MatrixPool, base_seed: int, realizations: int) -> dict:
    return {"generator": pool.generator, "algorithms": list(ALGORITHMS),
            "k_policy": pool.policy, "realizations": realizations,
            "base_seed": base_seed}


def rotated(items, r: int):
    return [items[(i + r) % len(items)] for i in range(len(items))]


class Plan:
    """The inputs and rounds of one run of ``workload`` with ``seed``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.dir = workdir
        rng = np.random.default_rng(seed % 2 ** 64)
        w = workload
        self.analyze_order = (
            rng.permutation(w.analyze_pool.size)[: w.analyze_inputs]
            if w.analyze_pool else None
        )
        windows = w.bench_pool.size // w.bench_realizations
        self.bench_bases = rng.permutation(windows) * w.bench_realizations
        self.svir_order = rng.permutation(w.svir_pool.size)

    def input_path(self, seed: int) -> Path:
        return self.dir / f"{self.workload.analyze_pool.name}-{seed}.csv"

    def spec_path(self, base: int) -> Path:
        return self.dir / f"spec-{base}.json"

    def write_inputs(self) -> None:
        """Write every analyze input matrix and bench spec of the run."""
        from cssident.bench import realize
        from cssident.matio import write_matrix
        w = self.workload
        (self.dir / "out").mkdir(parents=True, exist_ok=True)
        if w.analyze_pool:
            for seed in self.analyze_order:
                write_matrix(realize(w.analyze_pool.generator, int(seed)),
                             self.input_path(int(seed)))
        for base in self.bench_bases:
            spec = bench_spec(w.bench_pool, int(base), w.bench_realizations)
            self.spec_path(int(base)).write_text(json.dumps(spec))

    def analyses(self, path: Path, policy_args, table: str, key: str,
                 r: int) -> list[Request]:
        """The four analyze requests on ``path``, in round ``r``'s order."""
        out = self.dir / "out"
        return [Request("analyze", alg,
                        analyze_argv(path, alg, policy_args, out / f"analyze-{alg}.json"),
                        out / f"analyze-{alg}.json", table, (f"{key}/{alg}",))
                for alg in rotated(ALGORITHMS, r)]

    def round(self, r: int) -> list[Request]:
        w = self.workload
        out = self.dir / "out"
        requests: list[Request] = []
        if w.analyze_pool is not None:
            seed = int(self.analyze_order[r % len(self.analyze_order)])
            requests += self.analyses(self.input_path(seed), w.analyze_pool.policy_args(),
                                      w.analyze_pool.name, str(seed), r)
        svir = w.svir_pool
        draw = int(self.svir_order[r % svir.size])
        for method in rotated(METHODS, r):
            sens = out / f"svir-{method}.csv"
            requests.append(Request(
                "svir", method, svir_argv(draw, method, svir.substeps, sens),
                sens, svir.name, (f"{draw}/{method}",)))
            if w.analyze_pool is None:
                requests += self.analyses(sens, ("--k-policy", "gap"), svir.name,
                                          f"{draw}/{method}", r)
        base = int(self.bench_bases[r % len(self.bench_bases)])
        seeds = range(base, base + w.bench_realizations)
        requests.append(Request(
            "bench", "bench",
            ("bench", "--spec", str(self.spec_path(base)), "--out-dir", str(out / "bench")),
            out / "bench", w.bench_pool.name,
            tuple(f"{s}/{alg}" for s in seeds for alg in ALGORITHMS)))
        return requests


def warmup_requests(workdir: Path) -> list[tuple[str, ...]]:
    """Small requests of every kind that load every code path once."""
    from cssident.bench import realize
    from cssident.matio import write_matrix
    workdir.mkdir(parents=True, exist_ok=True)
    small = workdir / "warmup.csv"
    write_matrix(realize({"family": "ships", "n": 60, "p": 30,
                          "spectrum": {"k": 10}}, 0), small)
    spec = workdir / "warmup-spec.json"
    spec.write_text(json.dumps({
        "generator": {"family": "kahan", "n": 10, "zeta": 0.95},
        "algorithms": list(ALGORITHMS), "k_policy": {"mode": "fixed", "k": 9},
        "realizations": 1}))
    out = workdir / "warmup-out"
    argvs = [analyze_argv(small, alg, policy, out / "analyze.json")
             for alg in ALGORITHMS
             for policy in (("--k-policy", "fixed", "--k", "10"), ("--k-policy", "gap"))]
    argvs += [("svir", "--method", m, "--days", "3", "--substeps", "5",
               "--output", str(out / "svir.csv")) for m in METHODS]
    argvs.append(("bench", "--spec", str(spec), "--out-dir", str(out / "bench")))
    out.mkdir(parents=True, exist_ok=True)
    return argvs
