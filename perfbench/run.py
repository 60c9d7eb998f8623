"""cssident benchmark: closed-loop workloads through the in-process CLI.

    python3 perfbench/run.py --workload analyze-ships --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends the requests of a workload (see
``workloads.py``) one after another through ``cssident.cli.main`` until
``--seconds`` have passed, checks every output against the golden
answers in ``golden/``, prints each metric by name with its unit, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs round
0 untraced, then traces rounds 0, 1, ... (see ``tracing.py``) and reports
the per-layer metrics and the tracing overhead.  Set-up (interpreter
start, ``import cssident.cli``, writing the inputs, warm-up requests) is
measured in separate processes, several times, and reported as a median;
each set-up is scaled by reference work timed in its own process.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is loaded, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_REPEATS = 3
SETUP_REFERENCES = 5

import golden  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from workloads import ALGORITHMS, METHODS, WORKLOADS, Plan, warmup_requests  # noqa: E402


@dataclass
class Record:
    """One request of the measured loop."""

    round: int
    kind: str
    label: str
    seconds: float
    units: int
    failed: int
    slowdown: float       # host slowdown around the request

    @property
    def reference_seconds(self) -> float:
        return self.seconds / self.slowdown


def import_cli():
    sys.path.insert(0, str(SRC))
    import cssident.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "cssident":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's src/")
    return cli


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu_count": os.cpu_count(),
    }


def warm_up(cli, workdir: Path) -> None:
    for argv in warmup_requests(workdir):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"warm-up request failed: {' '.join(argv)}")


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Child process: one complete set-up; prints its phase times, the
    host slowdown over reference work done after the import and after the
    warm-up, and the time that reference work took."""
    t0 = perf_counter()
    cli = import_cli()
    t1 = perf_counter()
    refs = [measure.reference_seconds() for _ in range(SETUP_REFERENCES)]
    t2 = perf_counter()
    Plan(WORKLOADS[workload], seed, workdir).write_inputs()
    t3 = perf_counter()
    warm_up(cli, workdir / "warmup")
    t4 = perf_counter()
    refs += [measure.reference_seconds() for _ in range(SETUP_REFERENCES)]
    t5 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2, "warmup_s": t4 - t3,
                      "reference_s": (t2 - t1) + (t5 - t4),
                      "slowdown": measure.median(refs) / measure.REFERENCE_S}))


def measure_setup(workload: str, seed: int, base: Path) -> tuple[list[dict], Path]:
    """Set up SETUP_REPEATS times in fresh interpreters; returns each
    set-up's times and the input directory of the last one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    probes = []
    for i in range(SETUP_REPEATS):
        workdir = base / f"setup{i}"
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(workdir)],
            env=env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        wall -= phases.pop("reference_s")
        # interpreter start, import and exit: all of the wall time not in a phase
        phases["import_s"] = wall - phases["inputs_s"] - phases["warmup_s"]
        probes.append(dict(phases, wall_s=wall))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(workdir)
    return probes, workdir


def rounds(seconds: float):
    """Round numbers 0, 1, ... until ``seconds`` have passed; at least one."""
    r, t0 = 0, perf_counter()
    while r == 0 or perf_counter() - t0 < seconds:
        yield r
        r += 1


def run_round(cli, plan: Plan, r: int, tables: dict, log: list[Record],
              tracer: tracing.Tracer | None = None,
              requests: dict | None = None) -> float:
    """Send every request of round ``r``; returns the round's request
    time in reference seconds.

    The host slowdown is measured between requests; a request's own is the
    mean of the measurements just before and just after it.
    """
    spent, before = 0.0, measure.slowdown()
    for req in plan.round(r):
        argv = list(req.argv)
        if tracer is not None:
            tracer.request = len(log)
            requests[len(log)] = tracing.RequestInfo(req.kind, req.label, r)
        t0 = perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{req.kind}", cli.main, (argv,), {})
        except Exception:  # a crashing request is a failed request, not a crashed run
            traceback.print_exc()
            code = None
        seconds = perf_counter() - t0
        after = measure.slowdown()
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            failed, problems = golden.check(req.kind, req.output, tables[req.table], req.keys)
        except (OSError, ValueError, KeyError) as exc:  # unreadable output fails its units
            failed, problems = req.units, [repr(exc)]
        for problem in problems[:5]:
            print(f"golden mismatch: {' '.join(argv)}: {problem}", file=sys.stderr)
        log.append(Record(r, req.kind, req.label, seconds, req.units, failed,
                          (before + after) / 2))
        spent += log[-1].reference_seconds
        before = after
    return spent


def end_to_end(log: list[Record], setups: list[dict]) -> tuple[dict, dict]:
    """The gated end-to-end metrics and the ones printed for information,
    each ``name -> (value, unit, how it was computed)``.

    Request timings are in reference seconds: each request's time divided
    by the host slowdown measured around it (see ``measure.slowdown``);
    a set-up's time by the slowdown its own process measured.  The same
    timings in raw seconds, and the slowdown itself, are printed for
    information.
    """
    gated = request_timings(log, lambda r: r.reference_seconds)
    info = {f"{name}.raw": value for name, value in
            request_timings(log, lambda r: r.seconds).items()}
    slowdowns = [r.slowdown for r in log]
    info["host_slowdown"] = (measure.median(slowdowns), "ratio",
                             f"median over {len(slowdowns)} requests")
    walls = [s["wall_s"] for s in setups]
    gated["setup_s"] = (measure.median(s["wall_s"] / s["slowdown"] for s in setups), "s",
                        f"median of {len(walls)} set-ups")
    info["setup_s.raw"] = (measure.median(walls), "s", f"median of {len(walls)} set-ups")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated["peak_rss_mb"] = (rss, "MB", "ru_maxrss of the measuring process")
    return gated, info


def request_timings(log: list[Record], seconds_of) -> dict:
    """Per-kind medians, tails and bench throughput, with
    ``seconds_of(record)`` the time of one request."""
    out: dict[str, tuple[float, str, str]] = {}

    def times(kind, label=None):
        return [seconds_of(r) for r in log if r.kind == kind and label in (None, r.label)]

    def kind_metrics(kind, labels):
        for label in labels:
            samples = times(kind, label)
            out[f"{kind}_p50_s.{label}"] = (measure.median(samples), "s",
                                            f"median of {len(samples)}")
        value, pct, n = measure.tail(times(kind))
        where = f"p{pct:.1f}" if pct is not None else "max (fewer than 11 samples)"
        out[f"{kind}_tail_s"] = (value, "s", f"{where} of {n} pooled")

    kind_metrics("analyze", ALGORITHMS)
    bench = [r for r in log if r.kind == "bench"]
    rows = sum(r.units - r.failed for r in bench)
    seconds = sum(seconds_of(r) for r in bench)
    out["bench_rows_per_s"] = (rows / seconds, "1/s", f"{rows} rows in {seconds:.2f} s")
    kind_metrics("svir", METHODS)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "cssident" / "cli.py").is_file():
        print(f"error: no cssident sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    base = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return benchmark(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def benchmark(args, base: Path) -> int:
    workload = WORKLOADS[args.workload]
    setups, inputs = measure_setup(args.workload, args.seed, base)
    cli = import_cli()
    warm_up(cli, base / "warmup")
    plan = Plan(workload, args.seed, inputs)
    tables = {name: golden.load_table(name) for name in
              {req.table for req in plan.round(0)}}
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    log: list[Record] = []
    info: dict = {}
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "environment": env, "setups": setups}
    if args.trace:
        untraced = run_round(cli, plan, 0, tables, log)
        tracer, requests = tracing.Tracer(), {}
        restore = tracing.install(tracer)
        try:
            traced = [run_round(cli, plan, r, tables, log, tracer, requests)
                      for r in rounds(args.seconds)]
        finally:
            restore()
        values = tracing.layer_metrics(tracer.spans, requests)
        for name in tracing.SETUP_METRICS:
            values[name] = measure.median(s[name.split(".")[1]] for s in setups)
        values[tracing.OVERHEAD_METRIC] = traced[0] / untraced - 1.0
        metrics = {name: (value, tracing.unit_of(name), "") for name, value in values.items()}
        record["layer_map"] = tracing.LAYER_MAP
        record["rounds_traced"] = len(traced)
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.request, s.attrs]
                           for s in tracer.spans]
    else:
        for r in rounds(args.seconds):
            run_round(cli, plan, r, tables, log)
        metrics, info = end_to_end(log, setups)
        record["rounds"] = r + 1

    attempted = sum(rec.units for rec in log)
    failed = sum(rec.failed for rec in log)
    info["failed_ratio"] = (failed / attempted, "ratio",
                            f"{failed} of {attempted} requests and bench rows")
    for title, table in (("metrics", metrics), ("not gated", info)):
        print(f"-- {title}")
        for name, (value, unit, how) in table.items():
            print(f"{name:<42} {value:>14.6g} {unit:<6} {how}")
    record["metrics"], record["not_gated"] = (
        {name: {"value": v, "unit": u, "how": h} for name, (v, u, h) in table.items()}
        for table in (metrics, info))
    record["requests"] = [vars(rec) for rec in log]
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
