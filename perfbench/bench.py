"""Workloads, measurement loop, correctness gate and metrics.

``perfbench/run.py`` pins the BLAS threads and calls ``main``; see
README.md for the workloads, the metrics and what each layer should move.
The load is closed-loop: one process per workload and one caller, and
solves run back to back.  Every run solves a fixed pool of systems drawn
from ``--seed`` round-robin until ``--seconds`` have elapsed and the first
pass over the pool is complete.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gpkrylov
from gpkrylov import io
from gpkrylov.convergence import CONVERGED
from gpkrylov.linop import Operator, PartitionedSystem, residual_norm
from perfbench import gen
from perfbench.calib import CalibratedClock, Reference
from perfbench.spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / ".data"
OUT_DIR = HERE / ".out"

METHODS = ("gpbilq", "gpbicg", "gpqmr", "gpmr")
SOLVERS = {
    "gpbilq": lambda s, tol, maxit: gpkrylov.gpbilq_solve(s, tol=tol, maxit=maxit),
    "gpbicg": lambda s, tol, maxit: gpkrylov.gpbilq_solve(s, tol=tol, maxit=maxit,
                                                         monitor="c"),
    "gpqmr": lambda s, tol, maxit: gpkrylov.gpqmr_solve(s, tol=tol, maxit=maxit),
    "gpmr": lambda s, tol, maxit: gpkrylov.gpmr_solve(s, tol=tol, maxit=maxit),
}
# Layers whose self time each method's solve contains.
LAYERS = {
    "gpbilq": ("linop", "reduction", "window", "rotblock", "advance", "estimate",
               "record", "driver"),
    "gpbicg": ("linop", "reduction", "window", "rotblock", "advance", "estimate",
               "transfer", "record", "driver"),
    "gpqmr": ("linop", "reduction", "window", "advance", "record", "driver"),
    "gpmr": ("linop", "hessenberg", "record", "driver"),
}
CALL_COUNTED = ("linop", "rotblock")
# Untimed iterations per method before a run: enough for the allocator to
# settle (a cold first gpqmr solve on grid-35k runs 1.6x slower).
WARM_UP_ITERS = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.  ``runs[method]`` is (rtol, maxit): a
    positive rtol asks for a relative true residual below it, rtol 0 asks
    for exactly maxit iterations."""

    name: str
    grid_n: int | None          # None: desk batch of dense systems
    lam: float
    mu: float
    pool: int                   # systems per run, each from (seed, index)
    setups: int                 # set-up repetitions behind setup_s
    runs: dict = field(hash=False)
    mem_k: int                  # tracemalloc budgets K and 2K
    ref_iters: int              # reference iterations timed around each operation
    ref_nominal_us: float       # reference iteration at the nominal machine speed


def _all(rtol, maxit, **override):
    return {m: override.get(m, (rtol, maxit)) for m in METHODS}


WORKLOADS = {
    # Small dense systems: per-call Python and numpy overhead dominates
    # (rotation_block, scalar windows, driver); the operator is ~10% of an
    # iteration.  General two-sided coupling, B unrelated to A^T.
    "desk-dense": Workload("desk-dense", None, 1.0, -0.5, pool=32, setups=20,
                           runs=_all(1e-6, 1000), mem_k=16,
                           ref_iters=40, ref_nominal_us=65.0),
    # Headline time to a true-residual tolerance on sparse operators.  gpmr
    # gets a fixed budget: unrestarted it needs ~45 s, restarted it stalls.
    "grid-35k": Workload("grid-35k", 108, 1.0, -1e-2, pool=4, setups=10,
                         runs=_all(1e-6, 3000, gpmr=(0.0, 50)), mem_k=32,
                         ref_iters=120, ref_nominal_us=650.0),
    # Vector passes over 1-2 MB arrays dominate; fixed budgets well below n.
    "grid-350k": Workload("grid-350k", 342, 1.0, -1e-2, pool=1, setups=6,
                          runs=_all(0.0, 25, gpmr=(0.0, 12)), mem_k=16,
                          ref_iters=15, ref_nominal_us=8500.0),
}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}
END_TO_END.update({f"{m}.{k}": u for m in METHODS
                   for k, u in (("solve_s", "s"), ("us_per_iter", "us"),
                                ("iters", "iter"))})


def per_layer_units() -> dict[str, str]:
    units = {}
    for m in METHODS:
        for layer in LAYERS[m]:
            units[f"{m}.{layer}.us_per_iter"] = "us"
            if layer in CALL_COUNTED:
                units[f"{m}.{layer}.calls_per_iter"] = "calls/iter"
        units[f"{m}.floor_ratio"] = "ratio"
        units[f"{m}.mem.peak_vectors"] = "vectors"
        units[f"{m}.mem.growth_bytes_per_iter"] = "B/iter"
        units[f"{m}.est_over_true"] = "ratio"
    units["gpbicg.transfer.defined_frac"] = "frac"
    units.update({"linop.floor_us": "us", "io.read_s": "s",
                  "io.read_mb_per_s": "MB/s", "trace.overhead_frac": "frac"})
    return units


# -- inputs and set-up -------------------------------------------------------


def reference(wl: Workload) -> Reference:
    """The calibration kernel on the workload's shapes, built by the
    benchmark from the generator (never by the package) and seed-independent."""
    if wl.grid_n is None:
        A, B, _, _ = gen.desk_arrays(0, 0)
        return Reference(A, B)
    A = gen.grid_gradient(wl.grid_n)
    return Reference(A, (-A.T).tocsr())


class Pool:
    """The generated inputs of one run, the timed set-ups built from them
    and the calibrated clock that times set-ups and solves.

    One set-up builds every system of the pool.  Desk: Operator.from_matrix
    and PartitionedSystem from in-memory arrays for the whole batch, one
    sample per set-up (a single system takes tens of microseconds, too
    short to time apart from the cache state the calibration chunk leaves).
    Grid: read A and B with io.read_matrix_market, wrap them, load b and c
    and build the system, one sample per set-up; the other right-hand
    sides of the pool reuse the operators untimed.  ``setup_s`` holds
    calibrated seconds, ``setup_wall_s`` and ``read_s`` wall seconds.
    """

    def __init__(self, wl: Workload, seed: int, data_dir: Path = DATA_DIR):
        self.wl = wl
        self.builds = 0
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.read_s: list[float] = []
        self.read_bytes = 0
        self.clock = CalibratedClock(reference(wl), wl.ref_iters,
                                     wl.ref_nominal_us * 1e-6)
        if wl.grid_n is None:
            self.arrays = [gen.desk_arrays(seed, i) for i in range(wl.pool)]
        else:
            self.a_path, self.b_path, self.rhs = gen.write_grid_inputs(
                wl.grid_n, seed, wl.pool, data_dir)
            self.read_bytes = self.a_path.stat().st_size + self.b_path.stat().st_size

    def _timed_setup(self, fn, *args):
        system, wall, calibrated = self.clock.time(fn, *args)
        self.setup_wall_s.append(wall)
        self.setup_s.append(calibrated)
        return system

    def _desk_systems(self) -> list[PartitionedSystem]:
        wl = self.wl
        return [PartitionedSystem(wl.lam, wl.mu, Operator.from_matrix(A),
                                  Operator.from_matrix(B), b, c)
                for A, B, b, c in self.arrays]

    def _grid_system(self) -> PartitionedSystem:
        wl = self.wl
        t0 = time.perf_counter()
        A = io.read_matrix_market(self.a_path)
        B = io.read_matrix_market(self.b_path)
        self.read_s.append(time.perf_counter() - t0)
        return PartitionedSystem(wl.lam, wl.mu, Operator.from_matrix(A),
                                 Operator.from_matrix(B),
                                 np.load(self.rhs[0][0]), np.load(self.rhs[0][1]))

    def build(self) -> list[PartitionedSystem]:
        wl = self.wl
        self.builds += 1
        if wl.grid_n is None:
            return self._timed_setup(self._desk_systems)
        first = self._timed_setup(self._grid_system)
        return [first] + [PartitionedSystem(wl.lam, wl.mu, first.A, first.B,
                                            np.load(b), np.load(c))
                          for b, c in self.rhs[1:]]

    def probe_desk_io(self, seed: int, data_dir: Path = DATA_DIR) -> None:
        """Time reading desk system 0 from Matrix Market files, which desk
        set-up itself never does, so that io.read_s exists on every workload."""
        a_path, b_path = gen.write_desk_inputs(seed, data_dir)
        self.read_bytes = a_path.stat().st_size + b_path.stat().st_size
        for _ in range(self.wl.setups):
            t0 = time.perf_counter()
            io.read_matrix_market(a_path)
            io.read_matrix_market(b_path)
            self.read_s.append(time.perf_counter() - t0)


def floor_us(s: PartitionedSystem, min_seconds: float = 0.3) -> float:
    """Median wall time of A u, A^T p, B q, B^T v on their own, in microseconds."""
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(s.n), rng.standard_normal(s.n)
    p, q = rng.standard_normal(s.m), rng.standard_normal(s.m)
    samples = []
    stop = time.perf_counter() + min_seconds
    while len(samples) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        s.A.apply(u)
        s.A.apply_transpose(p)
        s.B.apply(q)
        s.B.apply_transpose(v)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


# -- solves and the correctness gate ----------------------------------------


@dataclass
class Solve:
    method: str
    system: int
    pass_no: int
    traced: bool
    seconds: float              # wall
    calibrated: float           # at the nominal machine speed, see calib.py
    iterations: int
    reason: str
    reported: float
    true_res: float
    failure: str | None
    transfer_defined: float | None = None


def classify(reason, iterations, finite, true_res, rhs_norm, rtol, maxit):
    """Failure kind of one finished solve, or None when it passed.

    Non-finite iterate or residual fails.  A fixed budget (rtol 0) fails
    when the run stops short of maxit.  A tolerance run fails when the true
    residual is above rtol * ||[b; c]||, whatever the reported reason.
    """
    if not finite or not math.isfinite(true_res):
        return "nonfinite"
    if rtol == 0.0:
        return None if iterations >= maxit else f"stopped early ({reason})"
    if true_res > rtol * rhs_norm:
        return "false converged" if reason == CONVERGED else f"{reason} above tol"
    return None


def run_solve(wl: Workload, method: str, index: int, s: PartitionedSystem,
              clock: CalibratedClock, pass_no: int = 0,
              tracer: Tracer | None = None) -> Solve:
    """One timed solve; the gate's true residual is computed after the clock."""
    rtol, maxit = wl.runs[method]
    tol = rtol * s.rhs_norm
    solver = SOLVERS[method]
    try:
        if tracer is None:
            res, seconds, calibrated = clock.time(solver, s, tol, maxit)
        else:
            with tracer.installed():
                res, seconds, calibrated = clock.time(tracer.run_solve, method,
                                                      solver, s, tol, maxit)
        finite = bool(np.isfinite(res.x).all() and np.isfinite(res.y).all())
        true_res = residual_norm(s, res.x, res.y) if finite else math.nan
    except Exception as exc:  # a raising solve is a failed operation, not a crash
        return Solve(method, index, pass_no, tracer is not None, math.nan, math.nan, 0,
                     "raised", math.nan, math.nan,
                     f"raised {type(exc).__name__}: {exc}")
    flags = [r.transfer_defined for r in res.record.rows
             if r.transfer_defined is not None]
    return Solve(method, index, pass_no, tracer is not None, seconds, calibrated,
                 res.iterations, res.reason, float(res.residual), true_res,
                 classify(res.reason, res.iterations, finite, true_res,
                          s.rhs_norm, rtol, maxit),
                 sum(flags) / len(flags) if flags else None)


def measure(pool: Pool, seconds: float, tracer: Tracer | None = None):
    """Solve the pool round-robin, each method per system in turn, until
    ``seconds`` have elapsed and the first pass is complete.  With a tracer
    every untraced solve is followed by a traced solve of the same system.

    Set-ups and solves are timed on the pool's calibrated clock, and the
    set-ups behind setup_s are spread evenly over the run instead of timed
    back to back.  Returns the systems and the solves.
    """
    wl = pool.wl
    systems = pool.build()
    for method in METHODS:  # warm-up, not counted
        SOLVERS[method](systems[0], 0.0, WARM_UP_ITERS)
    solves = []
    start = time.perf_counter()
    step = 0
    while True:
        index, pass_no = step % len(systems), step // len(systems)
        for method in METHODS:
            solves.append(run_solve(wl, method, index, systems[index], pool.clock,
                                    pass_no))
            if tracer is not None:
                solves.append(run_solve(wl, method, index, systems[index],
                                        pool.clock, pass_no, tracer))
        step += 1
        elapsed = time.perf_counter() - start
        while pool.builds < wl.setups and elapsed >= pool.builds * seconds / wl.setups:
            pool.build()
        if step >= len(systems) and elapsed >= seconds:
            break
    while pool.builds < wl.setups:
        pool.build()
    return systems, solves


def mem_probe(method: str, s: PartitionedSystem, k: int) -> int:
    """tracemalloc peak, in bytes, of one fixed-budget solve of k iterations."""
    tracemalloc.start()
    try:
        SOLVERS[method](s, 0.0, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- metrics -----------------------------------------------------------------


def _median(values):
    values = list(values)
    return statistics.median(values) if values else math.nan


def deterministic(solves) -> bool:
    """Every solve of one (method, system) took the same iteration count."""
    seen = {}
    for s in solves:
        if s.reason != "raised" and seen.setdefault((s.method, s.system),
                                                     s.iterations) != s.iterations:
            return False
    return True


def end_to_end(pool: Pool, solves) -> dict[str, float]:
    failed = sum(s.failure is not None for s in solves)
    out = {"setup_s": _median(pool.setup_s),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "pass_frac": 1.0 - failed / len(solves)}
    for m in METHODS:
        done = [s for s in solves if s.method == m and s.iterations > 0]
        out[f"{m}.solve_s"] = _median(s.calibrated for s in done)
        out[f"{m}.us_per_iter"] = _median(s.calibrated / s.iterations * 1e6
                                          for s in done)
        first = [s.iterations for s in done if s.pass_no == 0]
        out[f"{m}.iters"] = sum(first) / len(first) if first else math.nan
    return out


def per_layer(tracer: Tracer, pool: Pool, solves, floor: float,
              mem: dict) -> dict[str, float]:
    totals = layer_totals(tracer)
    traced = [s for s in solves if s.traced and s.iterations > 0]
    plain = [s for s in solves if not s.traced and s.iterations > 0]
    out = {}
    for m in METHODS:
        iters = sum(s.iterations for s in traced if s.method == m) or math.nan
        for layer in LAYERS[m]:
            own, calls = totals.get(m, {}).get(layer, (0.0, 0))
            out[f"{m}.{layer}.us_per_iter"] = own / iters * 1e6
            if layer in CALL_COUNTED:
                out[f"{m}.{layer}.calls_per_iter"] = calls / iters
        out[f"{m}.floor_ratio"] = _median(
            s.seconds / s.iterations * 1e6 for s in plain if s.method == m) / floor
        peak_k, peak_2k, k, width = mem[m]
        out[f"{m}.mem.peak_vectors"] = peak_k / width
        out[f"{m}.mem.growth_bytes_per_iter"] = (peak_2k - peak_k) / k
        out[f"{m}.est_over_true"] = _median(
            s.reported / s.true_res for s in plain if s.method == m)
    defined = [s.transfer_defined for s in traced
               if s.method == "gpbicg" and s.transfer_defined is not None]
    out["gpbicg.transfer.defined_frac"] = _median(defined)
    out["linop.floor_us"] = floor
    read = _median(pool.read_s)
    out["io.read_s"] = read
    out["io.read_mb_per_s"] = pool.read_bytes / 1e6 / read
    out["trace.overhead_frac"] = (sum(s.seconds for s in traced)
                                  / sum(s.seconds for s in plain) - 1.0)
    return out


def deciles(solves, attr: str) -> dict[str, dict[str, float]]:
    """Per-method sample count and deciles of the untraced us/iteration,
    from the ``seconds`` (wall) or ``calibrated`` time of each solve."""
    out = {}
    for m in METHODS:
        per_iter = [getattr(s, attr) / s.iterations * 1e6 for s in solves
                    if s.method == m and not s.traced and s.iterations > 0]
        if len(per_iter) >= 2:
            q = statistics.quantiles(per_iter, n=10)
            out[m] = {"n": len(per_iter), "p10": q[0], "p50": q[4], "p90": q[8]}
    return out


def failure_counts(solves) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for s in solves:
        if s.failure is not None:
            kind = counts.setdefault(s.method, {})
            kind[s.failure] = kind.get(s.failure, 0) + 1
    return counts


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 blas_threads: int, data_dir: Path = DATA_DIR,
                 out_dir: Path | None = OUT_DIR) -> dict:
    """Measure one workload; returns the detail record whose ``result`` is
    the line printed last."""
    pool = Pool(wl, seed, data_dir)
    if trace and wl.grid_n is None:
        pool.probe_desk_io(seed, data_dir)
    tracer = Tracer() if trace else None
    systems, solves = measure(pool, seconds, tracer)
    first = systems[0]
    if trace:
        width = 8 * (first.m + first.n)
        mem = {m: (mem_probe(m, first, wl.mem_k), mem_probe(m, first, 2 * wl.mem_k),
                   wl.mem_k, width) for m in METHODS}
        metrics = per_layer(tracer, pool, solves, floor_us(first), mem)
        units = per_layer_units()
    else:
        metrics = end_to_end(pool, solves)
        units = END_TO_END
    broken = any(s.reason == "raised" or s.failure == "nonfinite" for s in solves)
    calls_ok = not trace or all(
        metrics[f"{m}.linop.calls_per_iter"] == 4.0 for m in ("gpbilq", "gpbicg", "gpqmr"))
    result = {
        "correct": deterministic(solves) and not broken and calls_ok
        and all(math.isfinite(v) for v in metrics.values()),
        "attempted": len(solves),
        "failed": sum(s.failure is not None for s in solves),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "blas_threads": blas_threads,
              "m": first.m, "n": first.n, "systems": len(systems),
              "passes": max(s.pass_no for s in solves) + 1,
              "failures": failure_counts(solves),
              "calibration": {"ref_iters": wl.ref_iters,
                              "nominal_us": wl.ref_nominal_us,
                              "median_us": _median(pool.clock.ref_seconds) * 1e6,
                              "chunks": len(pool.clock.ref_seconds)},
              "setup_wall_s": _median(pool.setup_wall_s),
              "us_per_iter_deciles": deciles(solves, "calibrated"),
              "wall_us_per_iter_deciles": deciles(solves, "seconds"),
              "result": result}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
        if tracer is not None:
            tracer.save(out_dir / f"{stem}-spans.npz")
    return detail


def report(detail: dict) -> None:
    print(f"# perfbench workload={detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']} "
          f"blas_threads={detail['blas_threads']} m={detail['m']} n={detail['n']} "
          f"systems={detail['systems']} passes={detail['passes']}")
    cal = detail["calibration"]
    print(f"# reference iteration: median {cal['median_us']:.6g} us over "
          f"{cal['chunks']} chunks, nominal {cal['nominal_us']:g} us")
    for method, kinds in detail["failures"].items():
        for kind, count in kinds.items():
            print(f"# failed: {method} {kind} x{count}")
    result = detail["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


def main(argv, blas_threads: int, script: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb is the workload's own
        codes = [subprocess.run([sys.executable, str(script), "--workload", name,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for name in WORKLOADS]
        return max(codes)
    report(run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), blas_threads))
    return 0
