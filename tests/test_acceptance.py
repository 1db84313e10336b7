"""Acceptance suite: one test per criterion, summarized at session end.
Criteria 1-7 read one run of ``verify.run_invariant_suite``, which states
their systems, measures and bounds (``gpkrylov check`` runs the same).

Criterion 9 needs locally downloaded SuiteSparse matrices; point
GPKRYLOV_MATRIX_DIR (or place the .mtx files in ./data) to enable it.
"""

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpkrylov import (BiLQState, Operator, PartitionedSystem, build_experiment,
                      gpbilq_solve, gpmr_solve, gpqmr_solve, reduction,
                      residual_norm)
from gpkrylov.baselines import GPMRState
from gpkrylov.verify import (build_projected_h, estimate_gaps, run_invariant_suite,
                             stepped, transfer_gap)

from gpk_support import STATES, make_system, record_acceptance


@pytest.fixture(scope="module")
def suite():
    """One run of the invariant suite, which states criteria 1-7, and its
    wall time."""
    t0 = time.perf_counter()
    results = run_invariant_suite()
    return results, time.perf_counter() - t0


def failed_checks(suite, number, title, *extra):
    """Record criterion ``number``'s acceptance line from its checks in the
    suite and the ``extra`` (passed, detail) pairs; return the details of
    those that failed, or a note where the suite holds none."""
    lines = [(r.passed, f"{r.name[2:]} {r.detail}") for r in suite[0]
             if r.name.startswith(f"{number} ")] or [(False, "no check in the suite")]
    lines += extra
    record_acceptance(f"{number} {title}", all(passed for passed, _ in lines),
                      "; ".join(detail for _, detail in lines))
    return [detail for passed, detail in lines if not passed]


def test_criterion_1_reduction_invariants(suite):
    elapsed = suite[1]
    assert failed_checks(suite, 1, "reduction invariants",
                         (elapsed < 1.0, f"suite run {elapsed:.2f}s")) == []


def test_criterion_2_symmetric_coupling_equivalence(suite):
    assert failed_checks(suite, 2, "two-sided process collapses when B=A^T") == []


def test_criterion_3_minimum_norm_oracle_equivalence(suite):
    assert failed_checks(suite, 3, "minimum-norm iterate equals dense oracle") == []


def test_criterion_4_least_squares_oracle_equivalence(suite):
    assert failed_checks(suite, 4, "least-squares iterate equals dense oracle") == []


def _singular_mid_run_system():
    """Coupling pair engineered so the square projection is singular at k=2
    and nonsingular elsewhere (transfer undefined exactly once)."""
    n = 6
    rng = np.random.default_rng(9)
    lam = mu = 1.0
    alphas = [2.0, 0.0, 1.3, -0.7, 0.9, 1.1]
    thetas = [3.0, 1.0, -0.4, 0.8, 1.5, -1.2]
    ones = [1.0] * (n + 1)

    def det_h2(a2):
        al = alphas.copy()
        al[1] = a2
        H = build_projected_h(al, thetas, ones, ones, ones, ones, lam, mu, 2)
        return np.linalg.det(H[:4, :])

    d0, d1 = det_h2(0.0), det_h2(1.0)
    alphas[1] = -d0 / (d1 - d0)
    Q = rng.standard_normal((n, n)) + 3 * np.eye(n)
    U = rng.standard_normal((n, n)) + 3 * np.eye(n)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    for i in range(n):
        S[i, i], T[i, i] = alphas[i], thetas[i]
        if i + 1 < n:
            S[i + 1, i] = S[i, i + 1] = 1.0
            T[i + 1, i] = T[i, i + 1] = 1.0
    A = Q @ S @ np.linalg.inv(U)
    B = U @ T @ np.linalg.inv(Q)
    return PartitionedSystem(lam, mu, Operator.from_matrix(A),
                             Operator.from_matrix(B),
                             Q[:, 0].copy(), U[:, 0].copy(),
                             np.linalg.inv(Q).T[:, 0].copy(),
                             np.linalg.inv(U).T[:, 0].copy())


def test_criterion_5_transfer_iterate(suite):
    # engineered singular step: flagged not-defined, run continues
    res = gpbilq_solve(_singular_mid_run_system(), tol=1e-30, maxit=5,
                       monitor="c")
    flags = {row.k: row.transfer_defined for row in res.record.rows if row.k >= 1}
    gap_ok = (flags[2] is False and flags[3] is True and res.reason == "maxit"
              and len(flags) == 5)
    assert failed_checks(suite, 5, "transfer iterate: dense solve where defined, "
                         "clean skip where not",
                         (gap_ok, f"undefined-step handling {gap_ok}")) == []


def test_transfer_checks_skip_the_step_without_a_transfer_iterate():
    # at k = 2 of the engineered system the transfer iterate does not exist:
    # its checks return None while the gpbilq iterate's estimate is checked
    for st, hist in stepped(BiLQState, _singular_mid_run_system(), 3):
        undefined = transfer_gap(st, hist) is None
        assert undefined == (st.k == 2)
        if st.k >= 2:
            gap_l, gap_c = estimate_gaps(st)
            assert gap_l <= 1e-8 and (gap_c is None) == undefined


def test_criterion_6_residual_estimates(suite):
    assert failed_checks(suite, 6, "closed-form residual norms are exact") == []


def test_criterion_7_factorization_checks(suite):
    assert failed_checks(suite, 7, "sliding LQ/QR reproduce the projected matrix") == []


def test_criterion_8_exact_termination():
    ok = True
    details = []
    for seed in (571, 572, 573):
        sys_ = make_system(6, 6, seed=seed, fg_random=True)
        rq = gpqmr_solve(sys_, tol=1e-10, maxit=12)
        rb = gpbilq_solve(sys_, tol=1e-10, maxit=12, monitor="c")
        rm = gpmr_solve(sys_, tol=1e-10, maxit=12)
        tq = residual_norm(sys_, rq.x, rq.y)
        tb = residual_norm(sys_, rb.x, rb.y)
        tm = residual_norm(sys_, rm.x, rm.y)
        this = (rq.iterations <= 6 and tq <= 1e-10
                and rb.iterations <= 6 and tb <= 1e-10
                and rm.iterations <= 12 and tm <= 1e-10)
        ok = ok and this
        details.append(f"seed {seed - 571}: qmr k={rq.iterations} {tq:.1e}, "
                       f"transfer k={rb.iterations} {tb:.1e}, "
                       f"gpmr k={rm.iterations} {tm:.1e}")
    record_acceptance("8 exact termination at full dimension", ok,
                      "true residual against tol 1e-10, "
                      + "; ".join(details))
    assert ok


def _matrix_dir():
    env = os.environ.get("GPKRYLOV_MATRIX_DIR")
    candidates = [env] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if cand and Path(cand).joinpath("well1033.mtx").exists() \
                and Path(cand).joinpath("illc1033.mtx").exists():
            return Path(cand)
    return None


def test_criterion_9_benchmark_reproduction():
    mdir = _matrix_dir()
    if mdir is None:
        record_acceptance("9 benchmark convergence ordering (optional)", True,
                          "SKIPPED: SuiteSparse files not present")
        pytest.skip("well1033/illc1033 matrices not downloaded")
    t0 = time.perf_counter()
    sys_ = build_experiment("well1033", mdir)
    maxit = 5000
    runs = {
        "gpbilq": gpbilq_solve(sys_, 1e-6, maxit, monitor="l",
                               explicit_residual=True),
        "gpbicg": gpbilq_solve(sys_, 1e-6, maxit, monitor="c",
                               explicit_residual=True),
        "gpqmr": gpqmr_solve(sys_, 1e-6, maxit, explicit_residual=True),
        "gpmr": gpmr_solve(sys_, 1e-6, maxit),
        "gpmr9": gpmr_solve(sys_, 1e-6, maxit, restart=9),
    }
    elapsed = time.perf_counter() - t0
    iters = {name: r.iterations for name, r in runs.items()}
    all_conv = all(r.converged for r in runs.values())
    ordering = (iters["gpmr"] == min(iters.values())
                and iters["gpmr9"] == max(iters.values()))
    ok = all_conv and ordering and elapsed < 30.0
    record_acceptance("9 benchmark convergence ordering (optional)", ok,
                      f"{iters}, {elapsed:.1f}s")
    assert all_conv
    assert ordering
    assert elapsed < 30.0


# Transient bytes a steady-state iteration may allocate beyond the four
# operator results: Python scalars, tuples and array headers (about 1 KB
# measured).  It is below one n-vector at the audit sizes, so a single
# extra length-m/n temporary fails the audit.
PEAK_SLACK = 4096
AUDIT_M, AUDIT_N = 1200, 1000


def audit_system():
    m, n = AUDIT_M, AUDIT_N
    rng = np.random.default_rng(81)
    return PartitionedSystem(1.0, -0.5,
                             Operator.from_matrix(rng.standard_normal((m, n))),
                             Operator.from_matrix(rng.standard_normal((n, m))),
                             rng.standard_normal(m), rng.standard_normal(n))


def warmed_state(method, warmup=4):
    """The method's state on ``audit_system()`` after ``warmup`` untraced
    iterations (``advance`` plus ``estimate``, which runs
    ``attempt_transfer`` for gpbicg)."""
    sys_ = audit_system()
    cls, args = STATES[method]
    st = cls(sys_, *args)
    for _ in range(warmup):
        st.advance()
        st.estimate()
    return st


def peak_above_operator_results(method, steps=6):
    """Largest traced peak, over ``steps`` iterations of the warmed state,
    of the bytes allocated within one iteration, less the four operator
    results."""
    m, n = AUDIT_M, AUDIT_N
    st = warmed_state(method)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(steps):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            st.advance()
            st.estimate()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    return max(peaks) - (16 * m + 16 * n)


@pytest.mark.parametrize("method", STATES)
def test_steady_state_peak_is_the_operator_results(method):
    assert peak_above_operator_results(method) <= PEAK_SLACK


@pytest.mark.parametrize("method", STATES)
def test_steady_state_peak_holds_in_several_strips(method, monkeypatch):
    # 5 m-strips and 4 n-strips: the strips' views are made one strip at a
    # time, so their headers stay within the same slack
    monkeypatch.setattr(reduction, "STRIP_ROWS", 256)
    assert peak_above_operator_results(method) <= PEAK_SLACK


@pytest.mark.parametrize("method", STATES)
def test_short_recurrence_iteration_retains_nothing(method):
    # the scalar windows and the solution entries are fixed in size, and the
    # reduction keeps no operator result between steps
    st = warmed_state(method)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            st.advance()
            st.estimate()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 1024


def test_transfer_iterate_is_formed_only_where_read():
    # gpbicg's estimate needs only the transfer coefficients; the iterate is
    # allocated on its first read, and later steps form it in place
    st = warmed_state("gpbicg", warmup=5)
    assert st.transfer is not None and st.x_c is None
    x_c, y_c = st.transfer_iterate()
    st.advance()
    assert st.estimate() is not None and st.transfer_iterate()[0] is x_c


def test_gpmr_iteration_retains_less_than_one_vector():
    # basis columns land in blocks reserved up front and the process keeps
    # only its last step's coefficients, so an iteration keeps only the QR's
    # scalars: rotations, R entries and the basis row of each unknown
    warmup, steps = 4, 6
    st = GPMRState(audit_system(), maxit=warmup + steps)
    for _ in range(warmup):
        st.advance()
    kept = []
    tracemalloc.start()
    try:
        for _ in range(steps):
            start = tracemalloc.get_traced_memory()[0]
            st.advance()
            kept.append(tracemalloc.get_traced_memory()[0] - start)
    finally:
        tracemalloc.stop()
    assert max(kept) < 8 * AUDIT_N


def test_criterion_10_storage_audit():
    from test_gpbilq import test_steady_state_allocates_only_operator_results
    test_steady_state_allocates_only_operator_results()
    above = {method: peak_above_operator_results(method) for method in STATES}
    ok = all(v <= PEAK_SLACK for v in above.values())
    record_acceptance("10 steady-state BiLQState and QMRState iterations "
                      "allocate only the four operator results", ok,
                      "2 m-vectors + 2 n-vectors per iteration, traced peak "
                      f"above them {above} B; working set per side: "
                      "9 vectors (gpbilq), 11 (gpqmr), plus a scratch "
                      "touched in one direction-update strip")
    assert ok
