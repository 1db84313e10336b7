import numpy as np

from gpkrylov.io import EXPERIMENTS, read_matrix_market
from perfbench import gen


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    for sub in ("a", "b"):
        gen.write_grid_inputs(5, 3, 2, tmp_path / sub)
        gen.write_desk_inputs(3, tmp_path / sub)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    gen.write_grid_inputs(5, 4, 1, tmp_path / "c")
    assert ((tmp_path / "c" / "grid5-seed4-0-b.npy").read_bytes()
            != (tmp_path / "a" / "grid5-seed3-0-b.npy").read_bytes())


def test_no_file_is_named_after_a_suitesparse_matrix(tmp_path):
    gen.write_grid_inputs(4, 0, 1, tmp_path)
    gen.write_desk_inputs(0, tmp_path)
    reserved = set(EXPERIMENTS)
    for spec in EXPERIMENTS.values():
        reserved.update(f for f in (spec.a_file, spec.b_file) if f)
    assert not [p.name for p in tmp_path.iterdir()
                if any(r in p.name for r in reserved)]


def test_grid_files_hold_the_gradient_and_its_negative_transpose(tmp_path):
    N = 6
    a_path, b_path, rhs = gen.write_grid_inputs(N, 0, 1, tmp_path)
    A, B = read_matrix_market(a_path), read_matrix_market(b_path)
    assert A.shape == (2 * N * (N - 1), N * N)
    assert abs(A - gen.grid_gradient(N)).max() == 0
    assert abs(B + A.T).max() == 0
    # the ones vector is in the null space, hence the random right-hand sides
    assert np.all(A @ np.ones(N * N) == 0)
    b, c = (np.load(p) for p in rhs[0])
    assert np.array_equal(b, gen.grid_rhs(N, 0, 0)[0])
    assert np.array_equal(c, gen.grid_rhs(N, 0, 0)[1])


def test_desk_systems_are_seeded_per_index():
    first = gen.desk_arrays(7, 0)
    assert all(np.array_equal(x, y) for x, y in zip(first, gen.desk_arrays(7, 0)))
    assert not np.array_equal(first[0], gen.desk_arrays(7, 1)[0])
    assert first[0].shape == (gen.DESK_M, gen.DESK_N)
