import dataclasses
import os

import numpy as np
import pytest

from randblock import lattice
from randblock.lattice import (
    Cube,
    MemoryLimitError,
    PeriodicPotential,
    check_memory,
    coordinates,
    deficiencies,
    hops,
    parities,
)
from reference import (boundary_deficiency, index_of, neighbours, parity, potential_at,
                       site_of, sites)


def test_sites_1d():
    assert sites(Cube(1, 3)) == [(0,), (1,), (2,)]
    assert coordinates(Cube(1, 3)).tolist() == [[0, 1, 2]]


def test_sites_single_site_2d():
    assert sites(Cube(2, 1)) == [(0, 0)]


def test_sites_count_row_major():
    cube = Cube(2, 3)
    ss = sites(cube)
    assert len(ss) == 9
    assert ss[0] == (0, 0) and ss[1] == (0, 1) and ss[3] == (1, 0)


def test_index_roundtrip():
    for cube in (Cube(1, 5), Cube(2, 4), Cube(3, 3)):
        for i, j in enumerate(sites(cube)):
            assert index_of(cube, j) == i
            assert site_of(cube, i) == j


def test_cube_refuses_centered():
    # where the box sits changes no limit over growing boxes: it starts at 0
    assert [f.name for f in dataclasses.fields(Cube)] == ["dim", "side"]
    with pytest.raises(TypeError, match="centered"):
        Cube(1, 3, centered=True)


def test_parities_are_floats():
    p = parities(Cube(1, 3))
    assert p.dtype == np.float64 and p.tolist() == [1.0, -1.0, 1.0]


def test_boundary_deficiency_examples():
    c = Cube(1, 3)
    assert boundary_deficiency(c, (0,)) == 1
    assert boundary_deficiency(c, (1,)) == 0
    assert boundary_deficiency(Cube(2, 3), (0, 0)) == 2


def test_deficiencies_examples():
    assert deficiencies(Cube(1, 3)).tolist() == [1, 0, 1]
    assert deficiencies(Cube(1, 1)).tolist() == [2]
    assert deficiencies(Cube(2, 3)).tolist() == [2, 1, 2, 1, 0, 1, 2, 1, 2]


def test_boundary_deficiency_outside_raises():
    with pytest.raises(ValueError):
        boundary_deficiency(Cube(1, 3), (5,))


def test_neighbour_count_range():
    for cube in (Cube(1, 4), Cube(2, 3), Cube(3, 2)):
        for j in sites(cube):
            k = len(neighbours(cube, j))
            assert cube.dim <= k <= 2 * cube.dim


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 6])
def test_total_deficiency_is_surface_count(dim, side):
    cube = Cube(dim, side)
    total = sum(boundary_deficiency(cube, j) for j in sites(cube))
    if side == 1:
        assert total == 2 * dim
    else:
        assert total == 2 * dim * side ** (dim - 1)


def test_parity_examples():
    assert parity((0, 0)) == 1
    assert parity((1, 0)) == -1
    assert parity((1, 1)) == 1


def test_parity_flips_across_neighbours():
    cube = Cube(2, 4)
    for j in sites(cube):
        for k in neighbours(cube, j):
            assert parity(j) == -parity(k)


def test_overflow_guard():
    with pytest.raises(ValueError):
        Cube(3, 100000)


class TestPeriodicPotential:
    def test_periodicity(self):
        pot = PeriodicPotential((2,), np.array([0.0, 5.0]))
        assert potential_at(pot, (0,)) == 0.0
        assert potential_at(pot, (3,)) == 5.0
        assert potential_at(pot, (-1,)) == 5.0

    def test_on_cube(self):
        pot = PeriodicPotential((2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        vals = pot.on_cube(Cube(2, 2))
        assert list(vals) == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("dim, period", [(2, (2,)), (1, (2, 2)), (1, (2, 1))],
                             ids=["fewer-axes", "more-axes", "trivial-surplus-axis"])
    def test_on_cube_needs_one_entry_per_axis(self, dim, period):
        pot = PeriodicPotential(period, np.zeros(period))
        with pytest.raises(ValueError, match="needs one entry per axis"):
            pot.on_cube(Cube(dim, 3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PeriodicPotential((2,), np.zeros(3))


ODD_SIDES = [Cube(1, 7), Cube(2, 5), Cube(3, 3), Cube(2, 1)]


@pytest.mark.parametrize("cube", ODD_SIDES, ids=lambda c: f"d{c.dim}L{c.side}")
class TestArrayHelpersMatchPerSite:
    """The array helpers against the per-site definitions."""

    def test_coordinates(self, cube):
        assert [tuple(c) for c in coordinates(cube).T.tolist()] == sites(cube)

    def test_hops(self, cube):
        pairs = {(int(i), int(i) + stride) for stride, lower in hops(cube) for i in lower}
        expected = {(index_of(cube, j), index_of(cube, k))
                    for j in sites(cube) for k in neighbours(cube, j)
                    if index_of(cube, k) > index_of(cube, j)}
        assert pairs == expected
        assert max((stride for stride, _ in hops(cube)), default=0) <= cube.half_bandwidth

    def test_deficiencies(self, cube):
        assert deficiencies(cube).tolist() == [boundary_deficiency(cube, j) for j in sites(cube)]

    def test_parities(self, cube):
        assert parities(cube).tolist() == [parity(j) for j in sites(cube)]

    def test_on_cube(self, cube):
        rng = np.random.default_rng(cube.dim)
        period = (2, 3, 2)[:cube.dim]
        pot = PeriodicPotential(period, rng.uniform(-1, 1, period))
        assert pot.on_cube(cube).tolist() == [potential_at(pot, j) for j in sites(cube)]


class TestMemoryGuard:
    @pytest.fixture(autouse=True)
    def fresh_limit(self):
        # memory_limit is read once per process; these tests change what it reads
        cached = lattice.memory_limit     # tests may monkeypatch the name itself
        cached.cache_clear()
        yield
        cached.cache_clear()

    def test_message_names_both_numbers(self, monkeypatch):
        monkeypatch.setattr(lattice, "memory_limit", lambda: 2 * 10**9)
        with pytest.raises(MemoryLimitError,
                           match=r"needs an estimated 3 GB, more than the 2 GB of memory available"):
            check_memory(3 * 10**9, "this")
        check_memory(2 * 10**9, "this")

    def test_cube_vector_must_fit(self, monkeypatch):
        monkeypatch.setattr(lattice, "memory_limit", lambda: 8 * 999)
        Cube(1, 999)
        with pytest.raises(MemoryLimitError):
            Cube(1, 1000)

    def test_unknown_limit_checks_nothing(self, monkeypatch, tmp_path):
        # no os.sysconf (as on Windows) and no cgroup file
        monkeypatch.delattr(os, "sysconf")
        monkeypatch.setattr(lattice, "_PROC_CGROUP", tmp_path / "absent")
        assert lattice.memory_limit() is None
        check_memory(10**30, "this")
        assert Cube(2, 5).n_sites == 25

    def test_cgroup_limit_below_physical(self, monkeypatch, tmp_path):
        # v1 memory controller at /a/b (its parent /a limits), v2 at /c ("max": none)
        proc = tmp_path / "cgroup"
        proc.write_text("4:memory:/a/b\n3:cpuset:/x\n0::/c\n")
        root = tmp_path / "fs"
        for rel, text in [("memory/a/memory.limit_in_bytes", "3000\n"),
                          ("memory/a/b/memory.limit_in_bytes", "9223372036854771712\n"),
                          ("c/memory.max", "max\n")]:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        monkeypatch.setattr(lattice, "_PROC_CGROUP", proc)
        monkeypatch.setattr(lattice, "_CGROUP_ROOT", root)
        assert lattice.memory_limit() == 3000
        (root / "c/memory.max").write_text("2000\n")
        lattice.memory_limit.cache_clear()
        assert lattice.memory_limit() == 2000
        monkeypatch.delattr(os, "sysconf")
        lattice.memory_limit.cache_clear()
        assert lattice.memory_limit() == 2000
