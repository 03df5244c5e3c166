"""Float CSV cells: ``core.float_cells`` writes each value's repr, formatting
each distinct bit pattern once, and every float CSV artifact is the file
that ``csv.writer`` writes from the reprs of the same values."""

import csv

import numpy as np
import pytest

from lcsdyn import cli, core, torus
from lcsdyn.birkhoff import birkhoff_table, extrema_to_csv, table_to_csv
from lcsdyn.core import (
    GOLDEN_ANGLE,
    cat_map_system,
    finite_permutation_system,
    float_cells,
    rotation_system,
)
from lcsdyn.ergopt import coboundary_optima

TINY = 5e-324  # the least subnormal


@pytest.mark.parametrize("values", [
    [0.1, 0.25, 0.1, 0.1, 1 / 3, 0.25],
    [0.0, -0.0, 0.0, -0.0],
    [np.inf, -np.inf, np.nan, -np.nan, np.inf],
    [TINY, -TINY, 2.2250738585072014e-308 / 3, 1e-310, TINY],
    [np.pi],
    [],
    [[1.5, -0.0], [1.5, 2.0**-1074]],  # a 2-D block, in C order
])
def test_float_cells_are_the_reprs(monkeypatch, values):
    calls = []

    def counted(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(core, "repr", counted, raising=False)
    flat = np.asarray(values, dtype=float).ravel()
    cells = float_cells(values)
    assert cells.shape == flat.shape
    assert [c.decode() for c in cells.tolist()] == [repr(v) for v in flat.tolist()]
    # one repr per distinct bit pattern: -0.0 is not 0.0, and both NaNs count
    assert len(calls) == len(set(flat.view(np.uint64).tolist()))


def test_a_suffix_envelope_formats_its_distinct_values_only(monkeypatch):
    calls = []
    monkeypatch.setattr(core, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    env = np.minimum.accumulate(np.random.default_rng(3).random(2000)[::-1])[::-1]
    float_cells(env)
    assert len(calls) == len(np.unique(env)) < 30


def _write_reference(path, header, rows):
    """The oracle writer: csv.writer over the cells, rows ending in \\r\\n."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _point_cell(p):
    return ":".join(repr(c) for c in np.atleast_1d(np.asarray(p, dtype=float)).tolist())


SYSTEMS = {
    "circle": lambda: rotation_system(
        GOLDEN_ANGLE, {"type": "coboundary", "f": {"type": "trig", "sin": [[1, 1.0]]}},
        grid_resolution=32),
    "torus": lambda: cat_map_system(
        {"type": "trig2", "terms": [[1, 0, 0.4, 0.0], [1, 1, 0.0, -0.3]]}, grid_resolution=8),
    "finite": lambda: finite_permutation_system(
        [1, 2, 0, 4, 3], [0.5, -0.0, 0.25, 0.5, 1e-310]),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_float_csv_files_are_the_csv_writer_files(tmp_path, name):
    sys, n_max = SYSTEMS[name](), 30
    assert not sys.exact
    table = birkhoff_table(sys, None, n_max)
    written, want = tmp_path / "written.csv", tmp_path / "want.csv"

    def check(write, header, rows):
        write(written)
        _write_reference(want, header, rows)
        assert written.read_bytes() == want.read_bytes()

    ex = table.extrema_per_n
    keys = ("min_avg", "max_avg", "inf_env_minus", "sup_env_plus")
    check(lambda p: extrema_to_csv(table, p), ["n", *keys],
          zip(range(1, n_max + 1), *(map(repr, ex[key].tolist()) for key in keys)))
    labels = [str(int(p)) if name == "finite" else _point_cell(p) for p in table.points]
    cols = [a.T.ravel().tolist() for a in table.columns()]
    check(lambda p: table_to_csv(table, p), ["point", "n", "S_n", "A_n", "env_minus", "env_plus"],
          ([labels[i // n_max], i % n_max + 1, *map(repr, row)]
           for i, row in enumerate(zip(*cols))))

    ks = [-0.5, -0.0, 0.0, 0.5, 0.5, 1e-310]
    reports = torus.probe_sweep(sys, ks, n_max=n_max)
    check(lambda p: cli._write_phase_table(reports, p), ["k", "verdict", "escape_bound"],
          ([repr(float(r.k)), r.verdict, "" if r.escape_bound is None else r.escape_bound]
           for r in reports))
    for r in reports:
        cli._write_probe_trace(sys, r, cli.RunConfig(command="probe", n_max=n_max), tmp_path)
        start = r.witness.start if r.witness else sys.space.sample_points(1)[0]
        xs, ts = torus.action_orbit(sys, start, 0.0, r.k, n_max)
        cells = (str(int(x)) if name == "finite" else _point_cell(x) for x in xs)
        _write_reference(want, ["n", "x", "t"],
                         zip(range(n_max + 1), cells, map(repr, ts.tolist())))
        assert (tmp_path / "trace.csv").read_bytes() == want.read_bytes()

    if name != "finite":  # a float grid potential
        result = coboundary_optima(sys, method="grid_descent")[1]
        potential = np.asarray(result.potential_table)
        assert potential.dtype == float
        check(lambda p: cli._write_potential_csv(result, p), ["index", "f"],
              enumerate(map(repr, potential.tolist())))
