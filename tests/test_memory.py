"""The working set of the check and the rebuild, bounded in units of the big connection.

Each bound is a traced peak (tracemalloc, as the benchmark's ``*_peak_mb``
replays measure it) in multiples of Omega's ``nbytes``, the largest array a
check keeps: a (*dims, n, N, N) array is one unit and a (*dims, N, N) array half
of one.  A bound is the peak of the current code plus a quarter of a unit of
headroom, so a new full-size temporary that outlives its use fails here.

On F3 ``--fd`` at 64x64 (Omega 2.25 MiB) the peaks read 3.50 units for a check
on a cold geometry (4.06 before the residuals were formed by blocks of node
rows), 2.23 units for a rebuild on a geometry the check filled (2.55 when its
verification formed ambient residuals, 3.47 before blocks of node rows) and
1.45 units for the connection build on a cold geometry (1.75 when Omega
was assembled by ``np.block``).  A dataset write is bounded in multiples of
the file it writes, the same quarter of headroom above its peak: 1.23 files
(3.01 when the document was joined into one text before the write).  A mesh
write is bounded in files too, at 127x127 (the ``surface`` workload's shape),
with a tenth of its peak as headroom: it reads 0.20 files (0.69 when the points
were copied before the write and each cell formatted from a Python float).
"""

import gc
import os
import tracemalloc

import pytest

from prodimm.cli import check_dataset
from prodimm.dataio import save_dataset, save_immersion_csv
from prodimm.extract import fixture
from prodimm.fields import ChartGrid
from prodimm.flatbundle import build_connection
from prodimm.reconstruct import reconstruct_immersion

from conftest import geometry_of

HEADROOM = 0.25   # units of Omega's nbytes above the measured peak


def traced_peak_mib(fn, *args) -> float:
    """Peak traced allocation (MiB) of one call ``fn(*args)``, after a garbage collection."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def omega_mib(f3_fd):
    return geometry_of(f3_fd.data).connection.nbytes / 2**20


def test_check_on_a_cold_geometry_holds_no_full_size_temporary(f3_fd, omega_mib):
    """Omega, G and psi~ are kept or formed; F, D psi~ and the compatibility residual are
    never whole, so the peak is theirs plus the magnitude of D psi~."""
    peak = traced_peak_mib(check_dataset, geometry_of(f3_fd.data), f3_fd.tolerances)
    assert peak <= (3.50 + HEADROOM) * omega_mib, peak / omega_mib


def test_rebuild_holds_no_full_size_temporary(f3_fd, omega_mib):
    """The edge-flow table (one unit), the frame and the transposed sweep's frame (half a
    unit each) and the sweep's prefix products set the peak; verification stays below it."""
    geom = geometry_of(f3_fd.data)
    geom.connection, geom.gram   # filled by the check in every command
    peak = traced_peak_mib(reconstruct_immersion, geom, f3_fd.tolerances)
    assert peak <= (2.23 + HEADROOM) * omega_mib, peak / omega_mib


def test_connection_is_written_into_one_array(f3_fd, omega_mib):
    """Omega is allocated once and each block written into its slice, so the peak is Omega
    plus the Christoffel symbols and shape operators it is built from."""
    peak = traced_peak_mib(build_connection, geometry_of(f3_fd.data))
    assert peak <= (1.45 + HEADROOM) * omega_mib, peak / omega_mib


def test_dataset_write_holds_no_joined_copy(f3_fd, tmp_path):
    """The base64 fields are the bulk of the file and are written as they are, never
    copied into a joined text, so the peak is about the file plus one field's encoding."""
    path = tmp_path / "f3.json"
    peak = traced_peak_mib(save_dataset, f3_fd.dataset(), str(path))
    file_mib = os.path.getsize(path) / 2**20
    assert peak <= (1.23 + HEADROOM) * file_mib, peak / file_mib


def test_mesh_write_fills_one_block_of_cells(tmp_path):
    """The points are formatted as they are, by blocks of rows of one reusable object array
    of cells, each repeated value from its column's one text, so the peak is about a block:
    a whole-table copy of the points or array of cells holds 0.45 files more."""
    immersion, _ = fixture("F3", theta0=0.8)
    h = 1.5 / 126
    grid = ChartGrid(dims=(127, 127), spacing=(h, h), origin=(0.0, 0.0))
    points = immersion.point(grid.coords())   # its columns repeat along grid lines
    path = tmp_path / "mesh.csv"
    peak = traced_peak_mib(save_immersion_csv, str(path), grid, immersion.k, points)
    file_mib = os.path.getsize(path) / 2**20
    assert peak <= 0.22 * file_mib, peak / file_mib
