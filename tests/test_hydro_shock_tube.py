"""Shock-tube-style verification of the hydro substrate.

A gas-gas Riemann problem set up inside MiniKrak's material framework: the
HE "gas" at two different initial energies across a diaphragm, no burn
(detonator disabled by huge arrival times).  We verify wave directions,
positivity, and approximate total-energy conservation — quantitative checks
that the substrate is a hydro code and not a cost model in disguise.
"""

import numpy as np
import pytest

from repro.hydro import build_rank_states
from repro.hydro.functional import run_functional
from repro.hydro.workload import build_workload_census
from repro.mesh import build_deck, build_face_table
from repro.mesh.grid import structured_quad_mesh
from repro.mesh.deck import HE_GAS, InputDeck
from repro.partition import structured_block_partition


def _shock_tube_states(nx=64, ny=4, ranks=2, pressure_ratio=4.0):
    """Build a two-state gas tube: hot left half, cold right half."""
    mesh = structured_quad_mesh(nx, ny, width=1.0, height=ny / nx)
    cell_material = np.full(mesh.num_cells, HE_GAS, dtype=np.int64)
    deck = InputDeck(
        name="shock-tube",
        mesh=mesh,
        cell_material=cell_material,
        # Detonator effectively disabled: place it far away so no cell burns
        # during the short test window.
        detonator_xy=(1e6, 1e6),
    )
    faces = build_face_table(mesh)
    part = structured_block_partition(mesh, ranks, px=ranks, py=1)
    states = build_rank_states(deck, part)
    column = np.arange(mesh.num_cells) % nx
    xmax = float(mesh.node_x.max())
    ymin = float(mesh.node_y.min())
    ymax = float(mesh.node_y.max())
    for st in states:
        left = column[st.cells_g] < nx // 2
        st.energy[:] = np.where(left, 2.0e5 * pressure_ratio, 2.0e5)
        # Close the box: rigid walls on all four sides make this a true
        # one-dimensional tube.
        st.fix_vx |= np.abs(st.x - xmax) < 1e-12
        st.fix_vy |= (np.abs(st.y - ymin) < 1e-12) | (np.abs(st.y - ymax) < 1e-12)
    return deck, faces, part, states


def _run(deck, faces, part, states, iterations):
    """Advance ``states`` in place; returns the final global diagnostics."""
    census = build_workload_census(deck, part, faces)
    return run_functional(states, census, iterations)


class TestShockTube:
    @pytest.fixture(scope="class")
    def evolved(self):
        deck, faces, part, states = _shock_tube_states()
        initial_ie = sum(float((st.cell_mass * st.energy).sum()) for st in states)
        diagnostics = _run(deck, faces, part, states, iterations=40)
        return deck, states, initial_ie, diagnostics

    def test_contact_moves_right(self, evolved):
        """The hot (high-pressure) left side pushes the interface right:
        mass-weighted velocity is positive."""
        _, states, _, _ = evolved
        mom = sum(
            float(
                (st.node_mass[st.node_owner == st.rank] * st.vx[st.node_owner == st.rank]).sum()
            )
            for st in states
        )
        assert mom > 0

    def test_rarefaction_into_hot_side(self, evolved):
        """Density drops on the left (rarefaction), rises ahead of the shock
        on the right."""
        deck, states, _, _ = evolved
        nx = deck.mesh.nx
        rho = np.zeros(deck.num_cells)
        for st in states:
            rho[st.cells_g] = st.rho
        rho_grid = rho.reshape(deck.mesh.ny, nx)
        rho0 = 1600.0
        mid = nx // 2
        # Rarefaction fan just left of the diaphragm, shocked compression
        # just right of it; the far field is still undisturbed.
        assert rho_grid[:, mid - 8 : mid].mean() < rho0
        assert rho_grid[:, mid : mid + 8].mean() > rho0
        assert rho_grid[:, :8].mean() == pytest.approx(rho0, rel=1e-6)

    def test_positivity(self, evolved):
        _, states, _, _ = evolved
        for st in states:
            assert np.all(st.rho > 0)
            assert np.all(st.energy >= 0)
            assert np.all(st.volume > 0)

    def test_total_energy_approximately_conserved(self, evolved):
        """KE + IE stays within a few percent of the initial IE (explicit
        PdV update + artificial viscosity is conservative to O(dt))."""
        _, states, initial_ie, d = evolved
        total = d["total_ke"] + d["total_ie"]
        assert total == pytest.approx(initial_ie, rel=0.05)

    def test_no_burn_occurred(self, evolved):
        _, states, _, _ = evolved
        for st in states:
            assert np.all(st.burn_frac == 0.0)

    def test_symmetry_across_tube_axis(self, evolved):
        """The problem is y-invariant: rows stay (nearly) identical."""
        deck, states, _, _ = evolved
        rho = np.zeros(deck.num_cells)
        for st in states:
            rho[st.cells_g] = st.rho
        grid = rho.reshape(deck.mesh.ny, deck.mesh.nx)
        for j in range(1, deck.mesh.ny):
            np.testing.assert_allclose(grid[j], grid[0], rtol=1e-6)


class TestUniformStateStability:
    def test_uniform_gas_stays_at_rest(self):
        """A uniform state is a fixed point: no spurious velocities."""
        deck, faces, part, states = _shock_tube_states(pressure_ratio=1.0)
        d = _run(deck, faces, part, states, iterations=10)
        for st in states:
            assert np.all(np.abs(st.vx) < 1e-8)
            assert np.all(np.abs(st.vy) < 1e-8)
        assert d["total_ke"] == pytest.approx(0.0, abs=1e-10)
