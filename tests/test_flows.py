"""Exact-solution catalog and the trajectory integrator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowmaplab.flows as flows
from flowmaplab import LabelGrid, catalog_flow, catalog_names, integrate_trajectories
from flowmaplab.flowmap import CHECKPOINT_STRIDE
from flowmaplab.flows import ParticleEscapeError, default_grid, rk4_advect
from flowmaplab.suite import run_suite
from flowmaplab.dynamics import eulerian_eom_residual
from flowmaplab.grids import Field


def test_catalog_names_complete():
    assert catalog_names() == sorted([
        "rigid_rotation", "uniform_translation", "simple_shear", "stagnation",
        "gerstner", "point_vortex", "taylor_green",
    ])


def test_unknown_flow_rejected():
    with pytest.raises(KeyError):
        catalog_flow("hill_vortex")


def test_rotation_full_revolution_returns_home():
    w = 2.0
    e = catalog_flow("rigid_rotation", omega=w)
    lab = e.map.grid_labels()
    pos = e.map.positions(lab, 2 * np.pi / w)
    assert np.abs(pos - lab).max() <= 1e-9


def test_gerstner_jacobian_in_unit_interval():
    e = catalog_flow("gerstner", k=1.0)
    from flowmaplab import deformation_gradient, jacobian_det

    J = jacobian_det(deformation_gradient(e.map, 3.0)).data
    assert np.all(J > 0) and np.all(J < 1)


def test_gerstner_degenerate_grid_rejected():
    bad = LabelGrid((17, 17), (0.0, -1.0), (0.4, 0.1), (False, False))  # b up to 0.6
    with pytest.raises(ValueError):
        catalog_flow("gerstner", grid=bad)


def test_gerstner_nonpositive_k_named_on_explicit_grid():
    # the grid's extent does not go through k, so the factory must check it
    with pytest.raises(ValueError, match="wavenumber k must be positive"):
        catalog_flow("gerstner", grid=default_grid("gerstner"), k=0)


def test_gerstner_dispersion_enforced():
    e = catalog_flow("gerstner", k=4.0, g=2.0)
    assert e.properties["dispersion"].endswith(f"{np.sqrt(2.0 / 4.0):.6g}")


def test_point_vortex_period_closure():
    # oracle: angular velocity Gamma/(2 pi r^2); a particle at radius r returns
    # after 2 pi (2 pi r^2 / Gamma)
    G = 2 * np.pi
    r = 1.0
    period = 2 * np.pi * (2 * np.pi * r ** 2 / G)

    def field(x, t):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        f = G / (2 * np.pi * r2)
        return np.stack([-f * x[..., 1], f * x[..., 0], np.zeros_like(f)], axis=-1)

    start = np.array([[r, 0.0, 0.0]])
    end = rk4_advect(field, start, 0.0, period, period / 2048)
    assert np.abs(end - start).max() <= 1e-6


def test_point_vortex_core_exclusion():
    bad = LabelGrid((17, 17), (-0.5, -0.5), (1 / 16, 1 / 16))
    with pytest.raises(ValueError):
        catalog_flow("point_vortex", grid=bad)


def test_taylor_green_field_is_steady_euler_solution():
    # oracle: substitute u = (cos x sin y, -sin x cos y) and
    # p = -(cos 2x + cos 2y)/4 into the steady momentum balance by hand; the
    # grid residual is stencil-exactness-limited, not modeling-limited
    e = catalog_flow("taylor_green")
    n = 64
    g = LabelGrid((n, n), (0.0, 0.0), (2 * np.pi / n,) * 2, (True, True))
    X, Y = g.meshgrid()
    u = Field(g, np.cos(X) * np.sin(Y))
    v = Field(g, -np.sin(X) * np.cos(Y))
    w = Field(g, np.zeros_like(X))
    res = eulerian_eom_residual(u, v, w, e.force, t=0.0)
    # spectral fields under order-2 stencils: residual is O(h^2), small but
    # nonzero; the exactness statement is checked at the analytic level by
    # the entry's construction gate
    assert max(r.linf for r in res) < 5e-3
    h2 = (2 * np.pi / n) ** 2
    assert max(r.linf for r in res) < 2.0 * h2


class TestRK4:
    def test_zero_field_identity(self):
        g = default_grid("rigid_rotation")
        m = integrate_trajectories(lambda x, t: np.zeros_like(x), g,
                                   [0.0, 0.5, 1.0], 0.125)
        lab = m.grid_labels()
        for t in m.times:
            assert np.array_equal(m.positions(lab, t), lab)

    def test_constant_field_exact(self):
        g = default_grid("rigid_rotation")
        U = np.array([1.0, 0.0, 0.0])
        m = integrate_trajectories(lambda x, t: np.broadcast_to(U, x.shape), g,
                                   [0.0, 1.0], 0.25)
        lab = m.grid_labels()
        assert np.abs(m.positions(lab, 1.0) - (lab + U)).max() < 1e-14

    def test_rotation_closure_fourth_order(self):
        w = 1.0

        def field(x, t):
            return np.stack([-w * x[..., 1], w * x[..., 0], 0 * x[..., 0]], axis=-1)

        start = np.array([[1.0, 0.0, 0.0]])
        period = 2 * np.pi / w
        errs = []
        for nsteps in (64, 128, 256):
            end = rk4_advect(field, start, 0.0, period, period / nsteps)
            errs.append(np.abs(end - start).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.8 <= o <= 4.2 for o in orders), orders

    def test_step_halving_reduces_error_14x(self):
        w = 1.0

        def field(x, t):
            return np.stack([-w * x[..., 1], w * x[..., 0], 0 * x[..., 0]], axis=-1)

        exact = np.array([[np.cos(1.0), np.sin(1.0), 0.0]])
        start = np.array([[1.0, 0.0, 0.0]])
        coarse = np.abs(rk4_advect(field, start, 0.0, 1.0, 1 / 16) - exact).max()
        fine = np.abs(rk4_advect(field, start, 0.0, 1.0, 1 / 32) - exact).max()
        assert coarse / fine >= 14.0

    def test_bbox_escape_raises(self):
        g = default_grid("uniform_translation")
        with pytest.raises(ParticleEscapeError):
            integrate_trajectories(
                lambda x, t: np.broadcast_to(np.array([1.0, 0, 0]), x.shape), g,
                [0.0, 10.0], 0.5, bbox=((-2, -2, -2), (2, 2, 2)),
            )

    def test_dt_must_divide_gaps(self):
        g = default_grid("uniform_translation")
        with pytest.raises(ValueError):
            integrate_trajectories(lambda x, t: np.zeros_like(x), g,
                                   [0.0, 1.0], 0.3)

    def test_step_halving_estimate_recorded(self):
        e = catalog_flow("point_vortex")
        assert e.map.error_floor is not None
        assert e.map.error_floor < 1e-9


class TestCheckpointLattice:
    """Sampled maps resume grid-label queries from a fixed checkpoint lattice,
    and their error floor is the step-doubling estimate of the table's error."""

    def test_error_floor_brackets_point_vortex_exact_error(self):
        # oracle: r is constant and theta = theta0 + Gamma t / (2 pi r^2)
        e = catalog_flow("point_vortex")
        m, G = e.map, e.params["gamma"]
        lab = m.grid_labels()
        r = np.hypot(lab[..., 0], lab[..., 1])
        th = np.arctan2(lab[..., 1], lab[..., 0]) + G * m.times[-1] / (2 * np.pi * r ** 2)
        exact = np.stack([r * np.cos(th), r * np.sin(th), lab[..., 2]], axis=-1)
        err = np.abs(m.positions_table[-1] - exact).max()
        assert err <= m.error_floor <= 2 * err

    def test_error_floor_bounds_taylor_green_streamfunction_drift(self):
        # psi = cos x cos y is constant along trajectories and |grad psi| <= 1,
        # so |d psi| / sqrt(2) is a lower bound of the max-norm position error
        m = catalog_flow("taylor_green").map
        psi = lambda x: np.cos(x[..., 0]) * np.cos(x[..., 1])  # noqa: E731
        lab = m.grid_labels()
        drift = max(np.abs(psi(x) - psi(lab)).max() for x in m.positions_table)
        assert drift > 0
        assert m.error_floor >= drift / np.sqrt(2)

    @pytest.mark.parametrize("n", [1, 3, 4, 64, 65])
    def test_error_floor_within_factor_two_at_any_step_count(self, n):
        # oracle: rigid rotation turns the labels by the angle t exactly;
        # odd step counts cannot be doubled, so the floor must halve instead
        grid = default_grid("rigid_rotation", (8, 8))
        dt, t = 1 / 16, n / 16

        def field(x, t):
            return np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1)

        m = integrate_trajectories(field, grid, [0.0, t], dt)
        lab = m.grid_labels()
        c, s = np.cos(t), np.sin(t)
        exact = np.stack([c * lab[..., 0] - s * lab[..., 1],
                          s * lab[..., 0] + c * lab[..., 1], lab[..., 2]], axis=-1)
        err = np.abs(m.positions_table[-1] - exact).max()
        assert err / 2 <= m.error_floor <= 2 * err

    @pytest.mark.parametrize("flow", ["point_vortex", "taylor_green"])
    def test_rows_do_not_depend_on_which_checks_ran_before(self, flow):
        checks = ["cauchy.invariant_drift", "flowmap.density_lagrangian",
                  "dynamics.lagrangian_eom", "circulation.kelvin_drift"]

        def linf(ids):
            cfg = {"flows": [{"name": flow}], "grids": [[16, 16]],
                   "checks": [{"id": c, "tolerance": 1.0} for c in ids]}
            return {r.check: r.linf for r in run_suite(cfg)[0].rows}

        together = linf(checks[::-1])
        for c in checks:
            assert linf([c]) == {c: together[c]}

    def test_positions_do_not_depend_on_query_order(self):
        grid = default_grid("taylor_green", (16, 16))
        fresh, used = (catalog_flow("taylor_green", grid=grid).map for _ in range(2))
        lab = grid.nodes3().reshape(grid.shape + (3,))
        for t in (1.571, 0.3):  # grows the lattice past times[-1], then goes back
            used.positions(lab, t)
        assert np.array_equal(used.positions(lab, 0.785), fresh.positions(lab, 0.785))

    def test_off_table_query_resumes_from_a_checkpoint(self, monkeypatch):
        m = catalog_flow("taylor_green").map  # table (0, 0.5, 1.0), dt 1/256
        spans = []

        def counting(field_fn, labels, t0, t1, dt, bbox=None):
            spans.append((float(t0), float(t1), np.size(labels) // 3))
            return rk4_advect(field_fn, labels, t0, t1, dt, bbox)

        monkeypatch.setattr(flows, "rk4_advect", counting)
        lab = m.grid_labels()
        longest = CHECKPOINT_STRIDE * m.dt * (1 + 1e-12)
        for t in (0.785, 1.571, 0.3):  # between, past and before the table times
            spans.clear()
            pos = m.positions(lab, t)
            assert spans and all(abs(t1 - t0) <= longest for t0, t1, _ in spans)
            assert spans[-1][1] == t
            fresh = rk4_advect(m.field_fn, lab, 0.0, t, m.dt)
            assert np.abs(pos - fresh).max() <= 10 * m.error_floor
            # the last query is remembered: velocities reuse its positions
            spans.clear()
            m.velocities(lab, t)
            assert np.array_equal(m.positions(lab, t), pos) and not spans
        # other labels advect from t = 0
        spans.clear()
        m.positions(lab[:2, :2] + 0.01, 0.785)
        assert spans == [(0.0, 0.785, 4)]

    def test_bad_step_and_time_rejected(self):
        g = default_grid("taylor_green", (8, 8))
        with pytest.raises(ValueError, match="dt > 0"):
            integrate_trajectories(lambda x, t: np.zeros_like(x), g, [0.0, 1.0], 0.0)
        m = integrate_trajectories(lambda x, t: np.zeros_like(x), g, [0.0, 1.0], 0.25)
        with pytest.raises(ValueError, match="non-finite"):
            m.positions(m.grid_labels(), np.inf)  # the lattice would never reach it


# each flow's label domain: lower corner, upper corner, periodicity
DOMAINS = {
    "rigid_rotation": ((-0.5, -0.5), (0.5, 0.5), (False, False)),
    "uniform_translation": ((0.0, 0.0), (1.0, 1.0), (False, False)),
    "simple_shear": ((0.0, 0.0), (1.0, 1.0), (False, False)),
    "stagnation": ((0.1, 0.1), (1.1, 1.1), (False, False)),
    "gerstner": ((0.0, -3.0), (2 * np.pi, -0.5), (False, False)),
    "point_vortex": ((0.7, 0.7), (1.7, 1.7), (False, False)),
    "taylor_green": ((0.0, 0.0), (2 * np.pi, 2 * np.pi), (True, True)),
}


class TestDefaultGrid:
    @pytest.mark.parametrize("name", sorted(DOMAINS))
    @pytest.mark.parametrize("shape", [(8, 8), (17, 24), (65, 64)])
    def test_shape_origin_periodicity_spacing(self, name, shape):
        lo, hi, periodic = DOMAINS[name]
        g = default_grid(name, shape)
        assert g.shape == shape and g.origin == lo and g.periodic == periodic
        cells = [n if p else n - 1 for n, p in zip(shape, periodic)]
        assert g.spacing == tuple((b - a) / c for a, b, c in zip(lo, hi, cells))

    def test_default_shape_and_gerstner_extent(self):
        assert default_grid("rigid_rotation").shape == (33, 33)
        assert default_grid("taylor_green").shape == (32, 32)
        g = default_grid("gerstner", (9, 9), k=2.0)
        assert g.spacing[0] == np.pi / 8  # one wavelength 2 pi / k over 8 cells

    def test_wrong_axis_count_raises(self):
        with pytest.raises(ValueError, match="dimensionality"):
            default_grid("rigid_rotation", (8, 8, 8))

    def test_catalog_flow_builds_on_the_default_grid(self):
        e = catalog_flow("stagnation", k=2.0)
        assert e.map.grid == default_grid("stagnation")


def test_entries_self_validate():
    for name in catalog_names():
        e = catalog_flow(name)
        assert e.validation_residual is not None
        assert e.validation_residual < 2e-4, (name, e.validation_residual)


def test_describe_mentions_parameters():
    text = catalog_flow("point_vortex").describe()
    assert "gamma" in text and "core_exclusion_radius" in text


# params away from 1, so that a velocity written in other arithmetic shows
ANALYTIC_PARAMS = {"rigid_rotation": {"omega": 0.7}, "simple_shear": {"gamma": 0.6},
                   "stagnation": {"k": 1.3}, "uniform_translation": {"velocity": (0.3, -1.2, 0.0)}}




def closed_form(name, lab, t):
    """Positions, accelerations, label partials and velocity partials of the
    affine flows at ANALYTIC_PARAMS, each written out component by component."""
    a, b, c = lab[..., 0], lab[..., 1], lab[..., 2]
    zero = np.zeros_like(a)
    if name == "rigid_rotation":
        w = ANALYTIC_PARAMS[name]["omega"]
        co, si = np.cos(w * t), np.sin(w * t)
        x = np.stack([a * co - b * si, a * si + b * co, c], axis=-1)
        acc = np.stack([-w * w * x[..., 0], -w * w * x[..., 1], zero], axis=-1)
        F = [[co, -si, 0], [si, co, 0], [0, 0, 1]]
        G = [[-w * si, -w * co, 0], [w * co, -w * si, 0], [0, 0, 0]]
    elif name == "simple_shear":
        g = ANALYTIC_PARAMS[name]["gamma"]
        x = np.stack([a + g * t * b, b, c], axis=-1)
        acc = np.zeros(lab.shape)
        F = [[1, g * t, 0], [0, 1, 0], [0, 0, 1]]
        G = [[0, g, 0], [0, 0, 0], [0, 0, 0]]
    elif name == "stagnation":
        k = ANALYTIC_PARAMS[name]["k"]
        x = np.stack([a * np.exp(k * t), b * np.exp(-k * t), c], axis=-1)
        acc = np.stack([k * k * x[..., 0], k * k * x[..., 1], zero], axis=-1)
        F = [[np.exp(k * t), 0, 0], [0, np.exp(-k * t), 0], [0, 0, 1]]
        G = [[k * np.exp(k * t), 0, 0], [0, -k * np.exp(-k * t), 0], [0, 0, 0]]
    else:
        x = lab + np.array(ANALYTIC_PARAMS[name]["velocity"]) * t
        acc = np.zeros(lab.shape)
        F, G = np.eye(3), np.zeros((3, 3))
    tile = lab.shape[:-1] + (3, 3)
    return x, acc, np.broadcast_to(np.array(F, float), tile), np.broadcast_to(np.array(G, float), tile)


@pytest.mark.parametrize("name", sorted(ANALYTIC_PARAMS))
def test_analytic_velocities_are_the_velocity_field_at_the_positions(name):
    # and every other piece of the map is its closed form to the bit: the
    # affine entries apply M(t) and L row by row, in the closed forms' order
    # (equality as values, so the sign of a zero may differ)
    e = catalog_flow(name, **ANALYTIC_PARAMS[name])
    lab = e.map.grid_labels()
    for t in (0.0, 0.3 * e.map.timescale, 1.7):
        expect = e.velocity_field(e.map.positions(lab, t), t)
        assert np.array_equal(e.map.velocities(lab, t), expect), t
        x, acc, F, G = closed_form(name, lab, t)
        assert np.array_equal(e.map.positions(lab, t), x), t
        assert np.array_equal(e.map.accelerations(lab, t), acc), t
        assert np.array_equal(e.map.label_partials(lab, t), F), t
        assert np.array_equal(e.map.velocity_label_partials(lab, t), G), t
        assert np.array_equal(e.map.second_label_partials(lab, t), np.zeros(lab.shape + (3, 3))), t


def test_gerstner_has_no_velocity_field_or_clebsch_data():
    e = catalog_flow("gerstner")
    assert e.velocity_field is None
    assert (e.clebsch, e.bernoulli, e.material_scalars) == (None, None, None)


def test_catalog_and_cli_run_without_scipy():
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(name + ' is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import flowmaplab\n"
        "from flowmaplab.cli import main\n"
        "for name in flowmaplab.catalog_names():\n"
        "    flowmaplab.catalog_flow(name)\n"
        "sys.exit(main(['flows', 'describe', 'gerstner']))\n"
    )
    src = Path(flows.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("gerstner (2D embedded in 3D)")


def test_taylor_green_momentum_balance_symbolic_oracle():
    # computer-algebra substitution: steady advection of the cellular field
    # balances the gradient of p = -(cos 2x + cos 2y)/4 identically
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    u = sympy.cos(x) * sympy.sin(y)
    v = -sympy.sin(x) * sympy.cos(y)
    p = -(sympy.cos(2 * x) + sympy.cos(2 * y)) / 4
    rx = sympy.simplify(u * sympy.diff(u, x) + v * sympy.diff(u, y) + sympy.diff(p, x))
    ry = sympy.simplify(u * sympy.diff(v, x) + v * sympy.diff(v, y) + sympy.diff(p, y))
    assert rx == 0 and ry == 0
