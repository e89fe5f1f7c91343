"""Exact-solution catalog and the trajectory integrator."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowmaplab.flows as flows
from flowmaplab import LabelGrid, catalog_flow, catalog_names, integrate_trajectories
from flowmaplab.flowmap import CHECKPOINT_STRIDE, SampledFlowMap
from flowmaplab.flows import ParticleEscapeError, default_grid, rk4_advect
from flowmaplab.suite import run_suite
from flowmaplab.dynamics import eulerian_eom_residual
from flowmaplab.grids import POINT_STENCIL_H, StencilSpec, gradient, point_jacobian


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
    from flowmaplab import deformation_gradient
    from flowmaplab.flowmap import det3

    J = det3(deformation_gradient(e.map, 3.0))
    assert np.all(J > 0) and np.all(J < 1)


def test_gerstner_degenerate_grid_rejected():
    bad = LabelGrid((17, 17), (0.0, -1.0), (0.4, 0.1), (False, False))  # b up to 0.6
    with pytest.raises(ValueError):
        catalog_flow("gerstner", grid=bad)


def test_gerstner_nonpositive_k_named_on_explicit_grid():
    # the grid's extent does not go through k, so the factory must check it
    with pytest.raises(ValueError, match="wavenumber k must be positive"):
        catalog_flow("gerstner", grid=default_grid("gerstner"), k=0)


@pytest.mark.parametrize("name, params, message", [
    ("rigid_rotation", {"omega": np.nan}, "rigid_rotation omega must be finite, got nan"),
    ("rigid_rotation", {"omega": np.inf}, "rigid_rotation omega must be finite, got inf"),
    ("taylor_green", {"times": [0.0, np.nan]}, "taylor_green times[1] must be finite, got nan"),
    ("taylor_green", {"times": [0.0, np.inf]}, "taylor_green times[1] must be finite, got inf"),
    ("taylor_green", {"dt": np.inf}, "taylor_green dt must be finite, got inf"),
    ("uniform_translation", {"velocity": (1.0, np.nan, 0.0)},
     "uniform_translation velocity[1] must be finite, got nan"),
], ids=["omega_nan", "omega_inf", "times_nan", "times_inf", "dt_inf", "velocity_nan"])
def test_non_finite_param_named(name, params, message):
    # a ValueError (run_suite maps it to a ConfigError) naming the flow and
    # the param, raised before any map is built
    with pytest.raises(ValueError) as err:
        catalog_flow(name, **params)
    assert str(err.value) == message


@pytest.mark.parametrize("times, message", [
    ([0, True], "taylor_green times[1] must be a number, got True"),
    (["a", "b"], "taylor_green times[0] must be a number, got 'a'"),
], ids=["bool", "string"])
def test_table_time_must_be_a_number(times, message):
    with pytest.raises(ValueError) as err:
        catalog_flow("taylor_green", times=times)
    assert str(err.value) == message


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
    X, Y = np.meshgrid(g.axis_coords(0), g.axis_coords(1), indexing="ij")
    vel = np.stack([np.cos(X) * np.sin(Y), -np.sin(X) * np.cos(Y), np.zeros_like(X)], -1)
    res = eulerian_eom_residual(vel, e.force, t=0.0, grid=g)
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
        with pytest.raises(ParticleEscapeError):
            rk4_advect(lambda x, t: np.broadcast_to(np.array([1.0, 0, 0]), x.shape),
                       np.zeros((4, 3)), 0.0, 10.0, 0.5, bbox=((-2, -2, -2), (2, 2, 2)))

    def test_dt_must_divide_gaps(self):
        g = default_grid("uniform_translation")
        with pytest.raises(ValueError):
            integrate_trajectories(lambda x, t: np.zeros_like(x), g,
                                   [0.0, 1.0], 0.3)

    def test_non_finite_table_raises_at_construction(self):
        g = default_grid("rigid_rotation", (5, 5))
        with pytest.raises(ValueError, match="non-finite positions in the trajectory table "
                                             "of nan_field"):
            integrate_trajectories(lambda x, t: np.full(x.shape, np.nan), g, [0.0, 0.5], 0.25,
                                   name="nan_field")
        # a field that blows up past the first table time poisons the last row only
        with pytest.raises(ValueError, match="of late_blowup"):
            integrate_trajectories(lambda x, t: np.full(x.shape, np.inf if t > 0.6 else 0.0),
                                   g, [0.0, 0.5, 1.0], 0.25, name="late_blowup")

    def test_step_halving_estimate_recorded(self):
        e = catalog_flow("point_vortex")
        assert e.map.error_floor is not None
        assert e.map.error_floor < 1e-9


def _textbook_rk4(field_fn, labels, t0, t1, dt, bbox=None):
    """The plain RK4 loop: fresh arrays at every stage. ``rk4_advect`` must
    reproduce it bit for bit."""
    pts = np.array(labels, dtype=float)
    span = float(t1) - float(t0)
    if span == 0.0:
        return pts
    nsteps = max(1, int(np.ceil(abs(span) / dt - 1e-12)))
    h = span / nsteps
    t = float(t0)
    for _ in range(nsteps):
        k1 = np.asarray(field_fn(pts, t))
        k2 = np.asarray(field_fn(pts + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(field_fn(pts + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(field_fn(pts + h * k3, t + h))
        pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if bbox is not None and (np.any(pts < np.asarray(bbox[0]))
                                 or np.any(pts > np.asarray(bbox[1]))):
            raise ParticleEscapeError(f"particle left bounding box {bbox} at t={t:.6g}")
    return pts


_U = np.array([0.3, -1.1, 0.7])

# velocity fields (points, t) -> (..., 3), each returning a different kind of array
_RK4_FIELDS = {
    # its own input: the march must spend a stage before overwriting it
    "own_input": lambda x, t: x,
    # a read-only view: the march must never write into what the field returned
    "broadcast": lambda x, t: np.broadcast_to(_U, x.shape),
    "unsteady": lambda x, t: np.stack(
        [-np.cos(t) * x[..., 1] + np.sin(3 * t), np.cos(t) * x[..., 0],
         x[..., 0] * x[..., 1] * np.exp(-t)], axis=-1),
}


class TestRK4BitForBit:
    """rk4_advect's in-place march against the textbook loop, compared with
    np.array_equal: stage buffers change no bit."""

    @pytest.mark.parametrize("span", [(0.25, 1.1), (1.1, 0.25)], ids=["forward", "backward"])
    @pytest.mark.parametrize("shape", [(37, 3), (6, 37, 3)], ids=["points", "batch"])
    @pytest.mark.parametrize("kind", sorted(_RK4_FIELDS))
    def test_matches_textbook_loop(self, kind, shape, span):
        labels = np.random.default_rng(5).uniform(-1.0, 1.0, size=shape)
        before = labels.copy()
        got = rk4_advect(_RK4_FIELDS[kind], labels, *span, 0.07)
        want = _textbook_rk4(_RK4_FIELDS[kind], labels, *span, 0.07)
        assert got.shape == want.shape == shape
        assert np.array_equal(got, want)
        assert np.array_equal(labels, before)
        assert not np.shares_memory(got, labels)

    @pytest.mark.parametrize("name", ["point_vortex", "taylor_green"])
    def test_catalog_field_matches_textbook_loop(self, name):
        e = catalog_flow(name, grid=default_grid(name, (16, 16)), validate=False)
        lab = e.map.grid_labels()
        got = rk4_advect(e.velocity_field, lab, 0.0, 0.3, e.map.dt)
        assert np.array_equal(got, _textbook_rk4(e.velocity_field, lab, 0.0, 0.3, e.map.dt))

    @pytest.mark.parametrize("kind, span", [("own_input", (0.0, 3.0)),
                                            ("broadcast", (0.5, 3.0)),
                                            ("broadcast", (0.5, -3.0))])
    def test_escape_raised_at_the_same_time(self, kind, span):
        bbox = ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
        labels = np.random.default_rng(7).uniform(-1.0, 1.0, size=(30, 3))
        field = _RK4_FIELDS[kind]
        with pytest.raises(ParticleEscapeError) as want:
            _textbook_rk4(field, labels, *span, 0.01, bbox)
        with pytest.raises(ParticleEscapeError) as got:
            rk4_advect(field, labels, *span, 0.01, bbox)
        assert str(got.value) == str(want.value)


def _point_vortex_closed_form(x, G):
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    f = G / (2 * np.pi * r2)
    return np.stack([-f * x[..., 1], f * x[..., 0], np.zeros_like(f)], axis=-1)


def _taylor_green_closed_form(x):
    return np.stack([np.cos(x[..., 0]) * np.sin(x[..., 1]),
                     -np.sin(x[..., 0]) * np.cos(x[..., 1]),
                     np.zeros_like(x[..., 0])], axis=-1)


class TestSampledCatalogFields:
    """The point_vortex and taylor_green fields, written into one array,
    equal their np.stack closed forms bit for bit."""

    @pytest.fixture(scope="class")
    def fields(self):
        out = {}
        for name, params in (("point_vortex", {"gamma": 1.7}), ("taylor_green", {})):
            e = catalog_flow(name, grid=default_grid(name, (16, 16)), validate=False, **params)
            out[name] = e.velocity_field
        return out

    @staticmethod
    def points(shape):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-4.0, 4.0, size=shape)
        r = np.hypot(pts[..., 0], pts[..., 1])
        pts[..., :2] *= np.where(r < 0.2, 0.2 / r, 1.0)[..., None]  # outside the core
        return pts

    @pytest.mark.parametrize("shape", [(257, 3), (6, 40, 3), (4, 4, 4, 3)])
    @pytest.mark.parametrize("name", ["point_vortex", "taylor_green"])
    def test_equals_closed_form(self, fields, name, shape):
        closed_form = {"point_vortex": lambda x: _point_vortex_closed_form(x, 1.7),
                       "taylor_green": _taylor_green_closed_form}[name]
        x = self.points(shape)
        for pts in (x, x[::2], x.reshape(-1, 3)[::-1]):  # contiguous and strided
            got = fields[name](pts, 0.4)
            assert got.shape == pts.shape and got.dtype == np.float64
            assert np.array_equal(got, closed_form(pts))

    @pytest.mark.parametrize("name", ["point_vortex", "taylor_green"])
    def test_returns_a_fresh_writable_array(self, fields, name):
        x = self.points((6, 40, 3))
        before = x.copy()
        x.flags.writeable = False  # a stored table is read-only
        a, b = fields[name](x, 0.0), fields[name](x, 0.0)
        assert a.flags.writeable and a.flags.c_contiguous
        assert not np.shares_memory(a, x) and not np.shares_memory(a, b)
        assert np.array_equal(x, before)

    def test_point_vortex_core_disk_raises(self, fields):
        x = self.points((6, 40, 3))
        x[3, 17] = (0.05, -0.06, 0.4)
        with pytest.raises(ValueError, match="core disk"):
            fields["point_vortex"](x, 0.0)


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

    def test_error_floor_marches_on_first_read_only(self, monkeypatch):
        # building the map makes no march at the floor's step; the first read
        # makes one, later reads none
        calls = []
        advect = flows.rk4_advect

        def counting(field_fn, labels, t0, t1, dt):
            calls.append((t0, t1, dt))
            return advect(field_fn, labels, t0, t1, dt)

        monkeypatch.setattr(flows, "rk4_advect", counting)
        m = catalog_flow("point_vortex").map
        end, n = m.times[-1], round(m.times[-1] / m.dt)
        assert n % 2 == 0  # step doubling: the floor marches at 2 dt
        floor_marches = lambda: calls.count((0.0, end, end / (n // 2)))  # noqa: E731
        assert floor_marches() == 0
        first = m.error_floor
        assert floor_marches() == 1
        assert m.error_floor == first
        assert floor_marches() == 1
        one_time = integrate_trajectories(m.field_fn, m.grid, [0.0], m.dt)
        del calls[:]
        assert one_time.error_floor is None and calls == []

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

        def counting(field_fn, labels, t0, t1, dt):
            spans.append((float(t0), float(t1), np.size(labels) // 3))
            return rk4_advect(field_fn, labels, t0, t1, dt)

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

    @pytest.mark.parametrize("name", ["point_vortex", "taylor_green"])
    def test_table_starts_at_the_grid_labels(self, name):
        # the map marches its table from its own grid labels, so the table
        # needs no shape or identity-at-zero check
        m = catalog_flow(name, grid=default_grid(name, (16, 16)), validate=False).map
        assert m.positions_table.shape == (len(m.times),) + m.grid.shape + (3,)
        assert np.array_equal(m.positions_table[0], m.grid_labels())

    def test_bad_step_and_time_rejected(self):
        g = default_grid("taylor_green", (8, 8))
        with pytest.raises(ValueError, match="dt > 0"):
            integrate_trajectories(lambda x, t: np.zeros_like(x), g, [0.0, 1.0], 0.0)
        m = integrate_trajectories(lambda x, t: np.zeros_like(x), g, [0.0, 1.0], 0.25)
        with pytest.raises(ValueError, match="non-finite"):
            m.positions(m.grid_labels(), np.inf)  # the lattice would never reach it

    @pytest.mark.parametrize("sampled,times", [
        (False, []), (False, [[0.0, 1.0]]), (True, []),
    ], ids=["integrate_empty", "integrate_2d", "map_empty"])
    def test_bad_times_named(self, sampled, times):
        g = default_grid("taylor_green", (8, 8))
        field = lambda x, t: np.zeros_like(x)
        with pytest.raises(ValueError, match="times"):
            if sampled:
                SampledFlowMap(g, times, field, 0.25)
            else:
                integrate_trajectories(field, g, times, 0.25)

    def test_grid_label_queries_build_no_labels(self, monkeypatch):
        # queries compare against the map's one read-only copy of its grid
        # labels, which also starts the lattice, instead of building labels
        e = catalog_flow("point_vortex", grid=default_grid("point_vortex", (16, 16)))
        m = e.map
        lab = m.grid_labels()
        assert not m._grid_lab.flags.writeable and m._lattice_x[0] is m._grid_lab
        assert np.array_equal(m._grid_lab, lab)
        built = []
        nodes3 = LabelGrid.nodes3
        monkeypatch.setattr(LabelGrid, "nodes3", lambda g: built.append(g) or nodes3(g))
        for t in (m.times[1], 0.3, 0.3):
            m.positions(lab, t)
            m.velocities(lab, t)
        m.positions(lab + 0.01, 0.3)
        assert built == []
        assert np.array_equal(m.positions(lab, m.times[1]), m.positions_table[1])


    # (rk4_advect calls, point-steps): construction at 16^2, then one momentum
    # residual at a quarter of the timescale (on the table for point_vortex,
    # past it for taylor_green). The grid checks evaluate a sampled map on
    # the whole grid at once, so slabs never re-march from t=0, even with
    # grids.BLOCK cut to 30 nodes (one 16-node plane per slab).
    MARCHES = {"point_vortex": (36, 139776), "taylor_green": (31, 109568)}

    @pytest.mark.parametrize("name", list(MARCHES))
    def test_gates_march_the_whole_grid(self, monkeypatch, name):
        import flowmaplab.grids as grids
        from flowmaplab.dynamics import lagrangian_eom_residual

        monkeypatch.setattr(grids, "BLOCK", 30)
        marches = []

        def counting(field_fn, labels, t0, t1, dt):
            span = float(t1) - float(t0)
            steps = 0 if span == 0.0 else max(1, int(np.ceil(abs(span) / dt - 1e-12)))
            marches.append(steps * (np.size(labels) // 3))
            return rk4_advect(field_fn, labels, t0, t1, dt)

        monkeypatch.setattr(flows, "rk4_advect", counting)
        e = catalog_flow(name, grid=default_grid(name, (16, 16)))
        lagrangian_eom_residual(e.map, e.force, 0.25 * e.map.timescale)
        assert (len(marches), sum(marches)) == self.MARCHES[name]

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


def test_construction_gate_fails_a_nan(monkeypatch):
    # gerstner's label pressure gradient made NaN along c for a > 3: the
    # momentum summaries read [0, ~1e-16, nan], and a NaN is not within the
    # gate
    import dataclasses

    row = flows._CATALOG["gerstner"]

    def factory(grid, **params):
        e = row.factory(grid, **params)
        exact = e.force.pressure_grad

        def pressure_grad(lab, t):
            out = exact(lab, t)
            out[..., 2] = np.where(lab[..., 0] > 3, np.nan, out[..., 2])
            return out

        e.force = dataclasses.replace(e.force, pressure_grad=pressure_grad)
        return e

    monkeypatch.setitem(flows._CATALOG, "gerstner", dataclasses.replace(row, factory=factory))
    with pytest.raises(ValueError, match="failed its construction gate: EOM residual nan"):
        catalog_flow("gerstner", grid=default_grid("gerstner", (32, 32)))


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


@pytest.mark.parametrize("name", sorted(["gerstner", *ANALYTIC_PARAMS]))
def test_velocity_partials_match_grid_differences(name):
    # G is, with F, the only input of the exact Cauchy invariants, and no
    # construction gate reads it. Grid differences of the velocities converge
    # to it at order 2; the affine entries' velocities are linear in the
    # labels, so there the differences are exact up to round-off.
    params = ANALYTIC_PARAMS.get(name, {})
    errs, hs = [], []
    for n in (32, 64):
        e = catalog_flow(name, grid=default_grid(name, (n, n), **params), **params)
        lab, t = e.map.grid_labels(), 0.3 * e.map.timescale
        diff = gradient(e.map.velocities(lab, t), StencilSpec(order=2), grid=e.map.grid)
        errs.append(np.max(np.abs(diff - e.map.velocity_label_partials(lab, t))))
        hs.append(max(e.map.grid.spacing))
    if errs[1] > 1e-12:
        assert np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1]) >= 1.8, errs


def hand_written_pressure_grad(name, params, x):
    """The affine entries' pressure gradients as the catalog once wrote them
    out, factory by factory (a constant pressure's gradient is zero)."""
    zero = np.zeros_like(x[..., 2])
    if name == "rigid_rotation":
        w = params.get("omega", 1.0)
        return np.stack([w * w * x[..., 0], w * w * x[..., 1], zero], axis=-1)
    if name == "stagnation":
        kk = params.get("k", 1.0)
        return np.stack([-kk * kk * x[..., 0], -kk * kk * x[..., 1], zero], axis=-1)
    return np.zeros(x.shape)


@pytest.mark.parametrize("defaults", [True, False], ids=["default_params", "analytic_params"])
@pytest.mark.parametrize("name", sorted(ANALYTIC_PARAMS))
def test_affine_force_is_derived_from_L(name, defaults):
    # the pressure gradient -L^2 x equals the hand-written forms bit for bit
    # (a unit omega^2 or k^2 included), and the pressure -x . L^2 x / 2 is
    # its potential
    params = {} if defaults else ANALYTIC_PARAMS[name]
    e = catalog_flow(name, **params)
    assert e.force.V is None
    pts = np.random.default_rng(3).normal(size=(40, 3))
    for x in (pts, e.map.positions(e.map.grid_labels(), 0.7)):
        grad = e.force.pressure_grad(x, 0.7)
        assert grad.tobytes() == hand_written_pressure_grad(name, params, x).tobytes()
        fd = point_jacobian(lambda p: e.force.pressure(p, 0.7), x, POINT_STENCIL_H)
        assert np.abs(fd - grad).max() <= 1e-8


def test_gerstner_has_no_velocity_field_or_clebsch_data():
    e = catalog_flow("gerstner")
    assert e.velocity_field is None
    assert (e.clebsch, e.material_scalars) == (None, None)


def test_bernoulli_omega_is_the_force_potential():
    # force.omega_at = -p equals Omega = |grad F|^2 / 2 written out by hand
    # for each potential entry, bit for bit, at the point-vortex origin too
    pts = LabelGrid((65, 65), (-2.0, -2.0), (1 / 16, 1 / 16)).nodes3()
    assert not np.abs(pts).sum(axis=-1).all()  # the origin is a node
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    k, U, G = 1.0, np.array([0.3, -0.7, 0.2]), 2 * np.pi  # the catalog's k and Gamma
    cases = [
        (catalog_flow("stagnation"), 0.5 * k * k * (pts[:, 0] ** 2 + pts[:, 1] ** 2)),
        (catalog_flow("uniform_translation", velocity=U), np.full(len(pts), 0.5 * (U @ U))),
        (catalog_flow("point_vortex"), G ** 2 / (8 * np.pi ** 2 * np.where(r2 < 1e-12, 1.0, r2))),
    ]
    for e, omega in cases:
        for t in (0.0, 0.7):
            assert e.force.omega_at(pts, t).tobytes() == omega.tobytes(), e.name


def test_removed_entry_and_record_fields_stay_gone():
    from dataclasses import fields

    from flowmaplab.cauchy import VorticityField
    names = {cls: {f.name for f in fields(cls)} | set(vars(cls))
             for cls in (flows.CatalogEntry, VorticityField)}
    assert not {"bernoulli", "dimensionality"} & names[flows.CatalogEntry]
    assert "t" not in names[VorticityField]
    assert "timescale" not in inspect.signature(SampledFlowMap).parameters


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
