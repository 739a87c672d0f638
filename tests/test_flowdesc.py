import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from harpipe.flowdesc import (
    DESCRIPTOR_DIM,
    flow_invariants,
    flow_jacobian,
    jacobian_probes,
    point_descriptors,
    pool_window,
)
from oracles import (
    PointDescriptor,
    aggregate_sample,
    flow_jacobian_per_axis,
    temporal_derivatives,
)


def jacobian(ux, uy, vx, vy):
    return np.array([[ux, uy], [vx, vy]])


def probe_flow(probe, p, h=2.0):
    """The (5, 2) velocities and (5,) tracked mask of one point's
    ``jacobian_probes``, reading the flow from ``probe(x, y)`` (None where
    the track is lost); a lost probe's velocity is NaN, which
    ``flow_jacobian`` must ignore."""
    points = jacobian_probes(np.array([p], dtype=np.float64), h)[0]
    uv = [probe(x, y) for x, y in points.tolist()]
    tracked = np.array([v is not None for v in uv])
    return np.array([(np.nan, np.nan) if v is None else v for v in uv]), tracked


def jacobian_of(probe, p, h=2.0):
    """flow_jacobian of one point, its (2, 2) Jacobian, reading the flow
    from ``probe(x, y)`` (None where the track is lost); ValueError for an
    untrackable neighbourhood."""
    uv, tracked = probe_flow(probe, p, h)
    jac, ok = flow_jacobian(uv[None], tracked[None], h)
    if not ok[0]:
        raise ValueError("flow jacobian: untrackable neighborhood")
    return jac[0]


def window_table(slots, steps=8, fill=np.nan):
    """(table, tracked mask) for pool_table from per-slot lists of 12-value
    rows, each slot tracked for the first len(rows) steps; the untracked
    rows hold ``fill``."""
    table = np.full((len(slots), steps, DESCRIPTOR_DIM), fill)
    tracked = np.zeros((len(slots), steps), dtype=bool)
    for k, rows in enumerate(slots):
        if rows:
            table[k, : len(rows)] = rows
            tracked[k, : len(rows)] = True
    return table, tracked


def pool_table(table, tracked):
    """pool_window of (..., slots, steps, 12) tables and their
    (..., slots, steps) tracked masks, with each slot's tracked rows added
    step by step to sums that start at +0.0, as the pipeline adds them."""
    sums = np.zeros((*table.shape[:-2], DESCRIPTOR_DIM))
    for step in range(tracked.shape[-1]):
        rows = tracked[..., step]
        sums[rows] += table[..., step, :][rows]
    return pool_window(sums, tracked.sum(axis=-1), tracked.shape[-1])


def pool(slots, steps=8, fill=np.nan):
    return pool_table(*window_table(slots, steps, fill))


finite = st.floats(-10.0, 10.0)


class TestTemporalDerivatives:
    def test_identical_samples(self):
        assert temporal_derivatives((1.0, 2.0), (1.0, 2.0), 50.0, 50.0, 3) == (0, 0, 0)

    def test_velocity_rate(self):
        _, u_t, v_t = temporal_derivatives((1.0, 0.0), (2.0, 0.0), 0.0, 0.0, 3)
        assert u_t == pytest.approx(1 / 3)
        assert v_t == 0.0

    def test_intensity_rate(self):
        i_t, _, _ = temporal_derivatives((0, 0), (0, 0), 100.0, 94.0, 3)
        assert i_t == -2.0

    def test_first_step_has_no_velocity_history(self):
        i_t, u_t, v_t = temporal_derivatives(None, (5.0, 5.0), 10.0, 13.0, 3)
        assert (i_t, u_t, v_t) == (1.0, 0.0, 0.0)


class TestFlowInvariants:
    def test_identity_jacobian(self):
        assert flow_invariants(jacobian(1, 0, 0, 1)) == (2, 0, 1, 1)

    def test_rotation(self):
        w = 0.75
        div, vor, g, s = flow_invariants(jacobian(0, -w, w, 0))
        assert (div, vor) == (0, 2 * w)
        assert g == pytest.approx(w * w)
        assert s == pytest.approx(0.0)

    def test_shear(self):
        assert flow_invariants(jacobian(0, 1, 0, 0)) == (0, -1, 0, -0.25)

    @given(finite, finite, finite, finite, st.floats(-3.0, 3.0))
    def test_scaling_linearity(self, ux, uy, vx, vy, a):
        d1, w1, g1, s1 = flow_invariants(jacobian(ux, uy, vx, vy))
        d2, w2, g2, s2 = flow_invariants(
            jacobian(a * ux, a * uy, a * vx, a * vy)
        )
        assert d2 == pytest.approx(a * d1, abs=1e-9)
        assert w2 == pytest.approx(a * w1, abs=1e-9)
        assert g2 == pytest.approx(a * a * g1, abs=1e-7)
        assert s2 == pytest.approx(a * a * s1, abs=1e-7)

    @given(finite, finite, finite, finite)
    def test_g_ten_is_determinant(self, ux, uy, vx, vy):
        _, _, g, _ = flow_invariants(jacobian(ux, uy, vx, vy))
        assert g == pytest.approx(ux * vy - uy * vx, abs=1e-9)


class TestFlowJacobian:
    def affine_probe(self, a, b, c, d, e, g):
        return lambda x, y: (a * x + b * y + c, d * x + e * y + g)

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=50)
    def test_recovers_affine_coefficients(self, a, b, c, d, e, g):
        (ux, uy), (vx, vy) = jacobian_of(
            self.affine_probe(a, b, c, d, e, g), (40.0, 30.0))
        assert ux == pytest.approx(a, abs=1e-9)
        assert uy == pytest.approx(b, abs=1e-9)
        assert vx == pytest.approx(d, abs=1e-9)
        assert vy == pytest.approx(e, abs=1e-9)

    def test_constant_field(self):
        jac = jacobian_of(lambda x, y: (2.0, -1.0), (10.0, 10.0))
        assert jac.tolist() == [[0, 0], [0, 0]]

    def test_one_sided_fallback(self):
        # right probe fails; one-sided difference on x is still exact for a
        # linear field
        def probe(x, y):
            if x > 40.0:
                return None
            return (0.5 * x, 0.25 * y)

        jac = jacobian_of(probe, (40.0, 30.0))
        assert jac[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert jac[1, 1] == pytest.approx(0.25, abs=1e-9)

    def test_untrackable_axis_rejected(self):
        def probe(x, y):
            return None if x != 40.0 else (0.0, 0.0)

        with pytest.raises(ValueError):
            jacobian_of(probe, (40.0, 30.0))

    @seed(20)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_axis_oracle(self, rng_seed, points, h):
        # every centre tracked, as the pipeline passes only kept points;
        # velocities from 1e-6 to 1e3 px, NaN at the lost probes
        rng = np.random.default_rng(rng_seed)
        uv = rng.standard_normal((points, 5, 2)) * 10.0 ** rng.integers(-6, 4, (points, 1, 1))
        tracked = rng.random((points, 5)) < rng.uniform(0.0, 1.0, (points, 1))
        tracked[:, 0] = True
        uv[~tracked] = np.nan
        jac, ok = flow_jacobian(uv, tracked, h)
        want_jac, want_ok = flow_jacobian_per_axis(uv, tracked, h)
        assert jac.shape == want_jac.shape and jac.tobytes() == want_jac.tobytes()
        assert ok.tolist() == want_ok.tolist()

    def test_rows_are_independent(self):
        # central, one-sided, untrackable and affine rows in one call equal
        # the same rows one at a time
        def affine(x, y):
            return (0.3 * x - 0.2 * y, 0.1 * x + 0.4 * y)

        fields = [
            affine,
            lambda x, y: None if x > 40.0 else affine(x, y),
            lambda x, y: None if y < 30.0 else affine(x, y),
            lambda x, y: None if x != 40.0 else (0.0, 0.0),
        ]
        uv, tracked = (np.stack(a) for a in
                       zip(*(probe_flow(f, (40.0, 30.0)) for f in fields)))
        jac, ok = flow_jacobian(uv, tracked, 2.0)
        assert ok.tolist() == [True, True, True, False]
        for k, f in enumerate(fields[:3]):
            assert jac[k].tolist() == jacobian_of(f, (40.0, 30.0)).tolist()
        assert jac[3].tolist() == [[0, 0], [0, 0]]
        assert flow_invariants(jac)[0][3] == 0.0


class TestAssembleDescriptor:
    def _static(self, step_index=2, steps=8):
        return point_descriptors(
            np.array([[80.0, 60.0]]), (160, 120), step_index, steps,
            np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2)),
            tuple(np.zeros(1) for _ in range(4)),
        )[0]

    def test_static_center_point(self):
        d = self._static(step_index=0)
        assert d.tolist() == [0.5, 0.5, 0.0] + [0.0] * 9

    def test_component_order(self):
        d = point_descriptors(
            np.array([[160.0, 120.0], [80.0, 30.0]]), (160, 120), 7, 8,
            np.array([4.0, -4.0]), np.array([[5.0, 6.0], [-5.0, -6.0]]),
            np.array([[7.0, 8.0], [-7.0, -8.0]]),
            tuple(np.array([v, -v]) for v in (9.0, 10.0, 11.0, 12.0)),
        )
        assert d.tolist() == [
            [1, 1, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            [0.5, 0.25, 1, -4, -5, -6, -7, -8, -9, -10, -11, -12],
        ]

    def test_time_normalization(self):
        assert self._static(step_index=7, steps=8)[2] == 1.0
        assert self._static(step_index=0, steps=1)[2] == 0.0

    def test_normalized_position_in_unit_range(self):
        d = self._static()
        assert (0.0 <= d[:3]).all() and (d[:3] <= 1.0).all()


class TestAggregateSample:
    def _rows(self, fill, count):
        return [[fill] * DESCRIPTOR_DIM] * count

    def test_n10_gives_length_120(self):
        values = pool([self._rows(1.0, 8)] + [[]] * 9)
        assert values.size == 120

    def test_no_features_all_zero(self):
        values = pool([[]] * 10)
        assert values.size == 120
        assert not values.any()

    def test_no_steps_all_zero(self):
        values = pool([[]] * 10, steps=0)
        assert values.size == 120
        assert not values.any()

    def test_slot_mean(self):
        values = pool([self._rows(2.0, 4) + self._rows(6.0, 4), [], []])
        assert np.allclose(values[:DESCRIPTOR_DIM], 4.0)
        assert not values[DESCRIPTOR_DIM:].any()

    def test_constant_motion_mean_equals_single_step(self):
        d = [0.3, 0.4, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0, 0, 0, 0]
        assert np.allclose(pool([[d] * 8]), d)

    def test_half_tracked_slot_zeroed(self):
        assert not pool([self._rows(5.0, 4)]).any()

    def test_majority_tracked_slot_kept(self):
        assert np.allclose(pool([self._rows(5.0, 5)]), 5.0)

    def test_extra_slots_ignored(self):
        # each slot pools its own rows only, so the slots past N never reach
        # the first 12*N values (the prefix that sweep slices)
        slots = [self._rows(float(i), 8 - i) for i in range(5)]
        values = pool(slots[:2])
        assert values.size == 2 * DESCRIPTOR_DIM
        assert np.allclose(values[:DESCRIPTOR_DIM], 0.0)
        assert np.allclose(values[DESCRIPTOR_DIM:], 1.0)
        assert values.tolist() == pool(slots)[: 2 * DESCRIPTOR_DIM].tolist()

    @given(
        st.integers(1, 14),
        st.lists(st.integers(0, 8), max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_length_always_12n(self, n, plan):
        slots = [self._rows(1.0, tracked_steps) for tracked_steps in plan[:n]]
        values = pool(slots + [[]] * (n - len(slots)))
        assert values.size == 12 * n
        assert np.isfinite(values).all()

    def test_negative_zero_rows(self):
        # a kept slot whose tracked rows are all -0.0, next to +0.0 untracked
        # rows, pools to the same bits as its stack of descriptors
        values = pool([self._rows(-0.0, 5)], fill=0.0)
        expected = aggregate_sample([[PointDescriptor(*[-0.0] * 12)] * 5], 1, 8)
        assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_list_oracle(self, seed, steps, n_windows):
        # random prefixes of random rows, -0.0 and +0.0 included, against the
        # per-slot mean of a stack of PointDescriptor records, whatever the
        # untracked rows hold; a stack of windows pools each one as if alone
        rng = np.random.default_rng(seed)
        n_slots = int(rng.integers(1, 12))
        windows = []
        for _ in range(n_windows):
            slots = []
            for _ in range(n_slots):
                rows = rng.normal(0.0, 10.0 ** rng.integers(-3, 4),
                                  (int(rng.integers(0, steps + 1)), DESCRIPTOR_DIM))
                rows[rng.random(rows.shape) < 0.2] = -0.0
                rows[rng.random(rows.shape) < 0.1] = 0.0
                slots.append(rows.tolist())
            windows.append(slots)
        for fill in (np.nan, 0.0, -0.0, 1e300):
            tables = [window_table(slots, steps, fill) for slots in windows]
            stacked = pool_table(*(np.stack(parts) for parts in zip(*tables)))
            assert stacked.shape == (n_windows, n_slots * DESCRIPTOR_DIM)
            for row, slots, table in zip(stacked, windows, tables):
                expected = aggregate_sample(
                    [[PointDescriptor(*r) for r in rows] for rows in slots],
                    n_slots, steps,
                ).view(np.int64).tolist()
                assert row.view(np.int64).tolist() == expected
                assert pool_table(*table).view(np.int64).tolist() == expected
