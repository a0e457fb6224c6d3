import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so3denoise import align, estimators, fisher, geom, quadrature
from so3denoise.diffusion import StepMetrics, write_metrics_csv
from so3denoise.estimators import (
    SWEEP_CSV_HEADER,
    DegenerateAlignmentWarning,
    EstimatorKind,
    error_sweep,
    estimator_target,
    sweep_aug_anomalies,
    write_sweep_csv,
)
from so3denoise.fisher import ExpansionSingularError, c1
from so3denoise.geom import center, frobenius_norm_sq, proper_svd, rotate, sample_haar
from so3denoise.quadrature import NoConvergenceError
from so3denoise.trajectory import synth_trajectory

SWEEP_KINDS = [EstimatorKind.AUG, EstimatorKind.ORDER0, EstimatorKind.ORDER1, EstimatorKind.ORDER2]


def noisy_pair(rng, x, sigma):
    r_aug = sample_haar(rng)
    y = center(rotate(r_aug, x) + sigma * rng.standard_normal(x.shape))
    return y, r_aug


@pytest.fixture(scope="module")
def cloud():
    return synth_trajectory(8, 1, 0.0, seed=11).frames[0]


def test_order0_target_for_clean_pair(cloud):
    target = estimator_target(EstimatorKind.ORDER0, cloud, cloud, 0.1)
    np.testing.assert_allclose(target, cloud, atol=1e-12)


def test_order1_target_orthonormal_frame():
    # x with x.T x = I within the centered subspace: c1 is -1/2 per axis
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(center(rng.standard_normal((6, 3))))
    x = q
    assert np.allclose(x.T @ x, np.eye(3), atol=1e-12)
    assert np.allclose(x.sum(axis=0), 0, atol=1e-12)
    target = estimator_target(EstimatorKind.ORDER1, x, x, 0.1)
    np.testing.assert_allclose(target, 0.995 * x, rtol=1e-12, atol=1e-13)


def test_r_aug_required_iff_aug(cloud):
    rng = np.random.default_rng(1)
    y, r_aug = noisy_pair(rng, cloud, 0.1)
    with pytest.raises(ValueError):
        estimator_target(EstimatorKind.AUG, y, cloud, 0.1)
    with pytest.raises(ValueError):
        estimator_target(EstimatorKind.ORDER0, y, cloud, 0.1, r_aug=r_aug)
    np.testing.assert_array_equal(
        estimator_target(EstimatorKind.AUG, y, cloud, 0.1, r_aug=r_aug), rotate(r_aug, cloud)
    )


def test_error_ordering_majority(cloud):
    rng = np.random.default_rng(2)
    sigma = 0.1
    wins = 0
    trials = 100
    for _ in range(trials):
        y, _ = noisy_pair(rng, cloud, sigma)
        oracle = estimator_target(EstimatorKind.ORACLE, y, cloud, sigma, tol=1e-8)
        errs = [
            frobenius_norm_sq(estimator_target(kind, y, cloud, sigma) - oracle)
            for kind in (EstimatorKind.ORDER0, EstimatorKind.ORDER1, EstimatorKind.ORDER2)
        ]
        if errs[2] < errs[1] < errs[0]:
            wins += 1
    assert wins > trials // 2


def test_mse_to_oracle_values(cloud):
    def mse_to_oracle(kind, y, sigma, r_aug=None):
        oracle = estimator_target(EstimatorKind.ORACLE, y, cloud, sigma)
        return frobenius_norm_sq(estimator_target(kind, y, cloud, sigma, r_aug=r_aug) - oracle)

    rng = np.random.default_rng(3)
    y, r_aug = noisy_pair(rng, cloud, 0.2)
    assert mse_to_oracle(EstimatorKind.ORACLE, y, 0.2) == 0.0
    assert mse_to_oracle(EstimatorKind.ORDER0, y, 0.2) > 0.0
    # sharply peaked posterior: expansion-order targets collapse onto the oracle
    y0, r0 = noisy_pair(rng, cloud, 1e-3)
    floor = 1e-8 * frobenius_norm_sq(cloud)
    for kind in (EstimatorKind.ORDER0, EstimatorKind.ORDER1, EstimatorKind.ORDER2):
        assert mse_to_oracle(kind, y0, 1e-3) < floor
    # the raw augmented target converges too, only at the slower O(sigma^2) rate
    aug_small = mse_to_oracle(EstimatorKind.AUG, y0, 1e-3, r_aug=r0)
    y1, r1 = noisy_pair(rng, cloud, 0.1)
    aug_large = mse_to_oracle(EstimatorKind.AUG, y1, 0.1, r_aug=r1)
    assert aug_small < aug_large


def test_sweep_deterministic_and_csv_round_trip(tmp_path, cloud):
    records = error_sweep(cloud, [0.1], n_noise=1, seed=77)
    again = error_sweep(cloud, [0.1], n_noise=1, seed=77)
    assert records == again
    assert len(records) == 4
    assert all(r.n_samples == 1 and r.n_excluded == 0 for r in records)

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(records, path_a)
    write_sweep_csv(again, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_CSV_HEADER
    assert rows[1:] == [
        [repr(r.sigma), r.kind.value, repr(r.mean_mse), repr(r.stderr),
         repr(r.n_samples), repr(r.n_excluded), repr(r.seed)]
        for r in records
    ]


def _per_draw_sweep(x, sigmas, n_noise, seed, tol, dropped=()):
    """The sweep rebuilt draw by draw from one scalar target call per kind:
    (sigma, kind, mean_mse, stderr, n_samples, n_excluded) per record.
    The (sigma index, draw) pairs in ``dropped`` count as oracle failures."""
    rows = []
    for si, sigma in enumerate(sigmas):
        vals = {kind: [] for kind in SWEEP_KINDS}
        for j in range(n_noise):
            rng = np.random.default_rng([seed, si, j])
            r_aug = sample_haar(rng)
            y = center(rotate(r_aug, x) + sigma * rng.standard_normal(x.shape))
            try:
                oracle = estimator_target(EstimatorKind.ORACLE, y, x, sigma, tol=tol)
            except NoConvergenceError:
                continue
            if (si, j) in dropped:
                continue
            for kind in SWEEP_KINDS:
                r = r_aug if kind is EstimatorKind.AUG else None
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateAlignmentWarning)
                        target = estimator_target(kind, y, x, sigma, r_aug=r, tol=tol)
                except ExpansionSingularError:
                    continue
                vals[kind].append(frobenius_norm_sq(target - oracle))
        for kind in SWEEP_KINDS:
            v = np.array(vals[kind])
            n = len(v)
            mean = float(np.mean(v)) if n else float("nan")
            stderr = float(np.std(v, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append((sigma, kind, mean, stderr, n, n_noise - n))
    return rows


def _record_rows(records):
    return [(r.sigma, r.kind, r.mean_mse, r.stderr, r.n_samples, r.n_excluded) for r in records]


ASCENDING_LADDERS = st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=6, unique=True).map(sorted)


@example(sigmas=[0.01, 0.1, 0.3, 1.0], n_noise=3, seed=5)
@example(sigmas=[0.05, 0.5], n_noise=11, seed=9)  # past numpy's 8-way pairwise unroll
@settings(max_examples=25, deadline=None)
@given(sigmas=ASCENDING_LADDERS, n_noise=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_sweep_matches_per_draw_scalar_calls(cloud, sigmas, n_noise, seed):
    # the stacked sweep against one scalar target call per kind and draw: same
    # RNG stream and the same numbers and counts, bit for bit (repr keeps NaN equal)
    tol = 1e-6
    records = error_sweep(cloud, sigmas, n_noise=n_noise, seed=seed, tol=tol)
    assert repr(_record_rows(records)) == repr(_per_draw_sweep(cloud, sigmas, n_noise, seed, tol))


def test_sweep_records_mixing_kept_and_excluded_draws(monkeypatch, cloud):
    # records with 9 of 10 draws kept, with 1 kept (stderr 0) and with none (NaN mean)
    sigmas, n_noise, seed, tol = [0.05, 0.2, 0.5], 10, 4, 1e-6
    dropped = {(0, 3), *((1, j) for j in range(9)), *((2, j) for j in range(10))}

    def flagged(svd, sigma, tol):
        mean, pending = quadrature._oracle_mean(svd, sigma, tol)
        for si, j in dropped:
            pending[si * n_noise + j] = True
        mean[pending] = np.nan
        return mean, pending

    # the per-draw reference below runs unpatched: its single pairs share the oracle function
    with monkeypatch.context() as patched:
        patched.setattr(estimators, "_oracle_mean", flagged)
        records = error_sweep(cloud, sigmas, n_noise=n_noise, seed=seed, tol=tol)
    assert [r.n_samples for r in records] == [9] * 4 + [1] * 4 + [0] * 4
    assert repr(_record_rows(records)) == repr(_per_draw_sweep(cloud, sigmas, n_noise, seed, tol, dropped))


def test_sweep_collinear_cloud_matches_per_draw_scalar_calls():
    # y.T @ x has rank 1: orders 1 and 2 are excluded on every draw, and the
    # degenerate alignment is still scored and warns once per sweep
    x = center(np.outer(np.linspace(-1.0, 1.5, 7), [1.0, 2.0, -0.5]))
    sigmas, n_noise, seed, tol = [0.02, 0.2, 1.0], 3, 8, 1e-6
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = error_sweep(x, sigmas, n_noise=n_noise, seed=seed, tol=tol)
    assert [w.category for w in caught] == [DegenerateAlignmentWarning]
    assert repr(_record_rows(records)) == repr(_per_draw_sweep(x, sigmas, n_noise, seed, tol))
    for r in records:
        excluded = r.kind in (EstimatorKind.ORDER1, EstimatorKind.ORDER2)
        assert r.n_excluded == (n_noise if excluded else 0)
        assert np.isnan(r.mean_mse) == excluded


def test_sweep_factors_each_stack_once(monkeypatch, cloud):
    # one proper SVD of the stacked y.T @ x serves orders 0, 1 and 2 and the
    # oracle, however many levels and draws the sweep has
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return proper_svd(a)

    for module in (geom, align, fisher, estimators, quadrature):  # counted wherever bound
        monkeypatch.setattr(module, "proper_svd", counted, raising=False)
    error_sweep(cloud, [0.05, 0.1, 0.3], n_noise=4, seed=2)
    assert calls == [(12, 3, 3)]


def test_sweep_hierarchy_holds_on_every_draw():
    # the benchmark's per-call gate, draw by draw: at sigma = 0.003 scale order-2
    # MSE is ~1e-20 or below, so an oracle error of ~1e-10 per entry breaks it
    violations = []
    for c in range(8):
        traj = synth_trajectory(8, 1, 0.0, seed=c)
        sigmas = [0.003 * traj.scale, 0.01 * traj.scale]
        for seed in range(16):
            records = error_sweep(traj.frames[0], sigmas, n_noise=1, seed=seed, tol=1e-6)
            mse = {(r.sigma, r.kind): r.mean_mse for r in records}
            for s in sigmas:
                o0, o1, o2 = (mse[s, EstimatorKind(f"order{k}")] for k in range(3))
                if not o2 <= o1 <= o0:
                    violations.append((c, seed, s, o0, o1, o2))
    assert not violations


def test_sweep_order0_mse_slope(cloud):
    sigmas = [0.05, 0.1, 0.2, 0.3]
    records = error_sweep(cloud, sigmas, n_noise=16, seed=9)
    vals = {r.sigma: r.mean_mse for r in records if r.kind is EstimatorKind.ORDER0}
    slope = np.polyfit(np.log(sigmas), np.log([vals[s] for s in sigmas]), 1)[0]
    assert 3.0 <= slope <= 5.0
    # alignment-vs-augmented ordering is recorded, not asserted
    anomalies = sweep_aug_anomalies(records)
    assert isinstance(anomalies, list)


@pytest.mark.parametrize("write, row, line", [
    (write_metrics_csv, lambda f: StepMetrics(1, f(0.5), 0.25, f(0.1), 0), "1,0.5,0.25,0.1,0"),
    (write_sweep_csv, lambda f: estimators.SweepRecord(f(0.1), EstimatorKind.ORDER2, f(1 / 3), 0.0, 3, 1, 7),
     "0.1,order2,0.3333333333333333,0.0,3,1,7"),
], ids=["metrics", "sweep"])
def test_csv_writers_write_numpy_floats_as_plain_floats(tmp_path, write, row, line):
    # np.float64 is a float whose repr is "np.float64(0.5)"; both writers must write "0.5"
    for f in (float, np.float64):
        path = tmp_path / f"{f.__name__}.csv"
        write([row(f)], path)
        assert path.read_text().splitlines()[1] == line


def test_sweep_aug_anomalies_flags_levels_where_aug_beats_alignment():
    mse = {0.1: {EstimatorKind.AUG: 1.0, EstimatorKind.ORDER0: 0.5, EstimatorKind.ORDER2: 0.1},
           0.3: {EstimatorKind.AUG: 0.2, EstimatorKind.ORDER0: 0.4},
           0.5: {EstimatorKind.AUG: 0.2},  # no ORDER0 record to compare with
           1.0: {EstimatorKind.ORDER0: 0.3, EstimatorKind.AUG: 0.25}}
    records = [estimators.SweepRecord(s, kind, m, 0.0, 4, 0, 0)
               for s, by_kind in mse.items() for kind, m in by_kind.items()]
    assert sweep_aug_anomalies(records) == [0.3, 1.0]


def test_sweep_argument_validation(cloud):
    with pytest.raises(ValueError):
        error_sweep(cloud, [0.2, 0.1], n_noise=2, seed=0)
    with pytest.raises(ValueError):
        error_sweep(cloud, [0.1], n_noise=0, seed=0)
    with pytest.raises(ValueError, match="sigmas must be nonempty"):
        error_sweep(cloud, [], n_noise=2, seed=0)
    with pytest.raises(TypeError, match=r"^n_noise must be an integer, got 2\.5$"):
        error_sweep(cloud, [0.1], 2.5, 0)
    assert error_sweep(cloud, [0.1], np.int64(1), 0) == error_sweep(cloud, [0.1], 1, 0)
    with pytest.raises(ValueError):
        error_sweep(cloud, [-0.1, 0.2], n_noise=2, seed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            error_sweep(cloud, [0.1, bad], n_noise=2, seed=0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            error_sweep(cloud, [0.1], n_noise=2, seed=0, tol=bad)


def test_oracle_target_rejects_a_concentration_that_is_not_finite(cloud):
    # sigma**2 underflows to 0 for one pair and y.T @ x / sigma**2 overflows for one
    # item of a stack: neither may come back as a NaN mean flagged converged
    stack = np.stack([cloud, cloud])
    for y, x, sigma in ((cloud, cloud, 1e-170), (stack, stack, np.array([0.1, 1e-160]))):
        with pytest.raises(ValueError, match="is not finite"):
            estimator_target(EstimatorKind.ORACLE, y, x, sigma)


def test_stacked_target_names_a_fourth_power_that_overflows(cloud):
    # sigma**2 = 1e160 is a finite float for the second item, sigma**4 is not: the
    # expansion names it rather than adding an infinite correction
    stack, sigma = np.stack([cloud, cloud]), np.array([0.5, 1e80])
    targets, keep = estimator_target(EstimatorKind.ORDER1, stack, stack, sigma)
    assert keep.all() and np.isfinite(targets[0]).all()
    with pytest.raises(ValueError, match=r"^1e\+80\*\*4 overflows a float$"):
        estimator_target(EstimatorKind.ORDER2, stack, stack, sigma)


def test_equivariance_and_conditioning_invariance_of_orders(cloud):
    rng = np.random.default_rng(4)
    sigma = 0.15
    for _ in range(20):
        y, _ = noisy_pair(rng, cloud, sigma)
        r = sample_haar(rng)
        for kind in (EstimatorKind.ORDER0, EstimatorKind.ORDER1, EstimatorKind.ORDER2):
            base = estimator_target(kind, y, cloud, sigma)
            equi = estimator_target(kind, rotate(r, y), cloud, sigma)
            assert np.max(np.abs(equi - rotate(r, base))) < 1e-9
            inv = estimator_target(kind, y, rotate(r, cloud), sigma)
            assert np.max(np.abs(inv - base)) < 1e-9


def test_nesting_bit_exact(cloud):
    # zeroing the top correction of order k reproduces order k-1 bitwise
    rng = np.random.default_rng(5)
    y, _ = noisy_pair(rng, cloud, 0.2)
    u, s, v = proper_svd(y.T @ cloud)
    sigma = 0.2
    d1 = np.ones(3) + sigma**2 * c1(s)
    order1 = estimator_target(EstimatorKind.ORDER1, y, cloud, sigma)
    np.testing.assert_array_equal(order1, cloud @ ((u * d1) @ v.T).T)
    order0 = estimator_target(EstimatorKind.ORDER0, y, cloud, sigma)
    np.testing.assert_array_equal(order0, cloud @ ((u * np.ones(3)) @ v.T).T)


def test_averaging_offset_lemma(cloud):
    # delta(d) = E_R[||d - R x||^2] - ||d - E_R[R] x||^2 is the same for every probe d
    rng = np.random.default_rng(6)
    tol = 1e-8
    y, _ = noisy_pair(rng, cloud, 0.2)
    probes = [cloud, np.zeros_like(cloud), center(rng.standard_normal(cloud.shape))]
    mean_x = estimator_target(EstimatorKind.ORACLE, y, cloud, 0.2, tol=tol)
    deltas = [frobenius_norm_sq(d) + frobenius_norm_sq(cloud) - 2.0 * np.sum(d * mean_x)
              - frobenius_norm_sq(d - mean_x) for d in probes]
    spread = max(abs(dl - deltas[0]) for dl in deltas)
    assert spread < 4 * tol * frobenius_norm_sq(cloud)


def test_averaging_offset_delta_nonnegative(cloud):
    # delta(d) equals the posterior variance of the rotated cloud
    rng = np.random.default_rng(7)
    y, _ = noisy_pair(rng, cloud, 0.3)
    from so3denoise.quadrature import mf_mean_quadrature

    mean_x = cloud @ mf_mean_quadrature(y.T @ cloud / 0.3**2, tol=1e-8).T
    d = cloud
    # ||d - R x||^2 is linear in R, so its posterior mean needs only E[R]
    expected_loss = frobenius_norm_sq(d) + frobenius_norm_sq(cloud) - 2.0 * np.sum(d * mean_x)
    delta = expected_loss - frobenius_norm_sq(d - mean_x)
    assert delta >= 0.0
