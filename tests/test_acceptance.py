"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are fixed here and
must not be loosened to make a failing criterion pass."""

import time
from dataclasses import replace

import numpy as np

from riemann_bci import mdm
from riemann_bci.adaptive import FusedClassifier
from riemann_bci.cli import main as cli_main
from riemann_bci.datasets import (
    DEFAULT_P300_SNR,
    SyntheticSpec,
    default_mi_covariances,
    generate_mi,
    generate_p300,
    generate_ssvep,
    load_model,
    read_epochs,
    save_model,
    write_epochs,
)
from riemann_bci.features import (
    DEFAULT_ERP_SHRINKAGE,
    MI,
    MU_P300,
    P300,
    SSVEP,
    FeatureRecipe,
    Prototype,
    build_recipe,
    featurize,
    ssvep_block_cov,
    super_trial_cov,
    _stacked_cov,
)
from riemann_bci.mdm import DistanceVector
from riemann_bci.preprocessing import Epoch, demean
from riemann_bci.simulator import (
    ADAPTIVE,
    NON_ADAPTIVE,
    SyntheticSessionConfig,
    make_level_specs,
    run_session,
    synthetic_generic_model,
    synthetic_training_run,
)
from riemann_bci.spd import (
    SpdMatrix,
    geodesic,
    geometric_mean,
    karcher_residual,
    matrix_fn,
    riemann_distance,
)

from conftest import random_invertible, random_orthogonal, random_spd

SSVEP_CURVE_SNR = 0.15


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_manifold_property_suite():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        exp_a = rng.uniform(0.5, 4.0)
        # The congruence test forms W^T A W in float64, which perturbs the
        # true distance by about eps * cond(A) * cond(W)^2; capping that
        # product at 1e7 keeps the 1e-8 property verifiable while covering
        # SPD conditions up to 1e4 and transform conditions up to 1e3.
        exp_w = rng.uniform(0.0, min(3.0, 0.5 * (7.0 - exp_a)))
        cond = 10.0**exp_a
        a = random_spd(rng, dim, cond=cond)
        b = random_spd(rng, dim, cond=cond)
        c = random_spd(rng, dim, cond=cond)
        w = random_invertible(rng, dim, cond=10.0**exp_w)

        d_ab = riemann_distance(a, b)
        scale = max(d_ab, 1e-3)
        assert abs(d_ab - riemann_distance(b, a)) <= 1e-8 * scale
        d_inv = riemann_distance(matrix_fn(a, "inverse"), matrix_fn(b, "inverse"))
        assert abs(d_ab - d_inv) <= 1e-8 * scale
        d_cong = riemann_distance(
            SpdMatrix(w.T @ a.values @ w), SpdMatrix(w.T @ b.values @ w)
        )
        assert abs(d_ab - d_cong) <= 1e-8 * scale
        assert riemann_distance(a, c) <= (
            d_ab + riemann_distance(b, c) + 1e-9
        )
        assert np.linalg.norm(geodesic(a, b, 0.0).values - a.values, "fro") <= 1e-10
        assert np.linalg.norm(geodesic(a, b, 1.0).values - b.values, "fro") <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"manifold suite took {elapsed:.1f}s, target < 30s"
    report(1, f"manifold properties over 1000 draws in {elapsed:.1f}s")


def test_criterion_2_geometric_mean():
    rng = np.random.default_rng(2002)

    # Karcher residual under tolerance on every converged call
    for _ in range(30):
        dim = int(rng.integers(2, 11))
        mats = [random_spd(rng, dim) for _ in range(int(rng.integers(2, 9)))]
        mean = geometric_mean(mats)
        assert karcher_residual(mean, mats) < 1e-8 * dim

    # commuting sets match the element-wise geometric mean; the solver is
    # run well below the agreement bound so it can resolve it
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        basis = random_orthogonal(rng, dim)
        eigvals = rng.uniform(0.5, 2.0, size=(5, dim))
        mats = [SpdMatrix((basis * lam) @ basis.T) for lam in eigvals]
        expected = (basis * np.exp(np.log(eigvals).mean(axis=0))) @ basis.T
        got = geometric_mean(mats, tol=1e-12 * dim).values
        assert np.linalg.norm(got - expected, "fro") <= 1e-9 * max(
            1.0, np.linalg.norm(expected, "fro")
        )

    # mean of a matrix and its inverse is the identity
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        c = random_spd(rng, dim, cond=100.0)
        mean = geometric_mean([c, matrix_fn(c, "inverse")], tol=1e-10 * dim)
        assert np.linalg.norm(mean.values - np.eye(dim), "fro") <= 1e-8

    # congruence equivariance
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        mats = [random_spd(rng, dim) for _ in range(4)]
        w = random_invertible(rng, dim, cond=100.0)
        lhs = geometric_mean([SpdMatrix(w.T @ m.values @ w) for m in mats]).values
        rhs = w.T @ geometric_mean(mats).values @ w
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-7 * np.linalg.norm(rhs, "fro")
    report(2, "Karcher residuals, commuting closed form, inverse pair, equivariance")


def test_criterion_3_feature_correctness():
    rng = np.random.default_rng(3003)

    # sample-covariance invariance under column permutation, exact
    x = rng.integers(-8, 9, size=(6, 120)).astype(float)
    perm = rng.permutation(120)
    c0 = super_trial_cov([x], 0.0).values
    c1 = super_trial_cov([x[:, perm]], 0.0).values
    assert np.array_equal(c0, c1)

    # shuffling the trial changes the cross blocks, not the trial block
    proto_data = rng.integers(-8, 9, size=(5, 100)).astype(float)
    trial = rng.integers(-8, 9, size=(5, 100)).astype(float)
    raw = _stacked_cov([proto_data, trial])
    raw_shuffled = _stacked_cov([proto_data, trial[:, rng.permutation(100)]])
    assert np.array_equal(raw[5:, 5:], raw_shuffled[5:, 5:])
    assert not np.array_equal(raw[5:, :5], raw_shuffled[5:, :5])
    assert np.array_equal(raw[5:, 5:], _stacked_cov([trial]))

    # block-diagonal SSVEP covariance has bit-zero off-diagonal blocks
    bank = [Epoch(rng.standard_normal((6, 90)), fs=512.0) for _ in range(3)]
    blocked = ssvep_block_cov(bank, shrinkage=DEFAULT_ERP_SHRINKAGE).values
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.all(blocked[i * 6 : (i + 1) * 6, j * 6 : (j + 1) * 6] == 0.0)

    # single-subject multi-user covariance equals the two-class form entry-wise
    proto = Prototype(rng.standard_normal((6, 80)), class_id=1, n_epochs=3)
    e = Epoch(rng.standard_normal((6, 80)), fs=128.0)
    mu = featurize(
        [e], FeatureRecipe(MU_P300, prototypes=(proto,), shrinkage=1e-4)
    )[0].values
    p3 = featurize([e], FeatureRecipe(P300, prototypes=(proto,), shrinkage=1e-4))[0].values
    assert np.array_equal(mu, p3)
    report(3, "sample/super covariance block structure exact")


def test_criterion_4_synthetic_mi_accuracy():
    recipe = FeatureRecipe(modality=MI, shrinkage=0.0)
    covs = default_mi_covariances(8, 2)
    accuracies = []
    for seed in range(20):
        train_spec = SyntheticSpec(
            n_channels=8, n_samples=512, fs=512.0, trials_per_class=50,
            seed=seed, class_covs=covs,
        )
        test_spec = replace(train_spec, seed=seed + 40_000)
        train = [demean(e) for e in generate_mi(train_spec)]
        test = [demean(e) for e in generate_mi(test_spec)]
        model = mdm.fit(train, recipe)
        accuracies.append(
            float(np.mean([mdm.predict(model, e) == e.label for e in test]))
        )
    mean_acc = float(np.mean(accuracies))
    assert mean_acc >= 0.95, f"mean MI accuracy {mean_acc:.4f} < 0.95"
    report(4, f"synthetic MI held-out accuracy {mean_acc:.4f} over 20 seeds")


def test_criterion_5_synthetic_p300_auc():
    aucs = []
    first_model = None
    for seed in range(20):
        train_spec = SyntheticSpec(trials_per_class=50, seed=seed, snr=DEFAULT_P300_SNR)
        test_spec = replace(train_spec, seed=seed + 7000)
        train = [demean(e) for e in generate_p300(train_spec)[0]]
        test = [demean(e) for e in generate_p300(test_spec)[0]]
        recipe = build_recipe(P300, training=train, shrinkage=DEFAULT_ERP_SHRINKAGE)
        model = mdm.fit(train, recipe)
        if first_model is None:
            first_model = model
        scores = []
        for e in test:
            dv = mdm.distances(model, e)
            scores.append((float(dv.values[0] - dv.values[1]), e.label))
        aucs.append(mdm.auc(scores))
    mean_auc = float(np.mean(aucs))
    assert 0.85 <= mean_auc <= 0.95, f"mean AUC {mean_auc:.4f} outside [0.85, 0.95]"

    null_spec = SyntheticSpec(trials_per_class=250, seed=12, snr=0.0)
    null_epochs = [demean(e) for e in generate_p300(null_spec)[0]]
    null_scores = []
    for e in null_epochs:
        dv = mdm.distances(first_model, e)
        null_scores.append((float(dv.values[0] - dv.values[1]), e.label))
    null_auc = mdm.auc(null_scores)
    assert abs(null_auc - 0.5) <= 0.05, f"null AUC {null_auc:.4f} strays from 0.5"
    report(
        5,
        f"synthetic P300 mean AUC {mean_auc:.4f} at calibrated snr, "
        f"null AUC {null_auc:.4f} at snr 0",
    )


def _crop(e: Epoch, seconds: float) -> Epoch:
    n = int(round(seconds * e.fs))
    return Epoch(e.data[:, :n], fs=e.fs, label=e.label, channels=e.channels)


def _ssvep_duration_curve(snr: float, seed: int) -> np.ndarray:
    spec = SyntheticSpec(
        n_channels=6, n_samples=768, fs=128.0, trials_per_class=4, seed=seed, snr=snr
    )
    train = generate_ssvep(spec)
    test = generate_ssvep(replace(spec, seed=seed + 50_000))
    recipe = build_recipe(
        SSVEP, shrinkage=DEFAULT_ERP_SHRINKAGE, freqs=(12.0, 15.0, 20.0)
    )
    accuracies = []
    for seconds in (1, 2, 3, 4, 5, 6):
        model = mdm.fit([_crop(e, seconds) for e in train], recipe)
        test_cropped = [_crop(e, seconds) for e in test]
        accuracies.append(
            float(np.mean([mdm.predict(model, e) == e.label for e in test_cropped]))
        )
    return np.array(accuracies)


def test_criterion_6_ssvep_duration_curve():
    curves = np.array([_ssvep_duration_curve(SSVEP_CURVE_SNR, s) for s in range(50)])
    mean_curve = curves.mean(axis=0)
    assert np.all(np.diff(mean_curve) >= 0.0), f"curve not nondecreasing: {mean_curve}"
    noiseless = np.array([_ssvep_duration_curve(1000.0, s) for s in range(3)])
    assert np.all(noiseless == 1.0), "noiseless limit short of 100%"
    report(
        6,
        "SSVEP accuracy nondecreasing over 1-6s "
        f"({np.round(mean_curve, 3).tolist()}), noiseless limit 100%",
    )


def test_criterion_7_adaptive_simulator():
    config = SyntheticSessionConfig()
    generic = synthetic_generic_model(config)
    training = synthetic_training_run(config)
    recipe = build_recipe(P300, training=training, shrinkage=config.shrinkage)
    trained = mdm.fit(training, recipe)

    negative = 0
    adaptive_late, trained_late = [], []
    for seed in range(100):
        levels = make_level_specs(config, session_seed=seed)
        fused = FusedClassifier(generic=generic, ramp=config.ramp)
        _, adaptive_summary = run_session(levels, fused, ADAPTIVE)
        _, trained_summary = run_session(levels, trained, NON_ADAPTIVE)
        if adaptive_summary.nrd_slope < 0.0:
            negative += 1
        adaptive_late.append(np.mean(adaptive_summary.nrds[-3:]))
        trained_late.append(np.mean(trained_summary.nrds[-3:]))
    assert negative >= 80, f"only {negative}/100 sessions had a negative NRD slope"
    a_late = float(np.mean(adaptive_late))
    t_late = float(np.mean(trained_late))
    rel = abs(a_late - t_late) / t_late
    assert rel <= 0.20, (
        f"end-of-session NRD gap {rel:.2%} (adaptive {a_late:.2f}, trained {t_late:.2f})"
    )
    report(
        7,
        f"{negative}/100 negative NRD slopes; end-of-session NRD "
        f"adaptive {a_late:.2f} vs trained {t_late:.2f} ({rel:.1%} apart)",
    )


def test_criterion_8_consistency(tmp_path):
    rng = np.random.default_rng(8008)

    # cumulative selection: incremental accumulation equals batch recomputation
    train = [
        Epoch(rng.standard_normal((4, 200)), fs=128.0, label=z)
        for z in (0, 0, 0, 1, 1, 1)
    ]
    model = mdm.fit(train, FeatureRecipe(modality=MI, shrinkage=0.0))
    reps = [
        {item: Epoch(rng.standard_normal((4, 200)), fs=128.0) for item in range(5)}
        for _ in range(4)
    ]
    running = {item: 0.0 for item in range(5)}
    ti = model.class_ids.index(1)
    ni = model.class_ids.index(0)
    for r, rep in enumerate(reps, start=1):
        for item in sorted(rep):
            dv = mdm.distances(model, rep[item])
            running[item] += dv.values[ti] - dv.values[ni]
        incremental_pick = min(running, key=lambda item: (running[item], item))
        assert incremental_pick == mdm.cumulative_select(model, reps[:r])

    # soft scores never disagree with the hard argmin
    for _ in range(1000):
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(2, 9)))
        dv = DistanceVector(values=values, class_ids=tuple(range(len(values))))
        assert int(np.argmax(mdm.soft_scores(dv))) == int(np.argmin(values))

    # file round trips are bit-exact
    epochs = [
        Epoch(
            (rng.standard_normal((4, 64)) * 40).astype(np.float32),
            fs=128.0,
            label=int(rng.integers(0, 2)),
        )
        for _ in range(5)
    ]
    epath = tmp_path / "epochs.dat"
    write_epochs(epath, epochs)
    rewritten = tmp_path / "epochs2.dat"
    write_epochs(rewritten, read_epochs(epath))
    assert epath.read_bytes() == rewritten.read_bytes()
    mpath = tmp_path / "model.json"
    save_model(mpath, model)
    mpath2 = tmp_path / "model2.json"
    save_model(mpath2, load_model(mpath))
    assert mpath.read_bytes() == mpath2.read_bytes()

    # fixed-seed CLI runs are byte-identical end to end
    synth_a, synth_b = tmp_path / "a.dat", tmp_path / "b.dat"
    for out in (synth_a, synth_b):
        assert cli_main(
            ["synth", "--modality", "mi", "--trials", "10", "--samples", "256",
             "--seed", "5", "--out", str(out)]
        ) == 0
    assert synth_a.read_bytes() == synth_b.read_bytes()
    fit_a, fit_b = tmp_path / "ma.json", tmp_path / "mb.json"
    for out in (fit_a, fit_b):
        assert cli_main(
            ["fit", "--modality", "mi", "--shrinkage", "0.0",
             "--in", str(synth_a), "--out", str(out)]
        ) == 0
    assert fit_a.read_bytes() == fit_b.read_bytes()
    sim_a, sim_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    for out in (sim_a, sim_b):
        assert cli_main(
            ["simulate", "--levels", "2", "--items", "3", "--mode", "both",
             "--seed", "11", "--out", str(out)]
        ) == 0
    assert sim_a.read_bytes() == sim_b.read_bytes()
    report(8, "incremental selection, soft scores, file and CLI determinism")
