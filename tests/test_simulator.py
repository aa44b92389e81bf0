import csv
import hashlib
import json

import numpy as np
import pytest

from riemann_bci import mdm, simulator
from riemann_bci.adaptive import FusedClassifier
from riemann_bci.datasets import SyntheticSpec, generate_mi
from riemann_bci.errors import ContractError
from riemann_bci.features import MI, FeatureRecipe, featurize
from riemann_bci.preprocessing import Epoch, demean
from riemann_bci.simulator import (
    ADAPTIVE,
    NON_ADAPTIVE,
    CSV_COLUMNS,
    LevelSpec,
    SyntheticSessionConfig,
    compare_modes,
    make_level_specs,
    replay_sessions,
    run_level,
    run_session,
    session_rows,
    synthetic_generic_model,
    synthetic_training_run,
    write_session_csv,
)

MI_RECIPE = FeatureRecipe(modality=MI, shrinkage=0.0)

# sha256 of the selections of two default sessions replayed in both modes
REPLAY_SHA256 = "a472287c4bfe7e23d12d14b8836b6995cc03dc3c8e68d8d91bf8bb928a990986"
# sha256 of the bytes of every distance vector those replays score (fused in
# adaptive mode, static otherwise), item by item in repetition order
DISTANCES_SHA256 = "4fb6e679ad3addf34411a548d4a5086f4c57c888000ad9934cbea6ee10e8a931"


def feature(fc, e):
    """The epoch's feature under the fused classifier's recipe, a stack of one."""
    return featurize([e], fc.generic.recipe)[0]


def per_item_selections(spec, clf, mode):
    """Oracle for :func:`run_level`: the replay that featurized each item
    epoch on its own and scored it as a stack of one: ``mdm.distances`` for
    a static model and ``fused_distances`` for a fused classifier."""
    fused = isinstance(clf, FusedClassifier)
    class_ids = clf.generic.class_ids if fused else clf.class_ids
    totals, selections = {}, []
    for rep in range(spec.max_repetitions):
        epochs = spec.epoch_source(rep)
        feats = {item: feature(clf, e) for item, e in epochs.items()} if fused else {}
        for item in sorted(epochs):
            if fused:
                (dv,) = clf.fused_distances([feats[item]])
            else:
                dv = mdm.distances(clf, epochs[item])
            totals[item] = totals.get(item, 0.0) + mdm.target_contrast(dv)
        selections.append(min(totals, key=lambda item: (totals[item], item)))
        if mode == ADAPTIVE:
            for item in sorted(epochs):
                label = max(class_ids) if item == spec.target else min(class_ids)
                clf.absorb(feats[item], label, rep_increment=1.0 / spec.n_items)
        if selections[-1] == spec.target:
            break
    return tuple(selections)


def two_class_world(rng_seed=0, strength=100.0):
    """A separable two-class world: label-1 epochs are loud, label-0 quiet."""
    spec = SyntheticSpec(
        n_channels=4,
        n_samples=256,
        trials_per_class=6,
        seed=rng_seed,
        class_covs=(np.eye(4), np.diag([strength, 1.0, 1.0, 1.0])),
    )
    train = [demean(e) for e in generate_mi(spec)]
    model = mdm.fit(train, MI_RECIPE)
    return model


def oracle_source(target, n_items, strength=100.0, invert=False, seed=0):
    """Item epochs drawn from the loud class for the target, quiet otherwise."""

    def source(rep):
        epochs = {}
        for item in range(n_items):
            is_target = item == target
            if invert:
                is_target = not is_target
            rng = np.random.default_rng([seed, rep, item])
            data = rng.standard_normal((4, 256))
            if is_target:
                data[0] *= np.sqrt(strength)
            epochs[item] = demean(Epoch(data, fs=128.0))
        return epochs

    return source


class TestRunLevel:
    def test_oracle_solves_in_one_repetition(self):
        model = two_class_world()
        spec = LevelSpec(target=2, epoch_source=oracle_source(2, 5), n_items=5)
        result = run_level(spec, model, NON_ADAPTIVE)
        assert result.nrd == 1
        assert result.solved
        assert result.selections == (2,)

    def test_anti_oracle_runs_to_cap(self):
        model = two_class_world()
        spec = LevelSpec(
            target=0,
            epoch_source=oracle_source(0, 2, invert=True),
            n_items=2,
            max_repetitions=4,
        )
        result = run_level(spec, model, NON_ADAPTIVE)
        assert not result.solved
        assert result.nrd == 4
        assert all(sel == 1 for sel in result.selections)

    def test_unknown_mode_rejected(self):
        model = two_class_world()
        spec = LevelSpec(target=0, epoch_source=oracle_source(0, 3), n_items=3)
        with pytest.raises(ContractError):
            run_level(spec, model, "hybrid")

    def test_adaptive_mode_needs_fused_classifier(self):
        model = two_class_world()
        spec = LevelSpec(target=0, epoch_source=oracle_source(0, 3), n_items=3)
        with pytest.raises(ContractError):
            run_level(spec, model, ADAPTIVE)

    def test_determinism(self):
        config = SyntheticSessionConfig(n_items=4, n_levels=1, max_repetitions=4)
        generic = synthetic_generic_model(config)
        (level,) = make_level_specs(config, session_seed=5)
        r1 = run_level(level, FusedClassifier(generic=generic), ADAPTIVE)
        r2 = run_level(level, FusedClassifier(generic=generic), ADAPTIVE)
        assert r1 == r2

    def test_adaptive_level_featurizes_each_item_epoch_once(self, monkeypatch):
        """In both modes a level makes one featurize call per repetition
        played, on that repetition's n_items epochs, and featurizes no epoch
        twice."""
        config = SyntheticSessionConfig(n_items=4, n_levels=1, max_repetitions=4)
        generic = synthetic_generic_model(config)
        (level,) = make_level_specs(config, session_seed=3)
        stacks = []

        def counted(epochs, recipe):
            stacks.append(list(epochs))
            return featurize(epochs, recipe)

        monkeypatch.setattr(mdm, "featurize", counted)
        for clf, mode in ((FusedClassifier(generic=generic), ADAPTIVE), (generic, NON_ADAPTIVE)):
            stacks.clear()
            result = run_level(level, clf, mode)
            assert result.nrd > 1
            assert len(stacks) == result.nrd
            assert all(len(stack) == config.n_items for stack in stacks)
            featurized = [e for stack in stacks for e in stack]
            assert len({id(e) for e in featurized}) == len(featurized)

    def test_stacked_replay_matches_per_item_replay(self):
        """One featurize per repetition selects what featurizing each item
        epoch on its own selected, and a fused classifier absorbs the same
        bits, level after level."""
        config = SyntheticSessionConfig(n_items=5, n_levels=4, max_repetitions=4)
        generic = synthetic_generic_model(config)
        trained = simulator.calibrated_model(
            synthetic_training_run(config), config.shrinkage
        )
        for seed in (0, 1):
            levels = make_level_specs(config, session_seed=seed)
            stacked, oracle = (FusedClassifier(generic=generic, ramp=3) for _ in range(2))
            for level in levels:
                for clf, oracle_clf, mode in (
                    (stacked, oracle, ADAPTIVE),
                    (trained, trained, NON_ADAPTIVE),
                    (generic, generic, NON_ADAPTIVE),
                ):
                    result = run_level(level, clf, mode)
                    assert result.selections == per_item_selections(level, oracle_clf, mode)
            assert stacked.n_rep == oracle.n_rep > 0
            assert stacked.individual_counts == oracle.individual_counts
            for z in oracle.individual_means:
                np.testing.assert_array_equal(
                    stacked.individual_means[z].values, oracle.individual_means[z].values
                )

    def test_replay_selections_are_pinned(self):
        replayed = [
            [session, mode, [list(r.selections) for r in results]]
            for session, mode, results, _ in replay_sessions(
                SyntheticSessionConfig(), 0, 2, (ADAPTIVE, NON_ADAPTIVE)
            )
        ]
        digest = hashlib.sha256(json.dumps(replayed).encode()).hexdigest()
        assert digest == REPLAY_SHA256

    def test_replay_distances_are_pinned(self, monkeypatch):
        """The selections pin only each repetition's argmin; this pins the
        bits of every distance the replay adds up."""
        digest = hashlib.sha256()

        def recorded(totals, repetition):
            for item in sorted(repetition):
                digest.update(repetition[item].values.tobytes())
            return mdm.add_repetition(totals, repetition)

        monkeypatch.setattr(simulator, "add_repetition", recorded)
        list(replay_sessions(SyntheticSessionConfig(), 0, 2, (ADAPTIVE, NON_ADAPTIVE)))
        assert digest.hexdigest() == DISTANCES_SHA256

    def test_selections_match_cumulative_select(self):
        # weak response on item 1, nominal target 4: the level runs to its
        # cap and the selection changes along the way
        model = two_class_world()
        source = oracle_source(1, 5, strength=1.2, seed=0)
        spec = LevelSpec(
            target=4, epoch_source=source, n_items=5, max_repetitions=6
        )
        result = run_level(spec, model, NON_ADAPTIVE)
        assert result.nrd == 6 and len(set(result.selections)) > 1
        reps = [source(r) for r in range(result.nrd)]
        assert result.selections == tuple(
            mdm.cumulative_select(model, reps[:r]) for r in range(1, result.nrd + 1)
        )


class TestRunSession:
    def test_oracle_session_summary(self):
        model = two_class_world()
        levels = [
            LevelSpec(target=i % 3, epoch_source=oracle_source(i % 3, 3, seed=i), n_items=3)
            for i in range(12)
        ]
        results, summary = run_session(levels, model, NON_ADAPTIVE)
        assert len(results) == 12
        assert summary.nrds == tuple([1] * 12)
        assert summary.mean_nrd == 1.0
        assert summary.nrd_slope == pytest.approx(0.0, abs=1e-12)
        assert sum(r.solved for r in results) == 12

    def test_adaptive_state_matches_stream_replay(self):
        config = SyntheticSessionConfig(n_items=3, n_levels=2, max_repetitions=3)
        generic = synthetic_generic_model(config)
        levels = make_level_specs(config, session_seed=9)
        fused = FusedClassifier(generic=generic)
        results, _ = run_session(levels, fused, ADAPTIVE)

        replayed = FusedClassifier(generic=generic)
        for level, result in zip(levels, results):
            for rep in range(len(result.selections)):
                epochs = level.epoch_source(rep)
                for item in sorted(epochs):
                    label = 1 if item == level.target else 0
                    replayed.absorb(
                        feature(replayed, epochs[item]),
                        label,
                        rep_increment=1.0 / level.n_items,
                    )
        assert replayed.n_rep == fused.n_rep
        for z in fused.individual_means:
            np.testing.assert_array_equal(
                fused.individual_means[z].values,
                replayed.individual_means[z].values,
            )


class TestMakeLevelSpecs:
    def test_golden_bits(self):
        """One repetition of a level's epoch source is pinned bit for bit,
        so a refactor cannot silently change the replayed stream."""
        config = SyntheticSessionConfig(n_items=4, n_levels=2)
        epochs = make_level_specs(config, session_seed=3)[1].epoch_source(2)
        data = np.stack([epochs[item].data for item in sorted(epochs)])
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        assert digest == "12ce54216017a84c484565a0ca222c7499842756676c9e2b4aca44d05bc48c91"
        assert [epochs[item].label for item in sorted(epochs)] == [0, 1, 0, 0]

    def test_negative_session_seed_rejected(self):
        with pytest.raises(ContractError, match="session_seed"):
            make_level_specs(SyntheticSessionConfig(), session_seed=-1)


class TestCalibratedNrdDistribution:
    def test_most_levels_solved_within_three_repetitions(self):
        # full-size levels, subject-calibrated model, default difficulty
        config = SyntheticSessionConfig(n_items=36, n_levels=12)
        training = synthetic_training_run(config)
        from riemann_bci.features import P300, build_recipe

        recipe = build_recipe(P300, training=training, shrinkage=config.shrinkage)
        trained = mdm.fit(training, recipe)
        nrds = []
        for seed in range(4):
            levels = make_level_specs(config, session_seed=seed)
            _, summary = run_session(levels, trained, NON_ADAPTIVE)
            nrds += list(summary.nrds)
        within_three = np.mean(np.array(nrds) <= 3)
        assert within_three >= 0.90


class TestCompareModes:
    def test_ideal_data_gives_identical_nrd(self):
        # near-noiseless subject: every target epoch screams, so both modes
        # solve every level on the first repetition
        from dataclasses import replace

        config = SyntheticSessionConfig(n_items=3, n_levels=3)
        config = replace(config, subject=replace(config.subject, snr=500.0))
        generic = synthetic_generic_model(config)
        training = synthetic_training_run(config)
        levels = make_level_specs(config, session_seed=0)
        cmp = compare_modes(levels, generic, training)
        assert cmp.adaptive_summary.nrds == cmp.non_adaptive_summary.nrds == (1, 1, 1)

    def test_paired_row_counts(self):
        config = SyntheticSessionConfig(n_items=3, n_levels=4, max_repetitions=2)
        generic = synthetic_generic_model(config)
        training = synthetic_training_run(config)
        levels = make_level_specs(config, session_seed=1)
        cmp = compare_modes(levels, generic, training)
        assert len(cmp.adaptive_results) == 4
        assert len(cmp.non_adaptive_results) == 4

    def test_one_session_replays_as_replay_sessions(self):
        """compare_modes is one seed's pass of the replay_sessions protocol."""
        config = SyntheticSessionConfig(n_items=3, n_levels=3, max_repetitions=3)
        seed = 5
        cmp = compare_modes(
            make_level_specs(config, seed),
            synthetic_generic_model(config),
            synthetic_training_run(config),
            shrinkage=config.shrinkage,
            ramp=config.ramp,
        )
        replayed = list(replay_sessions(config, seed, 1, (ADAPTIVE, NON_ADAPTIVE)))
        paired = (
            (ADAPTIVE, cmp.adaptive_results, cmp.adaptive_summary),
            (NON_ADAPTIVE, cmp.non_adaptive_results, cmp.non_adaptive_summary),
        )
        assert [(s, m) for s, m, _, _ in replayed] == [(0, ADAPTIVE), (0, NON_ADAPTIVE)]
        for (mode, results, summary), (_, _, r_results, r_summary) in zip(paired, replayed):
            assert [(r.selections, r.mode, r.target) for r in results] == [
                (r.selections, r.mode, r.target) for r in r_results
            ]
            assert all(r.mode == mode for r in results)
            assert summary == r_summary

    def test_replay_builds_only_what_its_modes_use(self, monkeypatch):
        def no_generic(config):
            raise AssertionError("non-adaptive replay built the generic model")

        monkeypatch.setattr(simulator, "synthetic_generic_model", no_generic)
        config = SyntheticSessionConfig(n_items=3, n_levels=2, max_repetitions=2)
        replayed = list(replay_sessions(config, 0, 1, (NON_ADAPTIVE,)))
        assert len(replayed) == 1
        session, mode, results, summary = replayed[0]
        assert (session, mode, len(results)) == (0, NON_ADAPTIVE, 2)
        assert summary.nrds == tuple(r.nrd for r in results)

    @pytest.mark.parametrize(
        "seed, sessions, field", [(0, 0, "sessions"), (2, -1, "sessions"), (-1, 1, "seed")]
    )
    def test_bad_session_range_fails_before_any_model(self, monkeypatch, seed, sessions, field):
        def no_model(config):
            raise AssertionError("a bad session range built a model")

        monkeypatch.setattr(simulator, "synthetic_generic_model", no_model)
        monkeypatch.setattr(simulator, "synthetic_training_run", no_model)
        config = SyntheticSessionConfig()
        with pytest.raises(ContractError, match=f"{field} must"):
            next(replay_sessions(config, seed, sessions, (ADAPTIVE, NON_ADAPTIVE)))


class TestCsvOutput:
    def test_columns_and_rows(self, tmp_path):
        model = two_class_world()
        levels = [
            LevelSpec(target=1, epoch_source=oracle_source(1, 3), n_items=3)
        ]
        results, _ = run_session(levels, model, NON_ADAPTIVE)
        rows = session_rows(0, results)
        path = tmp_path / "session.csv"
        write_session_csv(path, rows)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == CSV_COLUMNS
            loaded = list(reader)
        assert len(loaded) == sum(len(r.selections) for r in results)
        assert loaded[0]["selected"] == "1"
        assert loaded[0]["target"] == "1"
        assert loaded[0]["nrd"] == "1"


class TestLevelSpecValidation:
    def test_target_in_range(self):
        with pytest.raises(ContractError):
            LevelSpec(target=9, epoch_source=oracle_source(0, 3), n_items=3)

    def test_needs_two_items(self):
        with pytest.raises(ContractError):
            LevelSpec(target=0, epoch_source=oracle_source(0, 1), n_items=1)
