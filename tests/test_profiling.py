"""Unit tests for the profiler, profile database and COP predictor."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import get_model
from repro.ops.costmodel import CostModel, HardwareSpec
from repro.ops.operator import OperatorProfile, OperatorSpec
from repro.profiling import (
    ConfigSpace,
    GroundTruthExecutor,
    LatencyPredictor,
    OperatorProfiler,
    ProfileDatabase,
)
from repro.profiling.database import ProfileLookupError, _interpolate

from tests.cop_golden import GOLDEN_COP_PATH, cop_profile_digests


class TestProfileDatabase:
    def _profile(self, p, t, batch=1, cpu=1, gpu=0):
        return OperatorProfile("MatMul", p, batch, cpu, gpu, t)

    def test_insert_and_exact_lookup(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        assert db.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.01)

    def test_lookup_unknown_operator(self):
        db = ProfileDatabase()
        with pytest.raises(ProfileLookupError):
            db.lookup("Conv2D", 1.0, 1, 1, 0)

    def test_lookup_unprofiled_config(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        with pytest.raises(ProfileLookupError):
            db.lookup("MatMul", 1.0, 8, 4, 50)

    def test_interpolates_between_sizes(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1.5, 1, 1, 0) == pytest.approx(0.015)

    def test_extrapolates_beyond_range(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 4.0, 1, 1, 0) == pytest.approx(0.040)

    def test_extrapolation_clamped_positive(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1e-9, 1, 1, 0) > 0

    def test_single_sample_scales_proportionally(self):
        db = ProfileDatabase()
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.010)

    def test_has_config(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        assert db.has_config("MatMul", 1, 1, 0)
        assert not db.has_config("MatMul", 2, 1, 0)

    def test_len_counts_inserts(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        db.insert(self._profile(2.0, 0.02))
        assert len(db) == 2

    def test_json_roundtrip(self, tmp_path, predictor):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        db.insert(self._profile(2.0, 0.02, batch=4, cpu=2, gpu=20))
        path = tmp_path / "profiles.json"
        db.to_json(path)
        restored = ProfileDatabase.from_json(path)
        assert restored.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.01)
        assert restored.lookup("MatMul", 2.0, 4, 2, 20) == pytest.approx(0.02)
        # The full default database: every series and the count survive.
        full = predictor.database
        full.to_json(path)
        restored = ProfileDatabase.from_json(path)
        assert len(restored) == len(full)
        assert _series(restored) == _series(full)
        restored.to_json(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_from_json_sorts_and_validates(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"MatMul": {"1,1,0": [[2.0, 0.02], [1.0, 0.01]]}}))
        assert _series(ProfileDatabase.from_json(path)) == {
            ("MatMul", (1, 1, 0)): [(1.0, 0.01), (2.0, 0.02)]
        }
        path.write_text(json.dumps({"MatMul": {"1,1,0": [[1.0, 0.0]]}}))
        with pytest.raises(ValueError):
            ProfileDatabase.from_json(path)
        path.write_text(json.dumps({"MatMul": {"0,1,0": [[1.0, 0.01]]}}))
        with pytest.raises(ValueError):
            ProfileDatabase.from_json(path)

    def test_load_sorted_merges_like_insert(self):
        inserted, loaded = ProfileDatabase(), ProfileDatabase()
        points = [(1.0, 0.03), (0.5, 0.01), (1.0, 0.02), (2.0, 0.05)]
        for size, time_s in points:
            inserted.insert(self._profile(size, time_s))
        loaded.load_sorted("MatMul", {(1, 1, 0): sorted(points[:2])})
        loaded.load_sorted("MatMul", {(1, 1, 0): sorted(points[2:])})
        assert _series(loaded) == _series(inserted)
        assert len(loaded) == len(inserted) == 4

    @given(
        sizes=st.lists(
            st.floats(0.01, 10.0), min_size=2, max_size=8, unique=True
        ),
        query=st.floats(0.01, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_monotone_for_monotone_series(self, sizes, query):
        series = sorted((s, s * 2.0) for s in sizes)
        value = _interpolate(series, query)
        assert value == pytest.approx(max(1e-9, query * 2.0), rel=1e-6)


def _series(db):
    """Every stored series, keyed by ``(operator, config)``."""
    return {
        (operator, key): list(db._store[operator][key])
        for operator in db.operators
        for key in db.configs_for(operator)
    }


def _reference_database(operators, hardware, space, input_sizes, repetitions, seed):
    """Point-by-point profiling: one ``operator_time`` and ``repetitions``
    scalar ``sample_time`` draws per grid point, in catalog-loop order.

    Returns the database and the generator, for the draw that follows.
    """
    cost_model = CostModel(hardware)
    rng = np.random.default_rng(seed)
    db = ProfileDatabase()
    for operator in operators:
        for config in space.all_configs():
            for input_size in input_sizes:
                spec = OperatorSpec(kind_name=operator, gflops_per_item=input_size)
                mean = cost_model.operator_time(spec, config.batch, config.cpu, config.gpu)
                samples = [cost_model.sample_time(mean, rng) for _ in range(repetitions)]
                db.insert(
                    OperatorProfile(
                        operator, input_size, config.batch, config.cpu, config.gpu,
                        float(np.mean(samples)),
                    )
                )
    return db, rng


SMALL_SPACE = ConfigSpace(cpu_choices=(1, 4, 8), gpu_choices=(0, 20, 50, 100), max_batch=8)
DIFFERENTIAL_CASES = {
    # np.mean sums pairwise from 8 repetitions up.
    "one-rep": dict(repetitions=1),
    "three-reps": dict(repetitions=3),
    "ten-reps": dict(repetitions=10),
    "fifty-reps": dict(repetitions=50),
    "noiseless": dict(hardware=HardwareSpec(noise_sigma=0.0)),
    "cpu-only": dict(space=ConfigSpace(cpu_choices=(1, 2, 4, 8), gpu_choices=(0,))),
    "unsorted-duplicate-sizes": dict(input_sizes=(1.0, 0.01, 1, 30, 0.01, 1e-5)),
    "t4-rate": dict(hardware=HardwareSpec(gpu_total_gflops=0.6 * HardwareSpec().gpu_total_gflops)),
}


class TestProfilerMatchesPointByPoint:
    # Relu/Add/MaxPool are memory-bound; MatMul/Conv2D/LSTMCell are not.
    OPERATORS = ["Relu", "MatMul", "Add", "Conv2D", "MaxPool", "LSTMCell"]

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_build_database_equals_reference(self, case, tmp_path):
        params = dict(
            hardware=HardwareSpec(), space=SMALL_SPACE,
            input_sizes=(1e-5, 1e-3, 0.1, 1.0, 10.0), repetitions=3,
        )
        params.update(DIFFERENTIAL_CASES[case])
        expected, rng = _reference_database(self.OPERATORS, seed=5, **params)
        profiler = OperatorProfiler(
            hardware=params["hardware"], config_space=params["space"],
            input_sizes=params["input_sizes"], repetitions=params["repetitions"], seed=5,
        )
        db = profiler.build_database(self.OPERATORS)
        assert len(db) == len(expected)
        assert _series(db) == _series(expected)
        db.to_json(tmp_path / "db.json")
        expected.to_json(tmp_path / "expected.json")
        assert (tmp_path / "db.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        # The generator is left where point-by-point measuring leaves it.
        cost_model = CostModel(params["hardware"])
        mean = cost_model.operator_time(OperatorSpec("Gelu", gflops_per_item=0.5), 4, 2, 30)
        samples = [cost_model.sample_time(mean, rng) for _ in range(params["repetitions"])]
        assert profiler.measure("Gelu", 0.5, 4, 2, 30).time_s == float(np.mean(samples))

    def test_profile_operator_equals_reference(self):
        expected, _ = _reference_database(
            ["Softmax"], HardwareSpec(), SMALL_SPACE, (0.1, 1.0), 3, seed=9
        )
        profiles = OperatorProfiler(
            config_space=SMALL_SPACE, input_sizes=(0.1, 1.0), seed=9
        ).profile_operator("Softmax")
        db = ProfileDatabase()
        for profile in profiles:
            db.insert(profile)
        assert _series(db) == _series(expected)

    def test_unknown_operator_raises_before_any_draw(self):
        profiler = OperatorProfiler(config_space=SMALL_SPACE, input_sizes=(1.0,), seed=3)
        with pytest.raises(KeyError):
            profiler.build_database(["MatMul", "NoSuchOperator"])
        fresh = OperatorProfiler(config_space=SMALL_SPACE, input_sizes=(1.0,), seed=3)
        assert _series(profiler.build_database(["MatMul"])) == _series(
            fresh.build_database(["MatMul"])
        )

    def test_default_builds_match_golden_digests(self):
        golden = json.loads(GOLDEN_COP_PATH.read_text())
        assert cop_profile_digests() == golden, (
            "the default COP profiles diverged -- a change altered profiling"
            " arithmetic or its noise stream; regenerate with"
            " `PYTHONPATH=src python -m tests.cop_golden --write` only if"
            " that change is deliberate"
        )


class TestOperatorProfiler:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            OperatorProfiler(repetitions=0)

    def test_profile_operator_covers_grid(self):
        space = ConfigSpace(cpu_choices=(1,), gpu_choices=(0, 10), max_batch=2)
        profiler = OperatorProfiler(
            config_space=space, input_sizes=(0.1, 1.0), repetitions=1
        )
        profiles = profiler.profile_operator("MatMul")
        assert len(profiles) == space.size() * 2

    def test_build_database_subset(self):
        space = ConfigSpace(cpu_choices=(1,), gpu_choices=(0,), max_batch=1)
        profiler = OperatorProfiler(
            config_space=space, input_sizes=(1.0,), repetitions=1
        )
        db = profiler.build_database(operators=["MatMul", "Relu"])
        assert db.operators == ["MatMul", "Relu"]

    def test_build_database_empty_operator_list_is_empty(self):
        profiler = OperatorProfiler(input_sizes=(1.0,), repetitions=1)
        db = profiler.build_database(operators=[])
        assert len(db) == 0
        assert db.operators == []

    def test_measurements_average_toward_truth(self):
        profiler = OperatorProfiler(repetitions=50, seed=1)
        profile = profiler.measure("MatMul", 1.0, 4, 2, 20)
        truth = profiler.cost_model.operator_time(
            __import__("repro.ops.operator", fromlist=["OperatorSpec"]).OperatorSpec(
                "MatMul", gflops_per_item=1.0
            ),
            4,
            2,
            20,
        )
        assert profile.time_s == pytest.approx(truth, rel=0.05)


class TestLatencyPredictor:
    def test_prediction_within_paper_band(self, predictor, executor):
        """Fig. 8: mean COP error stays under ~10% per model."""
        for name in ("resnet-50", "mobilenet", "lstm-2365"):
            model = get_model(name)
            errors = []
            for batch in (1, 4, 8):
                for cpu, gpu in ((1, 0), (2, 20), (4, 50)):
                    predicted = predictor.predict_raw(model, batch, cpu, gpu)
                    actual = executor.mean_execution_time(model, batch, cpu, gpu)
                    errors.append(abs(predicted - actual) / actual)
            assert np.mean(errors) < 0.12, name

    def test_lstm_error_highest_of_fig8_trio(self, predictor, executor):
        """Fig. 8: the branchy LSTM has the worst prediction error."""
        means = {}
        for name in ("resnet-50", "mobilenet", "lstm-2365"):
            model = get_model(name)
            errors = []
            for batch in (1, 2, 4, 8):
                for cpu, gpu in ((1, 0), (2, 0), (2, 20), (4, 50)):
                    predicted = predictor.predict_raw(model, batch, cpu, gpu)
                    actual = executor.mean_execution_time(model, batch, cpu, gpu)
                    errors.append(abs(predicted - actual) / actual)
            means[name] = np.mean(errors)
        assert means["lstm-2365"] == max(means.values())

    def test_safety_offset_applied(self, predictor):
        model = get_model("resnet-50")
        raw = predictor.predict_raw(model, 4, 2, 20)
        assert predictor.predict(model, 4, 2, 20) == pytest.approx(1.10 * raw)

    def test_offset_below_one_rejected(self, predictor):
        with pytest.raises(ValueError):
            LatencyPredictor(predictor.database, safety_offset=0.9)

    def test_predict_accepts_model_name(self, predictor):
        by_name = predictor.predict("resnet-50", 4, 2, 20)
        by_spec = predictor.predict(get_model("resnet-50"), 4, 2, 20)
        assert by_name == by_spec

    def test_predictions_cached(self, predictor):
        predictor.predict("mnist", 2, 1, 0)
        assert ("mnist", 2, 1, 0) in predictor._cache

    def test_prediction_error_helper(self, predictor):
        model = get_model("mnist")
        raw = predictor.predict_raw(model, 1, 1, 0)
        assert predictor.prediction_error(model, 1, 1, 0, raw) == pytest.approx(0.0)

    def test_prediction_error_rejects_bad_actual(self, predictor):
        with pytest.raises(ValueError):
            predictor.prediction_error("mnist", 1, 1, 0, 0.0)

    def test_predicts_more_time_for_less_gpu(self, predictor):
        model = get_model("resnet-50")
        assert predictor.predict(model, 8, 2, 10) > predictor.predict(model, 8, 2, 50)
