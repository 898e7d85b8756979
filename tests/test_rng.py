import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clspool import rng as R
from clspool.data import synth_generate
from clspool.train import TrainConfig, kfold_split


class TestRngFor:
    @pytest.mark.parametrize("seed, stream, message", [
        (1.5, (), r"seed must be an integer, got 1\.5"),
        (True, (), "seed must be an integer, got True"),
        (np.float64(3.0), (), r"seed must be an integer, got \S*3\.0"),
        (-1, (), "seed must be >= 0, got -1"),
        (0, (1.5,), r"stream key must be an integer, got 1\.5"),
        (0, (R.INIT, False), "stream key must be an integer, got False"),
        (0, (-2,), "stream key must be >= 0, got -2"),
    ])
    def test_refuses_what_is_not_an_integer_at_least_0(self, seed, stream, message):
        with pytest.raises(ValueError, match=message):
            R.rng_for(seed, *stream)

    def test_numpy_integers_draw_what_python_integers_draw(self):
        want = R.rng_for(3, R.INIT, 2).random(4)
        got = R.rng_for(np.int64(3), np.int32(R.INIT), np.uint8(2)).random(4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("call", [
        lambda: synth_generate(6, seed=1.5),
        lambda: synth_generate(6, seed=True),
        lambda: kfold_split([0, 1, 0, 1], 2, seed=1.5),
    ], ids=["synth-float", "synth-bool", "kfold-float"])
    def test_callers_refuse_a_seed_that_is_not_an_integer(self, call):
        with pytest.raises(ValueError, match="seed must be an integer"):
            call()


def outcome(call):
    """What ``call`` returns, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as e:
        return f"ValueError: {e}"


# Small integers, Python and numpy; bools; floats, Python and numpy; numeric strings.
SEED_LIKE = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(np.int64), st.integers(0, 3).map(np.uint8),
    st.booleans(), st.booleans().map(np.bool_), st.floats(-3, 3), st.floats(-3, 3).map(np.float32),
    st.integers(-3, 3).map(str), st.floats(-3, 3).map(str))


class TestOneIntegerRule:
    @settings(max_examples=200, deadline=None)
    @given(SEED_LIKE)
    def test_every_seed_takes_one_rule(self, value):
        labels = [0, 1, 0, 1]
        config, gen, folds = (outcome(lambda: TrainConfig(seed=value)),
                              outcome(lambda: R.rng_for(value)),
                              outcome(lambda: kfold_split(labels, 2, seed=value)))
        refused = [isinstance(r, str) for r in (config, gen, folds)]
        assert len(set(refused)) == 1, (config, gen, folds)
        if refused[0]:
            assert config == gen == folds
        else:
            assert type(config.seed) is int
            assert R.rng_for(config.seed).random(3).tobytes() == gen.random(3).tobytes()

    @pytest.mark.parametrize("value, low, want", [
        (np.int8(-2), None, -2), (np.uint64(2**64 - 1), 0, 2**64 - 1), (5, 5, 5)])
    def test_check_integer_returns_a_python_int(self, value, low, want):
        got = R.check_integer("x", value, low)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("value, low, message", [
        (np.int64(-1), 0, "x must be >= 0, got -1"),
        (np.bool_(True), None, "x must be an integer, got np.True_"),
        (np.float32(2), 1, "x must be an integer, got np.float32(2.0)")])
    def test_check_integer_refuses(self, value, low, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            R.check_integer("x", value, low)


class TestOneNumberRule:
    @pytest.mark.parametrize("value, kind", [
        (np.float32(0.5), float), (np.float64(0.25), float), (np.longdouble(0.5), float),
        (np.int16(3), int), (3, int), (0.1, float)])
    def test_returns_the_python_value(self, value, kind):
        got = R.check_number("x", value)
        assert type(got) is kind and got == value

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.1", None, 1j])
    def test_refuses_what_is_not_a_number(self, value):
        with pytest.raises(ValueError, match="^x must be a number, got "):
            R.check_number("x", value)


class TestKFoldRefusesABadFoldCount:
    @pytest.mark.parametrize("folds, message", [
        (-1, "folds must be >= 2, got -1"), (0, "folds must be >= 2, got 0"),
        (1, "folds must be >= 2, got 1"), (2.0, "folds must be an integer, got 2.0"),
        (True, "folds must be an integer, got True")])
    def test_refused(self, folds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kfold_split([0, 1, 0, 1, 0, 1], folds, 0)
