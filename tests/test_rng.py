import numpy as np
import pytest

from clspool import rng as R
from clspool.data import synth_generate
from clspool.train import kfold_split


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
