"""Seedable, splittable random number generation.

A single master seed owns every stochastic choice in a run. Each kind of
draw (parameter init, dropout, batch shuffling, folds, ...) gets its own
generator derived from the master seed plus an integer stream key, so
adding draws of one kind never perturbs another kind. Within a stream a
component may split its generator further: ``PooledClassifier.__init__``
spawns three children of its ``INIT`` generator, one each for the
encoder, the pooling head and the classifier, so models built from one
seed start from the same encoder and classifier whatever their head.
"""

import numbers

import numpy as np


def check_integer(name, value):
    """Raise ValueError unless ``value`` is an integer, a Python or a numpy one;
    a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def rng_for(seed, *stream):
    """Generator for a named stream under a master seed.

    ``stream`` is a tuple of small integers identifying the component,
    e.g. ``rng_for(seed, DROPOUT, run)``. The seed and each stream key
    must be an integer >= 0; anything else raises ValueError, so no seed
    is truncated.
    """
    for name, value in (("seed", seed), *(("stream key", s) for s in stream)):
        check_integer(name, value)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(ss)


# Stream keys, one per stochastic component.
INIT = 0
DROPOUT = 1
SHUFFLE = 2
FOLDS = 3
SYNTH = 4
