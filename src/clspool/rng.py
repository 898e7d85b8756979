"""Seedable, splittable random number generation.

A single master seed owns every stochastic choice in a run. Each kind of
draw (parameter init, dropout, batch shuffling, folds, ...) gets its own
generator derived from the master seed plus an integer stream key, so
adding draws of one kind never perturbs another kind. Within a stream a
component may split its generator further: ``PooledClassifier.__init__``
spawns three children of its ``INIT`` generator, one each for the
encoder, the pooling head and the classifier, so models built from one
seed start from the same encoder and classifier whatever their head. The
module also holds the one integer rule and the one number rule for every
seed, count and setting.
"""

import numbers

import numpy as np


def check_integer(name, value, low=None):
    """Return ``value`` as a Python int: a Python or numpy integer (a bool is not one),
    at least ``low`` when ``low`` is given. Anything else raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_number(name, value):
    """Return ``value`` as a Python int or float: as ``check_integer``, but a float passes."""
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return int(value)


def rng_for(seed, *stream):
    """Generator for a named stream under a master seed.

    ``stream`` holds small integers naming the component, e.g. ``rng_for(seed, DROPOUT, run)``.
    The seed and each key must be an integer >= 0, or ValueError is raised: no seed is truncated.
    """
    seed = check_integer("seed", seed, 0)
    stream = tuple(check_integer("stream key", s, 0) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=stream))


# Stream keys, one per stochastic component.
INIT = 0
DROPOUT = 1
SHUFFLE = 2
FOLDS = 3
SYNTH = 4
