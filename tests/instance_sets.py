"""Test-side helper: stack one-pair instances into one set, keeping each pair's draws."""

import numpy as np

from tsvalue.forecaster import ForecastInstance


def stack(instances) -> ForecastInstance:
    """One set holding the rows of every given set, in order."""
    instances = list(instances)
    return ForecastInstance(np.concatenate([i.input for i in instances]),
                            np.concatenate([i.target for i in instances]))
