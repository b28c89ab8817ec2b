"""Defaults and validity rules that the command line's parser and the library share, each written once.

Both read these names, so a default or a rule changes in one line. A rule raises ValueError
naming the value and the name it is given (NaN fails every rule): the flag ``--alpha`` in the
parser, the parameter ``alpha`` in the library. This module imports only ``math``, so
``ojainfer.cli`` can answer ``--help``, a usage error or a value out of range before numpy loads.
"""

import math

# Step multiplier alpha of learning_rate wherever a caller does not set one.
DEFAULT_ALPHA = 2.0
# Groups in the reference experiments, in place of the ceil(8 ln(d/delta)) default.
PAPER_M1 = 3
# Failure probability that sets the default m1 and the boosted proxy's batch count.
DEFAULT_DELTA = 0.05
# Methods of a coverage run that names none.
DEFAULT_METHODS = ("ojavarest", "bootstrap:1", "bootstrap:20")
# The synthetic family's scale decay beta, correlation decay c and magnitude (synth.build_sigma).
DEFAULT_BETA = 1.0
DEFAULT_C = 0.01
DEFAULT_SCALE = 5.0
# A coverage run's level and tracked 1-based coordinates; the bootstrap multipliers' law.
DEFAULT_LEVEL = 0.95
DEFAULT_TRACKED = (1, 2)
DEFAULT_LAW = "exponential"



def require_positive(name: str, value: float) -> None:
    """Refuse a value that is not positive and finite: a gap, a step, a kernel decay."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite (got {value})")


def require_open_unit(name: str, value: float) -> None:
    """Refuse a value outside (0, 1): a confidence level, a failure probability."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1) (got {value})")


def require_above_one(name: str, value: float) -> None:
    """Refuse a value that is not finite and above 1: the step multiplier alpha."""
    if not 1.0 < value < math.inf:
        raise ValueError(f"{name} must exceed 1 and be finite (got {value})")


def require_at_least(name: str, value: float, k: int) -> None:
    """Refuse a count below k: samples, groups, replicas, draws, trials."""
    if not value >= k:
        raise ValueError(f"{name} must be at least {k} (got {value})")
