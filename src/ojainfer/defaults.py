"""Defaults of the estimators that the command line's parser also shows.

This module imports nothing, so ``ojainfer.cli`` can build its parser, and
answer ``--help`` or a usage error, before numpy loads. ``oja``, ``varest``
and ``experiments`` re-export these names.
"""

# Step multiplier alpha of learning_rate wherever a caller does not set one.
DEFAULT_ALPHA = 2.0
# Groups in the reference experiments, in place of the ceil(8 ln(d/delta)) default.
PAPER_M1 = 3
# Failure probability that sets the default m1 and the boosted proxy's batch count.
DEFAULT_DELTA = 0.05
# Methods of a coverage run that names none.
DEFAULT_METHODS = ("ojavarest", "bootstrap:1", "bootstrap:20")
