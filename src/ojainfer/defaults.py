"""Defaults that the command line's parser and the library's signatures share, each named once.

Both read these names, so a default changes in one line. This module imports
nothing, so ``ojainfer.cli`` can build its parser, and answer ``--help`` or a
usage error, before numpy loads.
"""

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
