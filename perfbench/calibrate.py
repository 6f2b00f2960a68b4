"""The calibration command: a fresh interpreter that imports the standard
library modules ``borbit`` uses and runs a fixed pure-Python loop over
permutation tuples.  Its wall time, measured from outside as for a CLI
command, tracks the speed a command gets at the same moment: startup and
import work as well as computation.  It imports nothing from ``borbit``,
so a change to the program never moves it.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401
import itertools
import json  # noqa: F401
import typing  # noqa: F401

inversions = 0
for p in itertools.permutations(range(8)):
    inversions += sum(1 for i in range(7) if p[i] > p[i + 1])
