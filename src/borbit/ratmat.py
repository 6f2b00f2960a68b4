"""A placeholder: every layer computes in integers, and no library code
uses rational matrices.  The benchmark's tracer imports this name and
wraps its product and rank only where they exist; the file goes with
ROADMAP item 10.
"""


class RationalMatrix:
    """Empty: kept only for the name the benchmark's tracer imports."""
