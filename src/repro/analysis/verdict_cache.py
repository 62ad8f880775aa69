"""There is no verdict cache; :func:`enabled` is always False.

This module exists only because the benchmark harness
(``benchmarks/harness/child.py``, ``_resolved_defaults``) records
``enabled()`` in its run defaults. Delete it together with that read.
"""


def enabled() -> bool:
    return False
