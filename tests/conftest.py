"""Shared pytest wiring: the (2,3) stack and the acceptance scorecard.

The (2,3) algebra, its block system, realization and functional layer
are built once per session and imported by the test modules that need
them, so their caches (ideal bases, generator and monomial matrices)
are filled once.  The realization keeps no block realization: each
`block_realization` call builds one afresh.  The two heaviest check
sweeps are memoised here too: the idempotent and block checks and each
block's shape checks (`verify_block_shape`) run once, whichever test
asks first.  A test that times its work builds fresh objects for it
instead.
"""

from functools import lru_cache

from qpair.algebra import Algebra
from qpair.functionals import Functionals
from qpair.ideals import BlockSystem
from qpair.realization import Realization

ACCEPTANCE_LINES: list = []

A23 = Algebra.for_pair(2, 3)
B23 = BlockSystem(A23)
R23 = Realization(B23)
F23 = Functionals(R23)


@lru_cache(maxsize=None)
def decomposition_checks() -> tuple:
    """`B23.verify_idempotents()` then `B23.verify_blocks()`, computed once."""
    return tuple(B23.verify_idempotents() + B23.verify_blocks())


@lru_cache(maxsize=None)
def block_shape_checks(label) -> tuple:
    """`R23.verify_block_shape(label)`, every matrix row of the block,
    computed once per block."""
    return tuple(R23.verify_block_shape(label))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
