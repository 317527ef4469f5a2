"""The pair walk (``boundary.pair_blocks``) read back as configuration
codes, for the tests that hold it against the scalar and float rules."""

import numpy as np

from qfcert.boundary import pair_blocks
from qfcert.check import PAIR_CONFIGS, PairConfig

DEGENERATE = PAIR_CONFIGS.index(PairConfig.DEGENERATE)


def block_codes(linked: np.ndarray, misaligned: np.ndarray) -> np.ndarray:
    """One block's grids as int8 indices into PAIR_CONFIGS: DEGENERATE
    where both hold, else 1 + misaligned - linked."""
    return np.where(linked & misaligned, np.int8(DEGENERATE),
                    np.int8(1) + misaligned - linked)


def walk_codes(alpha: np.ndarray, beta: np.ndarray | None = None) -> np.ndarray:
    """The codes of every row of alpha against every row of beta (of
    alpha against itself when beta is None): the walk's blocks of the
    table alpha then beta, concatenated, cut to alpha's rows and beta's
    columns."""
    table = alpha if beta is None else np.concatenate([alpha, beta])
    grid = np.concatenate([np.zeros((0, len(table)), np.int8), *(
        block_codes(linked, misaligned)
        for _, _, linked, misaligned in pair_blocks(table, False))])
    return grid if beta is None else grid[:len(alpha), len(alpha):]
