"""Row classes from one byte-string key per row, for ``toriccode`` and ``qcdcode``."""

import numpy as np


def class_ids(rows: np.ndarray, n: int) -> np.ndarray:
    """Class id of each row (entries in [0, n)): the rank of the row among
    the distinct rows in lexicographic order, as ``np.unique(axis=0)``
    numbers them.  Each row is read as one void key of big-endian unsigned
    digits, whose byte order is that lexicographic order, so one 1-D
    ``np.unique`` does the grouping.  Rows of no entries form one class."""
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype=np.intp)
    digits = np.ascontiguousarray(rows, dtype=np.min_scalar_type(n - 1).newbyteorder(">"))
    key = np.dtype((np.void, digits.itemsize * digits.shape[1]))
    return np.unique(digits.view(key).reshape(-1), return_inverse=True)[1]
