"""Small dense exact linear algebra over Z/pZ (internal).

Matrices here are lists of row lists.  One routine, row_reduce, does
every Gaussian elimination in the package: determinants and kernel
vectors here, and the inverse and the minimal polynomial in
SpecialLinear.  Sizes stay tiny (n <= a few dozen), so clarity beats
asymptotics.
"""

from __future__ import annotations

from .field import PrimeField


def row_reduce(rows, field: PrimeField, width: int | None = None,
               jordan: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Row echelon form of a copy of `rows`; returns (m, pivots, det).

    Each of the first `width` columns (all of them by default) is
    pivoted on its first nonzero entry at or below the current rank
    row.  `pivots` lists the pivot columns, so the first len(pivots)
    rows of m are the pivot rows.  With `jordan` a back-substitution
    pass then scales the pivot rows to 1 and clears above each pivot,
    giving the reduced echelon form.  `det` is the product of the
    pivots times the sign of the row swaps, 0 once a column has no
    pivot: the determinant when the first `width` columns form a square
    matrix.
    """
    p = field.p
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    if width is None:
        width = ncols
    pivots: list[int] = []
    det = 1
    rank = 0
    for col in range(width):
        for r in range(rank, nrows):
            if m[r][col]:
                break
        else:
            det = 0
            continue
        if r != rank:
            m[rank], m[r] = m[r], m[rank]
            det = -det
        row_k = m[rank]
        pivot = row_k[col]
        det = (det * pivot) % p
        inv_pivot = field.inv(pivot)
        for r in range(rank + 1, nrows):
            row_r = m[r]
            factor = (row_r[col] * inv_pivot) % p
            if factor:
                for c in range(col, ncols):
                    row_r[c] = (row_r[c] - factor * row_k[c]) % p
        pivots.append(col)
        rank += 1
    if jordan:
        for k in reversed(range(rank)):
            col = pivots[k]
            inv_pivot = field.inv(m[k][col])
            row_k = m[k] = [(x * inv_pivot) % p for x in m[k]]
            for row_r in m[:k]:
                factor = row_r[col]
                if factor:
                    for c in range(col, ncols):
                        row_r[c] = (row_r[c] - factor * row_k[c]) % p
    return m, pivots, det


def det_mod(rows: list[list[int]], field: PrimeField) -> int:
    """Determinant of a square matrix."""
    return row_reduce(rows, field)[2]


def nullspace_vector(rows, field: PrimeField) -> list[int] | None:
    """One kernel vector, deterministically chosen, or None when the
    columns are independent.

    From the reduced echelon form the first free variable is set to 1
    and the other free variables to 0; the pivot variables follow.
    """
    m, pivots, _ = row_reduce(rows, field, jordan=True)
    ncols = len(m[0]) if m else 0
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for row, c in zip(m, pivots):
        vec[c] = (-row[free]) % field.p
    return vec
