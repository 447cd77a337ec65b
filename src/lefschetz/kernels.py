"""Integer echelon kernels backing the exact linear algebra layer.

Rows are sparse ``{column: value}`` mappings with nonzero integer values.
``rref_int`` produces primitive, fully reduced rows; ``det_bareiss`` is a
fraction-free determinant.  A dense code path takes over when the input is
more than half full, where per-entry dict bookkeeping costs more than the
zeros it skips.
"""

from math import gcd

BACKEND = "python"  # the only implementation; benchmark runs record it

DENSE_FILL_CUTOFF = 0.5


def _content(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _primitive(row):
    # divide by the content, keep the leading entry positive
    g = _content(row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row, piv, col):
    # am*row - bm*piv, scaled so the entry at ``col`` cancels
    a = piv[col]
    b = row[col]
    g = gcd(a, b)
    am = a // g
    bm = b // g
    out = dict(row) if am == 1 else {c: am * v for c, v in row.items()}
    for c, v in piv.items():
        w = out.get(c, 0) - bm * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return out


def _rref_sparse(rows):
    pivots = {}
    for src in rows:
        row = dict(src)
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive(row)
                break
            row = _eliminate(row, piv, lead)
            if row:
                row = _primitive(row)
    cols = sorted(pivots)
    out = [pivots[c] for c in cols]
    for j in range(len(out) - 1, -1, -1):
        row = out[j]
        for k in range(j + 1, len(out)):
            c = cols[k]
            if c in row:
                row = _eliminate(row, out[k], c)
        out[j] = _primitive(row)
    return out, cols


def _dense_primitive(row, lead, ncols):
    g = 0
    for i in range(lead, ncols):
        v = row[i]
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if row[lead] < 0:
        g = -g
    if g != 1:
        for i in range(lead, ncols):
            if row[i]:
                row[i] //= g


def _rref_dense(rows, ncols):
    placed = []  # (lead column, row), insertion order
    pivot_of = [-1] * ncols
    for row in rows:
        lead = -1
        for i in range(ncols):
            if row[i]:
                lead = i
                break
        while lead >= 0:
            pi = pivot_of[lead]
            if pi < 0:
                _dense_primitive(row, lead, ncols)
                pivot_of[lead] = len(placed)
                placed.append((lead, row))
                break
            prow = placed[pi][1]
            a = prow[lead]
            b = row[lead]
            g = gcd(a, b)
            am = a // g
            bm = b // g
            if am == 1:
                for i in range(lead, ncols):
                    row[i] -= bm * prow[i]
            else:
                for i in range(lead, ncols):
                    row[i] = am * row[i] - bm * prow[i]
            nxt = -1
            for i in range(lead + 1, ncols):
                if row[i]:
                    nxt = i
                    break
            if nxt >= 0:
                _dense_primitive(row, nxt, ncols)
            lead = nxt
    placed.sort(key=lambda item: item[0])
    for j in range(len(placed) - 1, -1, -1):
        lead_j, rj = placed[j]
        for k in range(j + 1, len(placed)):
            lead_k, rk = placed[k]
            b = rj[lead_k]
            if b:
                a = rk[lead_k]
                g = gcd(a, b)
                am = a // g
                bm = b // g
                if am != 1:
                    for i in range(lead_j, ncols):
                        rj[i] *= am
                for i in range(lead_k, ncols):
                    rj[i] -= bm * rk[i]
        _dense_primitive(rj, lead_j, ncols)
    out = []
    cols = []
    for lead, row in placed:
        cols.append(lead)
        out.append({i: row[i] for i in range(lead, ncols) if row[i]})
    return out, cols


def rref_int(rows, ncols):
    """Reduced echelon form of sparse integer rows.

    Returns ``(pivot_rows, pivot_columns)`` with ``pivot_columns`` strictly
    increasing.  ``pivot_rows[i]`` is a primitive integer row whose entry at
    ``pivot_columns[i]`` is positive and whose entries at every other pivot
    column vanish; dividing each row by its pivot entry therefore recovers
    the rational reduced echelon form.
    """
    if ncols <= 0 or not rows:
        return [], []
    nnz = 0
    for r in rows:
        nnz += len(r)
    if nnz > DENSE_FILL_CUTOFF * len(rows) * ncols:
        dense = []
        for r in rows:
            row = [0] * ncols
            for c, v in r.items():
                row[c] = v
            dense.append(row)
        return _rref_dense(dense, ncols)
    return _rref_sparse(rows)


def det_bareiss(mat):
    """Exact determinant of a square integer matrix given as row lists."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        pkk = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pkk - mik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]
