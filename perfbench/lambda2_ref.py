#!/usr/bin/env python3
"""Derive the pinned second eigenvalues `workloads.LAMBDA2`.

    PYTHONPATH=src python3 perfbench/lambda2_ref.py

For each p in LAMBDA2, builds the adjacency matrix of the Cayley graph of
SL_2(F_p) for the dim2 tuple (n, l, a, b) = (2, 1, 2, 2) and asks scipy's
Lanczos solver (`eigsh`, tol 1e-12) for its two largest eigenvalues.  Only
the generators come from girthlab (`spec_generators` and `symmetrize`); the
group is enumerated here from the determinant condition, so the reference
does not depend on girthlab's BFS or power iteration.  Prints λ₂ next to
the pinned value and next to what `girthlab spectral` reports at seed 0.
Needs scipy, which the benchmark itself does not.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from girthlab import cayley, params, spectral

import workloads


def sl2(p):
    """All [[a, b], [c, d]] over F_p with ad - bc = 1, as rows (a, b, c, d)."""
    r = np.arange(p)
    inv = np.array([pow(int(x), -1, p) if x else 0 for x in r])
    # a != 0: any b, c; then d = (1 + bc) / a.
    a, b, c = (x.ravel() for x in np.meshgrid(r[1:], r, r, indexing="ij"))
    with_a = np.stack([a, b, c, (1 + b * c) * inv[a] % p], axis=1)
    # a = 0: b != 0, c = -1 / b, any d.
    b, d = (x.ravel() for x in np.meshgrid(r[1:], r, indexing="ij"))
    without_a = np.stack([np.zeros_like(b), b, (-inv[b]) % p, d], axis=1)
    return np.concatenate([with_a, without_a])


def lambda2(p):
    gens = cayley.symmetrize(cayley.spec_generators(params.validate(2, 1, 2, 2), p))
    elems = sl2(p)
    order = len(elems)
    assert order == p * (p * p - 1)
    weights = np.array([1, p, p * p, p**3])
    index = np.full(p**4, -1, dtype=np.int64)
    index[elems @ weights] = np.arange(order)
    mats = elems.reshape(order, 2, 2)
    rows, cols = [], []
    for g in gens:
        nbr = index[(mats @ np.array(g.entries)).reshape(order, 4) % p @ weights]
        assert (nbr >= 0).all()
        rows.append(np.arange(order))
        cols.append(nbr)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(order, order))
    assert abs(adj - adj.T).sum() == 0  # generators closed under inverse
    top = eigsh(adj, k=2, which="LA", tol=1e-12, return_eigenvectors=False)
    return float(min(top)), len(gens)


def main():
    for p, pinned in sorted(workloads.LAMBDA2.items()):
        ref, degree = lambda2(p)
        gens = cayley.spec_generators(params.validate(2, 1, 2, 2), p)
        power = spectral.second_eigenvalue(gens, seed=0).second_eigenvalue
        print(f"p={p} degree {degree}: eigsh λ₂ {ref!r} (pinned {pinned!r}); "
              f"power iteration at seed 0 {power!r}, {ref - power:.2e} below")


if __name__ == "__main__":
    main()
