"""Reference computations that flowal's outputs are checked against.

Each function here follows the definition in flowal's README and module
docstrings, written apart from the library's own code:

* natural-log entropy with 0 ln 0 = 0, summed exactly (``math.fsum``) so
  that two rows holding the same probabilities in a different class order
  score exactly the same;
* margin as the gap between the two largest probabilities;
* vote entropy of the committee's hard votes (argmax, lowest class first);
* mean KL(member || consensus), exactly 0 where every member is identical;
* information density in its quadratic form, the row mean of
  (1 + cos) / 2 over the pool, computed in row blocks;
* batch order: best score first, equal scores by lowest pool index.

It also holds the half-up budget rounding and the nearest-rank percentile
helpers the benchmark reports with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

# the tail percentile is the highest rung with at least TAIL_BEYOND samples
# strictly above its nearest-rank position
TAIL_LADDER = ("50", "90", "99", "99.9")
TAIL_BEYOND = 10


def round_half_up(fraction, n: int) -> int:
    """Half-up rounding of ``fraction * n``, exact for a decimal ``fraction``.

    ``fraction`` is parsed from its decimal text, so 0.005 * 9100 is exactly
    45.5 and rounds to 46, however the binary float of 0.005 falls.
    """
    x = Fraction(str(fraction)) * n
    return math.floor(x + Fraction(1, 2))


def nearest_rank(p, n: int) -> int:
    """1-based nearest-rank position of percentile ``p`` among ``n`` values."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> str:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n - nearest_rank(p, n) >= TAIL_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{TAIL_BEYOND} samples beyond it")
    return best


def percentile(values: Sequence[float], p) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[nearest_rank(p, ordered.size) - 1])


def entropy_rows(P) -> np.ndarray:
    """-sum p ln p per row, exactly summed, independent of class order."""
    P = np.asarray(P, dtype=np.float64)
    out = np.empty(P.shape[0])
    for i, row in enumerate(P):
        out[i] = -math.fsum(p * math.log(p) for p in row if p > 0)
    return out


def margin_rows(P) -> np.ndarray:
    """Largest minus second-largest probability per row."""
    top = np.sort(np.asarray(P, dtype=np.float64), axis=1)
    return top[:, -1] - top[:, -2]


def vote_entropy_rows(member_probs) -> np.ndarray:
    """Entropy of hard-vote fractions; ``member_probs`` is (C, m, n_classes)."""
    M = np.asarray(member_probs, dtype=np.float64)
    votes = M.argmax(axis=2)  # first maximum: lowest class index
    n_members, m, n_classes = M.shape
    counts = np.zeros((m, n_classes))
    for member_votes in votes:
        counts[np.arange(m), member_votes] += 1
    return entropy_rows(counts / n_members)


def kl_rows(member_probs) -> np.ndarray:
    """Mean KL divergence of each member from the consensus, per row.

    Rows whose members are all identical score exactly 0.
    """
    M = np.swapaxes(np.asarray(member_probs, dtype=np.float64), 0, 1)
    out = np.zeros(M.shape[0])
    for i, members in enumerate(M):
        if (members == members[0]).all():
            continue
        q = members.mean(axis=0)
        out[i] = math.fsum(
            p * math.log(p / qc)
            for row in members for p, qc in zip(row, q) if p > 0
        ) / len(members)
    return out


def standardize(X_fit, X) -> np.ndarray:
    """z-scores of ``X`` by the population mean and std of ``X_fit``.

    Columns constant on ``X_fit`` become 0.
    """
    X_fit = np.asarray(X_fit, dtype=np.float64)
    mean = X_fit.mean(axis=0)
    std = X_fit.std(axis=0)
    Z = (np.asarray(X, dtype=np.float64) - mean) / np.where(std > 0, std, 1.0)
    Z[:, std == 0] = 0.0
    return Z


def density_factor(Z, block: int = 512) -> np.ndarray:
    """Row mean of (1 + cos(z_i, z_j)) / 2 over the pool, quadratic form.

    Zero vectors have cosine 0 with everything.  Rows are done in blocks so
    memory stays at ``block`` rows of the similarity matrix.
    """
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.linalg.norm(Z, axis=1)
    U = np.zeros_like(Z)
    nz = norms > 0
    U[nz] = Z[nz] / norms[nz, None]
    out = np.empty(Z.shape[0])
    for lo in range(0, Z.shape[0], block):
        sim = (1.0 + U[lo:lo + block] @ U.T) / 2.0
        out[lo:lo + block] = sim.mean(axis=1)
    return out


def best_first(scores, minimize: bool = False) -> np.ndarray:
    """Positions ordered best score first; equal scores by lowest position."""
    s = np.asarray(scores, dtype=np.float64)
    key = s if minimize else -s
    return np.lexsort((np.arange(s.size), key))


def compare_batch(chosen: Sequence[int], scores, minimize: bool = False,
                  tol: float = 1e-12) -> str:
    """Judge a batch of pool positions against reference ``scores``.

    Returns ``"exact"`` when it is the reference's best-first batch,
    ``"tie_order"`` when it differs only among scores within ``tol`` of one
    another (float dust deciding a tie), and ``"wrong"`` otherwise.
    """
    s = np.asarray(scores, dtype=np.float64)
    key = s if minimize else -s
    chosen = [int(c) for c in chosen]
    k = len(chosen)
    if chosen == [int(i) for i in best_first(s, minimize)[:k]]:
        return "exact"
    if len(set(chosen)) != k:
        return "wrong"
    ck = key[chosen]
    if np.any(ck[1:] < ck[:-1] - tol):
        return "wrong"
    rest = np.ones(s.size, dtype=bool)
    rest[chosen] = False
    if rest.any() and ck.max() > key[rest].min() + tol:
        return "wrong"
    return "tie_order"
