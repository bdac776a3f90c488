"""Adaptive tuning of the cluster-separation threshold τ (Section 5).

τ controls cluster granularity: dependent links longer than τ are *weak*
and cut the DP-Tree into MSDSubTrees.  The paper proposes the objective

    F(τ) = α · (Σ_{δ>τ} δ) / (n·δ̄)  +  (1-α) · (m·δ̄) / (Σ_{δ≤τ} δ)

where n = |{δ > τ}|, m = |{δ ≤ τ}| and δ̄ is the mean dependent distance
(Equation 15).  Minimising F simultaneously pushes for few, long weak links
(small first term) and many short strong links (small second term); α
balances the two and encodes the user's preferred granularity.

α is *learned once* from the user's initial choice of τ₀ on the decision
graph: we search for the α under which τ₀ minimises F over the initial δ
values (``learn_alpha``).  Afterwards, whenever the distribution of δ values
drifts, ``optimize`` re-computes the τ that minimises F for that fixed α.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


def evaluation_function(tau: float, deltas: Sequence[float], alpha: float) -> float:
    """Evaluate the τ objective F(τ) over finite dependent distances.

    Section 5 states the goal as *minimising the average relative
    intra-dependent-distance* (mean of δ ≤ τ, relative to the overall mean
    δ̄) while *maximising the average relative inter-dependent-distance*
    (mean of δ > τ, relative to δ̄).  We therefore minimise

        F(τ) = α · δ̄ / mean(δ > τ)  +  (1 − α) · mean(δ ≤ τ) / δ̄ .

    Note on fidelity: Equation 15 as printed in the paper places the
    numerators and denominators the other way around, which contradicts the
    stated goal (its literal form is monotonically minimised by putting
    every link in the intra set, i.e. a single cluster, for any α).  We
    implement the form consistent with the stated optimisation goal and
    with the Table 4 behaviour (dynamic τ keeps two clusters at 4-6 s).

    Infinite δ values (tree roots) are excluded, as are non-positive ones.
    Degenerate partitions (empty intra or empty inter set) evaluate to
    +inf: a meaningful τ must separate at least one weak link from at least
    one strong link.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    finite = [d for d in deltas if d > 0 and math.isfinite(d)]
    if not finite:
        return float("inf")
    mean_delta = sum(finite) / len(finite)
    if mean_delta <= 0:
        return float("inf")

    inter = [d for d in finite if d > tau]
    intra = [d for d in finite if d <= tau]
    if not inter or not intra:
        return float("inf")

    inter_term = (len(inter) * mean_delta) / sum(inter)
    intra_term = sum(intra) / (len(intra) * mean_delta)
    return alpha * inter_term + (1.0 - alpha) * intra_term


def _score_components(
    deltas: Sequence[float], candidates: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-candidate objective components ``(A, B)`` with ``F = α·A + (1-α)·B``.

    ``A`` is the inter term ``(n·δ̄)/Σ_{δ>τ} δ`` and ``B`` the intra term
    ``Σ_{δ≤τ} δ/(m·δ̄)`` of :func:`evaluation_function`, evaluated for every
    candidate τ in one vectorised pass; degenerate partitions score ``inf``.
    Both components are independent of α, which lets :meth:`TauOptimizer.learn_alpha`
    scan its whole α grid against a single evaluation of this function.
    """
    taus = np.asarray(candidates, dtype=float)
    finite = np.asarray(
        [d for d in deltas if d > 0 and math.isfinite(d)], dtype=float
    )
    invalid = np.full(taus.shape, np.inf)
    if finite.size == 0:
        return invalid, invalid
    mean_delta = float(finite.mean())
    if mean_delta <= 0:
        return invalid, invalid
    # Partition sums for every candidate via prefix sums over the sorted δ
    # values — O((n + C) log n) time and O(n + C) memory, where a dense
    # (candidates × deltas) mask would be quadratic in the active-cell count.
    finite = np.sort(finite)
    prefix = np.concatenate(([0.0], np.cumsum(finite)))
    total = prefix[-1]
    intra_count = np.searchsorted(finite, taus, side="right")
    inter_count = finite.size - intra_count
    intra_sum = prefix[intra_count]
    inter_sum = total - intra_sum
    valid = (inter_count > 0) & (intra_count > 0)
    inter_term = np.divide(
        inter_count * mean_delta, inter_sum, out=np.full(taus.shape, np.inf), where=valid
    )
    intra_term = np.divide(
        intra_sum, intra_count * mean_delta, out=np.full(taus.shape, np.inf), where=valid
    )
    return inter_term, intra_term


def candidate_taus(deltas: Sequence[float]) -> List[float]:
    """Candidate τ values: midpoints between consecutive sorted δ values.

    Because F only changes when τ crosses a δ value, evaluating F at the
    midpoints (plus a value above the maximum) explores every distinct
    partition of the δ values into intra / inter sets.
    """
    finite = sorted({d for d in deltas if d > 0 and math.isfinite(d)})
    if not finite:
        return []
    candidates = []
    for low, high in zip(finite, finite[1:]):
        candidates.append((low + high) / 2.0)
    # τ equal to the largest δ keeps every link strong (single cluster).
    candidates.append(finite[-1] * 1.0001)
    # τ just below the smallest δ makes every link weak; usually terrible but
    # keeps the search space complete.
    if len(finite) > 1:
        candidates.insert(0, finite[0] * 0.9999)
    return candidates


@dataclass
class TauOptimizer:
    """Learns α from an initial τ choice and re-optimises τ as data evolves.

    Parameters
    ----------
    alpha:
        Balance parameter; ``None`` until learned or set explicitly.
    alpha_grid_size:
        Number of α values examined by :meth:`learn_alpha`.
    """

    alpha: Optional[float] = None
    alpha_grid_size: int = 99
    history: List[Tuple[float, float]] = field(default_factory=list)

    def learn_alpha(self, tau0: float, deltas: Sequence[float]) -> float:
        """Learn α such that τ₀ (approximately) minimises F over ``deltas``.

        We scan a grid of α values and pick the one for which the optimal τ
        is closest to τ₀ (ties broken towards the largest margin between τ₀'s
        objective value and the best alternative).  If no α makes τ₀ optimal
        the closest achievable α is still returned — the caller's τ₀ simply
        encodes a preference the objective can only approximate.
        """
        if tau0 <= 0:
            raise ValueError(f"tau0 must be positive, got {tau0}")
        candidates = candidate_taus(deltas)
        if not candidates:
            # Nothing to learn from; fall back to a neutral balance.
            self.alpha = 0.5
            return self.alpha

        inter_term, intra_term = _score_components(deltas, candidates)
        scored: List[Tuple[float, float]] = []
        for i in range(1, self.alpha_grid_size + 1):
            alpha = i / (self.alpha_grid_size + 1)
            values = alpha * inter_term + (1.0 - alpha) * intra_term
            optimal_tau = candidates[int(np.argmin(values))]
            # Score: how far the α-optimal τ lands from the user's τ₀,
            # normalised by τ₀ so the scale of δ does not matter.
            scored.append((abs(optimal_tau - tau0) / tau0, alpha))
        best_score = min(score for score, _ in scored)
        # Usually a whole range of α values reproduces τ₀; pick the median of
        # that range so the learned preference stays robust when the δ
        # distribution later drifts (an extreme α over- or under-clusters).
        tolerance = best_score + 1e-9
        matching = sorted(alpha for score, alpha in scored if score <= tolerance)
        self.alpha = matching[len(matching) // 2]
        return self.alpha

    def optimize(
        self,
        deltas: Sequence[float],
        time: Optional[float] = None,
        fallback: Optional[float] = None,
    ) -> float:
        """Return the τ minimising F for the current α over ``deltas``.

        When no candidate τ yields a finite objective (e.g. only a single
        distinct δ value exists, so no partition has both intra and inter
        links) the ``fallback`` value is returned unchanged — re-optimising
        on such degenerate evidence would arbitrarily flip the clustering.

        Raises ``RuntimeError`` if α has not been learned or set.
        """
        if self.alpha is None:
            raise RuntimeError("alpha must be learned (learn_alpha) or set before optimising tau")
        candidates = candidate_taus(deltas)
        if not candidates:
            if fallback is not None:
                return fallback
            raise ValueError("cannot optimise tau with no finite dependent distances")
        inter_term, intra_term = _score_components(deltas, candidates)
        values = self.alpha * inter_term + (1.0 - self.alpha) * intra_term
        best = int(np.argmin(values))
        if not math.isfinite(float(values[best])) and fallback is not None:
            tau = fallback
        else:
            tau = candidates[best]
        if time is not None:
            self.history.append((time, tau))
        return tau


def suggest_initial_tau(deltas: Sequence[float], min_peaks: int = 2) -> float:
    """Heuristic stand-in for the user's decision-graph selection.

    The original DP paper lets the user pick cluster centres as the points
    with anomalously large δ on the decision graph.  Without a user in the
    loop we pick τ at the largest *relative* gap in the sorted δ values,
    constrained so that at least ``min_peaks`` cells remain above τ (so the
    initial clustering has at least that many clusters whenever possible).
    """
    finite = sorted((d for d in deltas if d > 0 and math.isfinite(d)), reverse=True)
    if not finite:
        return 1.0
    if len(finite) < 2:
        return finite[-1] / 2.0

    # The DP-Tree root (δ = inf) is always a peak, so a τ inside the gap
    # below position i yields (i + 1) non-root peaks, i.e. (i + 2) clusters.
    # To guarantee at least ``min_peaks`` clusters the search may start at
    # the very first gap.
    start = max(min_peaks - 2, 0)
    start = min(start, len(finite) - 2)
    best_gap = -1.0
    best_tau = (finite[start] + finite[start + 1]) / 2.0
    for i in range(start, len(finite) - 1):
        high = finite[i]
        low = finite[i + 1]
        if low <= 0:
            break
        gap = (high - low) / max(low, 1e-12)
        if gap > best_gap:
            best_gap = gap
            best_tau = (high + low) / 2.0
    return best_tau
