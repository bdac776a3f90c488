"""Exponential time-decay model (Section 3.1 of the paper).

The freshness of a point that arrived at time ``ti`` observed at time ``t``
is ``f = a ** (lambda * (t - ti))`` (Equation 3).  The paper uses
``a = 0.998`` and ``lambda = 1`` so that freshness lies in ``(0, 1]``.

Densities of cluster-cells are sums of freshness values.  Because every
point decays at the same multiplicative rate, a cell's density at time
``t`` is ``exp(κ + ℓ·(t - t₀))`` for a time-invariant *key* ``κ``, with
``ℓ = ln(a^λ)`` (:attr:`DecayModel.log_rate`) and a fixed origin ``t₀``.
Equation 8 — decay to the arrival time, then add one — becomes
``κ ← ln(e^κ + e^g)`` with ``g = -ℓ·(t - t₀)`` the key of a point arriving
at ``t`` (:func:`log_add`).  :class:`DecayModel` holds the decay rate and
the active-threshold and safe-deletion-interval formulas of Sections
4.3-4.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN2 = math.log(2.0)


def log_add(x: float, y: float) -> float:
    """``ln(eˣ + eʸ)``, Equation 8 on density keys.

    The larger argument plus ``log1p`` of the smaller one's share, so
    nothing overflows; rounded exactly as :data:`numpy.logaddexp` rounds
    it, step for step, so a cell's key is the same whether it absorbs
    through this function or through ``numpy.logaddexp``.
    """
    if x == y:
        return x + _LN2
    if x > y:
        return x + math.log1p(math.exp(y - x))
    return y + math.log1p(math.exp(x - y))


@dataclass(frozen=True)
class DecayModel:
    """Exponential decay model with base ``a`` and exponent scale ``lam``.

    Parameters
    ----------
    a:
        Decay base, must lie in (0, 1).  The paper uses 0.998.
    lam:
        Decay exponent multiplier λ, must be positive.  The paper uses 1.
    """

    a: float = 0.998
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"decay base a must be in (0, 1), got {self.a}")
        if self.lam <= 0.0:
            raise ValueError(f"decay exponent lam must be positive, got {self.lam}")

    @property
    def rate(self) -> float:
        """The per-unit-time multiplicative decay factor ``a ** lam``."""
        return self.a ** self.lam

    @property
    def log_rate(self) -> float:
        """``ℓ = ln(a^λ) = λ·ln a``, the log of :attr:`rate` (negative)."""
        return self.lam * math.log(self.a)

    def freshness(self, arrival_time: float, now: float) -> float:
        """Freshness ``a ** (λ (now - arrival_time))`` of a single point (Eq. 3)."""
        if now < arrival_time:
            raise ValueError(
                f"observation time {now} precedes arrival time {arrival_time}"
            )
        return self.a ** (self.lam * (now - arrival_time))

    def decay_factor(self, elapsed: float) -> float:
        """Multiplicative factor applied to a density after ``elapsed`` time."""
        if elapsed < 0:
            raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
        return self.a ** (self.lam * elapsed)

    def decay_density(self, density: float, elapsed: float) -> float:
        """Decay a density value by ``elapsed`` time units."""
        return density * self.decay_factor(elapsed)

    def total_weight(self, rate: float) -> float:
        """Steady-state sum of freshness for a stream arriving at ``rate`` pt/s.

        The paper (Section 4.3) notes that for an unbounded stream with fixed
        arrival rate ``v`` the sum of all freshness values converges to
        ``v / (1 - a ** λ)``.
        """
        if rate <= 0:
            raise ValueError(f"stream rate must be positive, got {rate}")
        return rate / (1.0 - self.rate)

    def active_threshold(self, beta: float, rate: float) -> float:
        """Density threshold ``β·v / (1 - a^λ)`` separating active from inactive cells."""
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        return beta * self.total_weight(rate)

    def safe_deletion_interval(self, beta: float, rate: float) -> float:
        """Time ΔT_del after which an idle inactive cell can be deleted (Theorem 3).

        An inactive cell's density is below the active threshold
        ``T = β·v/(1 - a^λ)``; once it has decayed below 1 (the density of a
        brand-new cell) it can never out-compete a freshly created cell and
        is safe to delete.  Solving ``T · a^{λ·ΔT} < 1`` gives

        ``ΔT_del > (log_a(1 - a^λ) - log_a(β·v)) / λ``.

        Theorem 3 in the paper divides by ``λ·v`` because its proof decays
        densities by ``a^{λ·v·ΔT}`` (elapsed *points* rather than elapsed
        time); the expression above is the form consistent with the decay
        function of Equation 3 (``a^{λ·Δt}``) used throughout this library.
        Both agree when time is measured in points (v = 1).
        """
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if rate <= 0:
            raise ValueError(f"stream rate must be positive, got {rate}")
        log_a = math.log(self.a)
        numerator = math.log(1.0 - self.rate) / log_a - math.log(beta * rate) / log_a
        return numerator / self.lam
