"""Configuration for the EDMStream algorithm.

All tunables of Sections 4-6 are gathered in :class:`EDMStreamConfig` so that
experiments (and the ablation benches) can toggle individual design choices
without touching algorithm code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EDMStreamConfig:
    """Parameters of EDMStream.

    Parameters
    ----------
    radius:
        Cluster-cell radius ``r`` (Definition 4).  The paper chooses it like
        the cut-off distance ``dc`` of Density Peaks clustering: a small
        percentile (0.5%-2%) of the pairwise-distance distribution.
    beta:
        Active/inactive density threshold multiplier β (Section 4.3).  A cell
        is active when its timely density is at least ``β·v / (1 - a^λ)``.
        The paper uses β = 0.0021.
    decay_a, decay_lambda:
        Parameters of the exponential decay model (Equation 3).  Defaults
        match the paper (a = 0.998, λ = 1).
    stream_rate:
        Expected point-arrival rate ``v`` in points per second, used for the
        active threshold and the safe-deletion interval.  The paper fixes
        1,000 pt/s unless stated otherwise.
    tau:
        Initial cluster-separation threshold τ.  ``None`` means it is chosen
        automatically from the initial decision graph (the stand-in for the
        paper's user-interaction step).
    alpha:
        Balance parameter α of the τ objective (Equation 15).  ``None`` means
        it is learned from the initial τ as described in Section 5.
    adaptive_tau:
        Whether τ is re-optimised as the stream evolves (Section 5).  When
        False the initial τ is kept fixed (the "static τ" baseline of
        Table 4 / Figure 15).
    metric:
        Distance metric name (``euclidean`` for numeric data, ``jaccard`` for
        token-set data).
    init_size:
        Number of points buffered before the DP-Tree is first built
        (the initialisation phase of Section 4.1).
    enable_density_filter, enable_triangle_filter:
        Toggles for Theorem 1 and Theorem 2 (the "wf"/"df"/"df+tif" variants
        of Figure 11).
    maintenance_interval:
        Stream-time interval (seconds) between decay sweeps that move
        low-density cells to the outlier reservoir and delete outdated ones.
    snapshot_interval:
        Stream-time interval (seconds) between evolution-tracking snapshots.
    delete_outdated:
        Whether outdated inactive cells are deleted (memory recycling,
        Section 4.4).
    tau_reoptimize_interval:
        Stream-time interval (seconds) between τ re-optimisations when
        ``adaptive_tau`` is on.
    outlier_label:
        Label returned by ``predict_one`` for points not covered by any
        active cluster-cell.
    dtype:
        Seed-matrix dtype of the structure-of-arrays cell store:
        ``"float64"`` (default; distances bit-identical to the scalar
        reference path) or ``"float32"`` (half the memory traffic for the
        distance kernels, at ~1e-7 relative distance error — see
        ``docs/ARCHITECTURE.md``).  Densities, timestamps and dependent
        distances stay float64 either way.
    memory_cap_bytes:
        Hard byte budget for the cell state (arena columns + per-cell side
        state + population views + sketch tier).  ``None`` (default) keeps
        the classic unbounded behavior, bit-identical to builds without the
        tier.  When set, the coldest inactive cells are evicted to an
        approximate sketch tier instead of letting the arena grow past the
        cap, and re-arriving neighborhoods revive with their sketched
        density — see ``docs/ARCHITECTURE.md`` "Bounded-memory tier".
        Numeric metrics only.  The sketch geometry is derived from the cap
        (:meth:`repro.sketch.SketchTier.auto_sized`).
    telemetry:
        Observability knob (``repro.obs``).  ``None``/``False`` (default)
        keeps telemetry off: the model holds the shared null facade, pays
        one attribute lookup per (chunk-granularity) instrumentation point,
        and is bit-identical to builds without the subsystem.  ``True``
        attaches a fresh :class:`repro.obs.Telemetry`; an existing
        :class:`~repro.obs.Telemetry` instance is used as-is (so a serving
        publisher can share one facade across subsystems).  Telemetry only
        observes — it never changes clustering behavior.
    """

    radius: float = 0.3
    beta: float = 0.0021
    decay_a: float = 0.998
    decay_lambda: float = 1.0
    stream_rate: float = 1000.0
    tau: Optional[float] = None
    alpha: Optional[float] = None
    adaptive_tau: bool = True
    metric: str = "euclidean"
    init_size: int = 500
    enable_density_filter: bool = True
    enable_triangle_filter: bool = True
    maintenance_interval: float = 1.0
    snapshot_interval: float = 1.0
    delete_outdated: bool = True
    tau_reoptimize_interval: float = 1.0
    outlier_label: int = -1
    dtype: str = "float64"
    memory_cap_bytes: Optional[int] = None
    telemetry: object = None

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.decay_a < 1.0:
            raise ValueError(f"decay_a must be in (0, 1), got {self.decay_a}")
        if self.decay_lambda <= 0:
            raise ValueError(f"decay_lambda must be positive, got {self.decay_lambda}")
        if self.decay_a**self.decay_lambda == 0.0:
            # Every density would vanish one time unit after its last
            # update.
            raise ValueError(
                f"decay rate a^λ underflows to 0 (a={self.decay_a}, λ={self.decay_lambda})"
            )
        if self.stream_rate <= 0:
            raise ValueError(f"stream_rate must be positive, got {self.stream_rate}")
        if self.tau is not None and self.tau <= 0:
            raise ValueError(f"tau must be positive when given, got {self.tau}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1) when given, got {self.alpha}")
        if self.init_size < 2:
            raise ValueError(f"init_size must be at least 2, got {self.init_size}")
        if self.maintenance_interval <= 0:
            raise ValueError(
                f"maintenance_interval must be positive, got {self.maintenance_interval}"
            )
        if self.snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be positive, got {self.snapshot_interval}"
            )
        if self.tau_reoptimize_interval <= 0:
            raise ValueError(
                f"tau_reoptimize_interval must be positive, got {self.tau_reoptimize_interval}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.memory_cap_bytes is not None and self.memory_cap_bytes <= 0:
            raise ValueError(
                f"memory_cap_bytes must be positive when given, got {self.memory_cap_bytes}"
            )
        if (
            self.telemetry is not None
            and not isinstance(self.telemetry, bool)
            and not hasattr(self.telemetry, "phase")
        ):
            raise ValueError(
                "telemetry must be None, a bool, or a Telemetry-like object "
                f"with a phase() method, got {self.telemetry!r}"
            )

    def validate_beta_range(self) -> None:
        """Check β against its admissible range ``(1 - a^λ)/v < β < 1`` (Section 4.3)."""
        lower = (1.0 - self.decay_a ** self.decay_lambda) / self.stream_rate
        if not lower < self.beta < 1.0:
            raise ValueError(
                f"beta={self.beta} outside admissible range ({lower}, 1) "
                f"for rate={self.stream_rate}, a={self.decay_a}, lambda={self.decay_lambda}"
            )
