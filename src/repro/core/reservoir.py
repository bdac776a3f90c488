"""The outlier reservoir (Sections 4.1, 4.3 and 4.4).

Cluster-cells with low timely density are *inactive*: they are not part of
the DP-Tree and do not participate in clustering, but they are kept in the
reservoir because they may absorb new points and become active again.  An
inactive cell that has not absorbed a point for the safe-deletion interval
ΔT_del (Theorem 3) is *outdated* and can be deleted without affecting future
results.  Section 4.4 bounds the reservoir size by ``ΔT_del · v + 1/β``.

:class:`OutlierReservoir` *is* the inactive population: a
:class:`~repro.core.cellstore.CellStore` over the model's arena plus the
thresholds the decay model derives, with no per-cell container of its own.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.core.cellstore import CellStore
from repro.core.decay import DecayModel
from repro.core.soa import CellArrays


class OutlierReservoir(CellStore):
    """The inactive cluster-cells, with outdated-cell recycling.

    ``numeric``, ``metric`` and ``arrays`` are the
    :class:`~repro.core.cellstore.CellStore` parameters.
    """

    def __init__(
        self,
        decay: DecayModel,
        beta: float,
        stream_rate: float,
        delete_outdated: bool = True,
        deletion_interval: Optional[float] = None,
        numeric: bool = True,
        metric: Optional[Callable[[Any, Any], float]] = None,
        arrays: Optional[CellArrays] = None,
    ) -> None:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if stream_rate <= 0:
            raise ValueError(f"stream_rate must be positive, got {stream_rate}")
        if deletion_interval is not None and deletion_interval <= 0:
            raise ValueError(
                f"deletion_interval must be positive when given, got {deletion_interval}"
            )
        super().__init__(numeric=numeric, metric=metric, arrays=arrays)
        self._decay = decay
        self._beta = beta
        self._rate = stream_rate
        self._delete_outdated = delete_outdated
        self._deletion_interval = deletion_interval
        self.total_deleted = 0

    # ------------------------------------------------------------------ #
    # thresholds derived from the decay model
    # ------------------------------------------------------------------ #
    @property
    def active_threshold(self) -> float:
        """Density above which a cell is active: ``β·v / (1 - a^λ)``."""
        return self._decay.active_threshold(self._beta, self._rate)

    @property
    def deletion_interval(self) -> float:
        """Safe deletion interval ΔT_del (Theorem 3), unless overridden."""
        if self._deletion_interval is not None:
            return self._deletion_interval
        return self._decay.safe_deletion_interval(self._beta, self._rate)

    @property
    def size_upper_bound(self) -> float:
        """Theoretical maximum number of inactive cells, ``ΔT_del·v + 1/β``."""
        return self.deletion_interval * self._rate + 1.0 / self._beta

    # ------------------------------------------------------------------ #
    # membership updates
    # ------------------------------------------------------------------ #
    def add_many(self, cell_ids: Sequence[int]) -> None:
        """Add inactive cells by id and clear their dependency links."""
        super().add_many(cell_ids)
        # Dependency information is meaningless outside the DP-Tree.
        slots = self._slots[self._size - len(cell_ids) : self._size]
        self._arrays.dep[slots] = -1
        self._arrays.delta[slots] = np.inf

    def prune_outdated(self, now: float) -> List[int]:
        """Delete cells idle for longer than ΔT_del (Section 4.4); returns their ids.

        The deleted cells' arena slots go back to the free-list, so
        steady-state ingestion allocates nothing new.
        """
        if not self._delete_outdated:
            return []
        slots = self.slots()
        idle = now - self._arrays.last_absorb[slots] > self.deletion_interval
        removed = self._arrays.cell_ids[slots[idle]].tolist()
        for cell_id in removed:
            self.remove(cell_id)
            self._arrays.release(cell_id)
        self.total_deleted += len(removed)
        return removed
