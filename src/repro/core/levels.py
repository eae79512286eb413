"""Session-level caching of the VQ level model (lambda, mu).

The paper computes the k-means DP *once per simulation*, on a 10 % sample of
the first snapshot, and reuses the fitted level model for every subsequent
snapshot (Section VI-A: "we observe the snapshots have unchanged level
patterns during the simulation").  :class:`SessionLevelModel` implements
that caching and the lazy computation — the fit is only run when a VQ-family
method actually needs it.
"""

from __future__ import annotations

import numpy as np

from ..cluster.level_detect import LevelFit, detect_levels
from ..telemetry import get_recorder


class SessionLevelModel:
    """Lazily-computed, session-cached level model for one axis stream."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._fit: LevelFit | None = None

    @property
    def is_fitted(self) -> bool:
        """True once the k-means fit has run."""
        return self._fit is not None

    @property
    def fit(self) -> LevelFit | None:
        """The cached fit, or ``None`` before any VQ-family encode."""
        return self._fit

    def seed(self, fit: LevelFit) -> None:
        """Adopt a fit computed elsewhere.

        The streaming executor uses this to hand a worker session the level
        model the parent session fitted on the first buffer, so out-of-order
        workers produce byte-identical VQ/VQT payloads.
        """
        self._fit = fit

    def fit_for(self, snapshot: np.ndarray) -> LevelFit:
        """Return the cached fit, computing it from ``snapshot`` if needed.

        Only the *first* snapshot handed to this method is ever used — the
        level pattern is treated as stable for the whole session, exactly
        as the paper does.
        """
        if self._fit is None:
            with get_recorder().timer("levels.fit"):
                self._fit = detect_levels(snapshot, seed=self._seed)
        return self._fit

    def reset(self) -> None:
        """Forget the fit (used when a session is reused across datasets)."""
        self._fit = None
