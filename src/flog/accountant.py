"""Cumulative privacy tracking for the central Gaussian mechanism.

Per round the server releases an aggregate with l2 sensitivity C plus
Gaussian noise of std sigma * C, i.e. a Gaussian mechanism with
noise-to-sensitivity ratio sigma. Its RDP at order alpha is
rho(alpha) = alpha / (2 sigma^2), +inf at sigma 0. The accountant works on
rho arrays over `DEFAULT_ALPHA_GRID`: RDP adds across releases, so T rounds
are T * rho (a product, not a running sum, so the ledger equals
`epsilon_for` bit for bit), and the (epsilon, delta) statement is the
minimum over the grid of rho(alpha) + log(1/delta) / (alpha - 1). The
ledger's alpha* is the first order attaining it, or NaN when epsilon is inf.

Participation subsampling is deliberately not credited: the reported
epsilon is a conservative upper bound. Alongside the rigorous figure the
ledger also reports the naive linear budget target_epsilon * rounds / T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ALPHA_GRID = np.arange(1.25, 512.0 + 1e-9, 0.25)
DEFAULT_ALPHA_GRID.flags.writeable = False


def rdp_gaussian(sigma: float, alpha):
    """Renyi divergence of order alpha (a scalar or an array of orders) for the
    Gaussian mechanism at ratio 1/sigma; +inf at sigma 0."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 1.0):
        raise ValueError("alpha must exceed 1")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    with np.errstate(divide="ignore"):
        return alpha / (2.0 * sigma * sigma)


def to_epsilon(rho, delta: float) -> tuple[float, float]:
    """Best (epsilon, alpha*) for the given delta.

    `rho` is the composed RDP at each order of `DEFAULT_ALPHA_GRID`. alpha*
    is the first order where epsilon is smallest; a NaN order counts as
    +inf. If no order gives a finite epsilon, the result is (inf, 1.25).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    eps = rho + math.log(1.0 / delta) / (DEFAULT_ALPHA_GRID - 1.0)
    eps[np.isnan(eps)] = math.inf
    best = int(np.argmin(eps))
    return float(eps[best]), float(DEFAULT_ALPHA_GRID[best])


def epsilon_for(sigma: float, rounds: int, delta: float) -> tuple[float, float]:
    """Epsilon spent by `rounds` Gaussian releases at this sigma: rounds x rho."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    with np.errstate(invalid="ignore"):  # 0 rounds * inf RDP is NaN
        return to_epsilon(rounds * rdp_gaussian(sigma, DEFAULT_ALPHA_GRID), delta)


@dataclass
class PrivacyLedger:
    target_epsilon: float
    delta: float
    noise_multiplier: float
    total_rounds: int
    rounds_completed: int = 0
    eps_spent_rdp: float = 0.0
    eps_spent_linear: float = 0.0
    alpha_star: float = field(default=math.nan)

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        if self.noise_multiplier == 0.0:
            warnings.warn(
                "noise multiplier is 0: the mechanism provides no differential privacy"
            )

    def update(self) -> "PrivacyLedger":
        """Record one completed round and recompute both budget views."""
        self.rounds_completed += 1
        self.eps_spent_rdp, alpha = epsilon_for(
            self.noise_multiplier, self.rounds_completed, self.delta
        )
        self.alpha_star = alpha if math.isfinite(self.eps_spent_rdp) else math.nan
        self.eps_spent_linear = (
            self.target_epsilon * self.rounds_completed / self.total_rounds
        )
        if self.eps_spent_rdp > self.target_epsilon:
            warnings.warn(
                f"accounted epsilon {self.eps_spent_rdp:.4g} exceeds target "
                f"{self.target_epsilon:.4g} after round {self.rounds_completed}"
            )
        return self

    def dump(self) -> str:
        return (
            f"sigma={self.noise_multiplier}\n"
            f"delta={self.delta}\n"
            f"rounds={self.rounds_completed}\n"
            f"eps_rdp={self.eps_spent_rdp}\n"
            f"eps_linear={self.eps_spent_linear}\n"
            f"alpha_star={self.alpha_star}\n"
        )
