"""Cumulative privacy tracking for the central Gaussian mechanism.

Per round the server releases an aggregate with l2 sensitivity C plus
Gaussian noise of std sigma * C, i.e. a Gaussian mechanism with
noise-to-sensitivity ratio sigma. Its Renyi divergence at order alpha is
alpha / (2 sigma^2); rounds compose additively; the (epsilon, delta)
statement is the minimum over an alpha grid of rho(alpha) +
log(1/delta) / (alpha - 1).

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
    Gaussian mechanism at ratio 1/sigma."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 1.0):
        raise ValueError("alpha must exceed 1")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return np.full_like(alpha, math.inf)
    return alpha / (2.0 * sigma * sigma)


def to_epsilon(rho_total, delta: float, alphas=DEFAULT_ALPHA_GRID) -> tuple[float, float]:
    """Best (epsilon, alpha*) over the alpha grid for the given delta.

    `rho_total` maps the array of orders to the composed RDP at each order.
    alpha* is the first order where epsilon is smallest. If no order gives a
    finite epsilon, the result is (inf, alphas[0]).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    alphas = np.asarray(alphas, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 rounds * inf RDP is NaN
        eps = rho_total(alphas) + math.log(1.0 / delta) / (alphas - 1.0)
    eps[np.isnan(eps)] = math.inf
    best = int(np.argmin(eps))
    return float(eps[best]), float(alphas[best])


def epsilon_for(sigma: float, rounds: int, delta: float) -> tuple[float, float]:
    """Epsilon spent by `rounds` Gaussian releases at this sigma."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return to_epsilon(lambda a: rounds * rdp_gaussian(sigma, a), delta)


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
        if self.noise_multiplier > 0.0:
            self.eps_spent_rdp, self.alpha_star = epsilon_for(
                self.noise_multiplier, self.rounds_completed, self.delta
            )
        else:
            self.eps_spent_rdp, self.alpha_star = math.inf, math.nan
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
