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

DEFAULT_ALPHA_GRID = tuple(np.arange(1.25, 512.0 + 1e-9, 0.25))


def rdp_gaussian(sigma: float, alpha: float) -> float:
    """Renyi divergence of order alpha for the Gaussian mechanism at ratio 1/sigma."""
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return math.inf
    return alpha / (2.0 * sigma * sigma)


def to_epsilon(rho_total, delta: float, alphas=DEFAULT_ALPHA_GRID) -> tuple[float, float]:
    """Best (epsilon, alpha*) over the alpha grid for the given delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    log_inv_delta = math.log(1.0 / delta)
    best_eps, best_alpha = math.inf, float(alphas[0])
    for alpha in alphas:
        eps = rho_total(alpha) + log_inv_delta / (alpha - 1.0)
        if eps < best_eps:
            best_eps, best_alpha = eps, float(alpha)
    return best_eps, best_alpha


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
