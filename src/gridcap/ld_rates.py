"""Closed-form overload decay rates for mean-reverting injections.

For the mean-reverting model the cheapest action of any injection path that
drives line ell's normalized current from nu_ell to level a at the horizon is

    psi_ell(a) = (a - nu_ell)^2 / (C_ell M_T C_ell^T)

where M_t = L^2 D^{-1} (I - e^{-2Dt}) e^{D(t-T)} collects the reachable
terminal variance. Everything else here is assembled from psi:

  * the current overload rate, min over lines of psi at level +-1,
  * a temperature lower-bound rate through the threshold level alpha_ell,
  * a first-order-in-tau temperature rate for uniform parameters.

full_report prices the per-line table (psi at +-1, alpha_ell and psi at
alpha_ell, and sigma2 = C_ell L^2 C_ell^T) as NumPy arrays over the
live lines and keeps those arrays as the report's columns.

Whether the noise reaches a line is decided once per PsiContext, by one
rule: line ell is excluded when its row of C peaks at or below ZERO_ROW_RTOL
times C's largest entry. An excluded line has variance 0 exactly, noise
margin beta 0 and region bound 1, and no network rate or partition label;
psi alone raises ZeroVarianceLine on it (its rate is infinite).

Small decay rates mean likely overloads: probability ~ exp(-rate/eps).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NonUniformGamma,
    NonUniformTau,
    NoStochasticLines,
    ZeroVarianceLine,
)
from .grid_model import DcFlowMatrices, OperatingPoint, _readonly
from .injections import OuModel
from .thermal import overload_threshold_equivalence

__all__ = [
    "PsiContext",
    "DecayRateReport",
    "psi",
    "current_decay_rate",
    "lb_decay_rate",
    "taylor_decay_rate",
    "full_report",
]

#: Rows of C whose largest entry falls below this relative cutoff are treated
#: as zero: those lines never feel the noise and their rates are infinite.
ZERO_ROW_RTOL = 1e-12

#: Relative slack when collecting the argmin line set.
ARGMIN_RTOL = 1e-9


def _uniform(values: np.ndarray, what: str, error):
    v0 = float(values.flat[0])
    if np.any(np.abs(values - v0) > 1e-12 * max(1.0, abs(v0))):
        raise error(f"{what} must be uniform for this closed form")
    return v0


@dataclass(frozen=True)
class PsiContext:
    """Network, operating point, and injection model for rate queries; op.mu must equal ou.mean."""

    flow: DcFlowMatrices
    op: OperatingPoint
    ou: OuModel

    def __post_init__(self):
        if self.ou.m != self.flow.m:
            raise ValueError("injection model dimension does not match the network")
        if self.op.nu.shape[0] != self.flow.line_count:
            raise ValueError("operating point does not match the network")
        if not np.array_equal(self.op.mu, self.ou.mean):
            raise ValueError("operating point mu and injection model mean must be the same schedule")

    @property
    def horizon(self) -> float:
        return self.ou.horizon

    @property
    def tau(self) -> np.ndarray:
        return self.flow.network.thermal_constant

    @cached_property
    def stochastic_lines(self) -> tuple:
        """Indices of lines with a non-zero stochastic sensitivity row, decided once."""
        row_max = np.max(np.abs(self.flow.stochastic_block), axis=1)
        return tuple(np.flatnonzero(row_max > ZERO_ROW_RTOL * row_max.max()).tolist())

    @cached_property
    def line_variances(self) -> np.ndarray:
        """C_ell M_T C_ell^T for every line, exactly 0.0 off `stochastic_lines`; read-only."""
        variances = (self.flow.stochastic_block**2) @ _m_diag(self.ou, self.horizon, self.horizon)
        variances[~np.isin(np.arange(variances.size), self.stochastic_lines)] = 0.0
        return _readonly(variances)

    def first_order(self, tau0=None):
        """(1 + 2 tau0 gamma, tau0): the first-order-in-tau factor on the current rate.

        Checks in order: tau0 defaults to the uniform thermal constant, else
        NonUniformTau; tau0 >= 0, else ValueError; gamma is uniform, else
        NonUniformGamma.
        """
        if tau0 is None:
            tau0 = _uniform(self.tau, "thermal constant", NonUniformTau)
        if tau0 < 0:
            raise ValueError("tau0 must be non-negative")
        gamma = _uniform(self.ou.gamma, "mean-reversion rate", NonUniformGamma)
        return 1.0 + 2.0 * tau0 * gamma, tau0


def _m_diag(ou: OuModel, t: float, horizon: float) -> np.ndarray:
    g = ou.gamma
    # gamma t overflowing to inf at a huge horizon gives the exact limit l^2/gamma
    with np.errstate(over="ignore"):
        return ou.vol**2 * (-np.expm1(-2.0 * g * t)) * np.exp(g * (t - horizon)) / g


def _line_variance(ctx: PsiContext, line: int) -> float:
    """One line's C_ell M_T C_ell^T; ZeroVarianceLine if the line is excluded."""
    denom = float(ctx.line_variances[line])
    if denom <= 0.0:
        raise ZeroVarianceLine(line)
    return denom


def psi(ctx: PsiContext, line: int, a: float) -> float:
    """Cheapest action driving line's normalized current to level a at the horizon."""
    denom = _line_variance(ctx, line)
    return float(np.square(a - ctx.op.nu[line]) / denom)  # x * x, as the report squares its arrays


def _level_cost(level, nu_abs, denom):
    """(level - |nu|)^2 / sigma^2 for scalars or arrays; ValueError if it overflows or sigma^2 underflows to 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cost = (level - nu_abs) ** 2 / denom
    if not np.all(np.isfinite(cost)):
        raise ValueError("overload level too far out: its decay rate is non-finite")
    return cost


def _live_lines(ctx: PsiContext) -> np.ndarray:
    """Stochastic line indices as an array; NoStochasticLines if there are none."""
    lines = ctx.stochastic_lines
    if not lines:
        raise NoStochasticLines("no line responds to the stochastic injections")
    return np.asarray(lines)


def _argmin(idx: np.ndarray, rates: np.ndarray):
    """Smallest rate and the lines of idx within ARGMIN_RTOL of it."""
    best = float(np.min(rates))
    cut = best * (1.0 + ARGMIN_RTOL) + 1e-300
    return best, tuple(int(i) for i in idx[rates <= cut])


def _min_levels(ctx: PsiContext, levels: np.ndarray):
    """Minimum over stochastic lines of psi at per-line symmetric levels.

    levels[ell] > 0 is the magnitude; the cheaper of +-levels[ell] is the side
    toward which nu_ell already points.
    """
    idx = _live_lines(ctx)
    denom = ctx.line_variances[idx]
    return _argmin(idx, _level_cost(levels[idx], np.abs(ctx.op.nu[idx]), denom))


def current_decay_rate(ctx: PsiContext):
    """Decay rate of a current overload and the lines attaining it.

    The overload level is 1 in normalized units; lines that do not feel the
    noise are excluded (their rate is infinite).
    """
    return _min_levels(ctx, np.ones(ctx.flow.line_count))


def lb_decay_rate(ctx: PsiContext):
    """Lower bound on the temperature overload decay rate, with its argmin lines.

    A thermal overload within the horizon forces the current beyond the
    threshold alpha_ell > 1 on some line, so pricing level alpha_ell instead
    of 1 bounds the temperature rate from below while staying closed-form.
    """
    levels = overload_threshold_equivalence(ctx.op.nu, ctx.tau, ctx.horizon)
    return _min_levels(ctx, levels)


def taylor_decay_rate(ctx: PsiContext, tau0: float) -> float:
    """First-order-in-tau temperature decay rate for uniform parameters.

    Valid only for a common mean-reversion rate gamma; then the correction is
    multiplicative: (1 + 2 tau0 gamma) times the current rate.
    """
    return ctx.first_order(tau0)[0] * current_decay_rate(ctx)[0]


@dataclass(frozen=True)
class DecayRateReport:
    """Network-level decay rates plus the per-line table behind them, held as columns.

    `line` holds the live line indices in ascending order, as
    `PsiContext.stochastic_lines`. The five read-only float64 arrays
    `psi_plus`, `psi_minus` (psi at levels +1 and -1), `alpha` (the thermal
    threshold level), `psi_alpha` (psi at alpha) and `sigma2` (C_ell L^2
    C_ell^T, the variance rate of the line's noise) are aligned with it:
    entry k belongs to line `line[k]`.
    `taylor_rate` is None when the first-order closed form does not apply
    (heterogeneous gamma, or no tau0 available) or overflows; `taylor_note`
    says why.
    Lines in `excluded` do not respond to the noise at all; their rates are
    infinite and they are reported separately rather than as float inf.
    """

    line: tuple
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    alpha: np.ndarray
    psi_alpha: np.ndarray
    sigma2: np.ndarray
    excluded: tuple
    current_rate: float
    current_argmin: tuple
    lb_rate: float
    lb_argmin: tuple
    taylor_rate: object
    taylor_note: object
    horizon: float
    tau0: object


def full_report(ctx: PsiContext, tau0=None) -> DecayRateReport:
    """Assemble every closed-form rate for one operating point.

    When tau0 is omitted it is taken from the network's thermal constants if
    they are uniform; otherwise the first-order rate is left out with a note.
    """
    idx = _live_lines(ctx)
    denom = ctx.line_variances[idx]
    sigma2 = ((ctx.flow.stochastic_block**2) @ ctx.ou.vol**2)[idx]
    nu = ctx.op.nu[idx]
    # 1 - (-nu) is 1 + nu bit for bit, so min(psi_plus, psi_minus) is the
    # level-1 cost from |nu| that current_decay_rate prices
    psi_plus = _level_cost(1.0, nu, denom)
    psi_minus = _level_cost(1.0, -nu, denom)
    levels = overload_threshold_equivalence(nu, ctx.tau[idx], ctx.horizon)
    psi_alpha = _level_cost(levels, np.abs(nu), denom)
    excluded = tuple(sorted(set(range(ctx.flow.line_count)).difference(ctx.stochastic_lines)))
    current, current_argmin = _argmin(idx, np.minimum(psi_plus, psi_minus))
    lb, lb_argmin = _argmin(idx, psi_alpha)

    taylor_rate = taylor_note = None
    try:
        factor, tau0 = ctx.first_order(tau0)
    except (NonUniformTau, NonUniformGamma) as exc:
        taylor_note = str(exc)
        tau0 = None
    else:
        taylor_rate = factor * current  # Python floats: an overflow is inf, without a warning
        if not np.isfinite(taylor_rate):
            taylor_rate = None
            taylor_note = (f"first-order rate overflows: (1 + 2 tau0 gamma) = {factor:.6g} times "
                           f"the current rate {current:.6g}")

    return DecayRateReport(
        line=ctx.stochastic_lines,
        psi_plus=_readonly(psi_plus),
        psi_minus=_readonly(psi_minus),
        alpha=_readonly(levels),
        psi_alpha=_readonly(psi_alpha),
        sigma2=_readonly(sigma2),
        excluded=excluded,
        current_rate=current,
        current_argmin=current_argmin,
        lb_rate=lb,
        lb_argmin=lb_argmin,
        taylor_rate=taylor_rate,
        taylor_note=taylor_note,
        horizon=ctx.horizon,
        tau0=tau0,
    )
