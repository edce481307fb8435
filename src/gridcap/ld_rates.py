"""Closed-form overload decay rates for mean-reverting injections.

For the mean-reverting model the cheapest action of any injection path that
drives line ell's normalized current from nu_ell to level a at the horizon is

    psi_ell(a) = (a - nu_ell)^2 / (C_ell M_T C_ell^T)

where M_t = L^2 D^{-1} (I - e^{-2Dt}) e^{D(t-T)} collects the reachable
terminal variance. Everything else here is assembled from psi:

  * the current overload rate, min over lines of psi at level +-1,
  * a temperature lower-bound rate through the threshold level alpha_ell,
  * a first-order-in-tau temperature rate for uniform parameters,
  * the endpoint calculus Phi behind that first-order correction,
  * the minimizing injection and current paths.

Small decay rates mean likely overloads: probability ~ exp(-rate/eps).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonUniformGamma,
    NonUniformTau,
    NoStochasticLines,
    RankDeficiency,
    ZeroVarianceLine,
)
from .grid_model import DcFlowMatrices, OperatingPoint
from .injections import OuModel, SamplePath, uniform_grid
from .thermal import overload_threshold_equivalence

__all__ = [
    "PsiContext",
    "LineRates",
    "DecayRateReport",
    "m_matrix",
    "m_matrix_derivative",
    "line_variances",
    "psi",
    "current_decay_rate",
    "optimal_paths",
    "current_path",
    "alpha",
    "lb_decay_rate",
    "taylor_decay_rate",
    "CurrentEndpoints",
    "optimal_current_endpoints",
    "taylor_phi",
    "full_report",
]

#: Rows of C whose largest entry falls below this relative cutoff are treated
#: as zero: those lines never feel the noise and their rates are infinite.
ZERO_ROW_RTOL = 1e-12

#: Relative slack when collecting the argmin line set.
ARGMIN_RTOL = 1e-9


@dataclass(frozen=True)
class PsiContext:
    """Network, operating point, and injection model bundled for rate queries."""

    flow: DcFlowMatrices
    op: OperatingPoint
    ou: OuModel

    def __post_init__(self):
        if self.ou.m != self.flow.m:
            raise ValueError("injection model dimension does not match the network")
        if self.op.nu.shape[0] != self.flow.line_count:
            raise ValueError("operating point does not match the network")

    @property
    def horizon(self) -> float:
        return self.ou.horizon

    @property
    def tau(self) -> np.ndarray:
        return self.flow.network.thermal_constant

    @property
    def stochastic_lines(self) -> tuple:
        """Indices of lines with a non-zero stochastic sensitivity row."""
        C = self.flow.stochastic_block
        scale = np.max(np.abs(C))
        if scale == 0.0:
            return ()
        keep = np.max(np.abs(C), axis=1) > ZERO_ROW_RTOL * scale
        return tuple(int(i) for i in np.nonzero(keep)[0])


def _m_diag(ou: OuModel, t: float, horizon: float) -> np.ndarray:
    g = ou.gamma
    return ou.vol**2 * (-np.expm1(-2.0 * g * t)) * np.exp(g * (t - horizon)) / g


def m_matrix(ou: OuModel, t: float, horizon=None) -> np.ndarray:
    """Reachability matrix M_t (diagonal): terminal-variance weights at time t."""
    horizon = ou.horizon if horizon is None else horizon
    if not 0.0 <= t <= horizon:
        raise ValueError("t must lie in [0, horizon]")
    return np.diag(_m_diag(ou, t, horizon))


def m_matrix_derivative(ou: OuModel, t: float, horizon=None) -> np.ndarray:
    """Time derivative of M_t, used for the slopes of optimal current paths."""
    horizon = ou.horizon if horizon is None else horizon
    g = ou.gamma
    return np.diag(ou.vol**2 * (1.0 + np.exp(-2.0 * g * t)) * np.exp(g * (t - horizon)))


def line_variances(ctx: PsiContext) -> np.ndarray:
    """C_ell M_T C_ell^T for every line: the denominator of psi."""
    mT = _m_diag(ctx.ou, ctx.horizon, ctx.horizon)
    return (ctx.flow.stochastic_block**2) @ mT


def _line_variance(ctx: PsiContext, line: int) -> float:
    """One line's C_ell M_T C_ell^T; ZeroVarianceLine if the noise cannot move it."""
    denom = float(line_variances(ctx)[line])
    if denom <= 0.0:
        raise ZeroVarianceLine(f"line {line} has zero terminal current variance")
    return denom


def psi(ctx: PsiContext, line: int, a: float) -> float:
    """Cheapest action driving line's normalized current to level a at the horizon."""
    denom = _line_variance(ctx, line)
    return float((a - ctx.op.nu[line]) ** 2 / denom)


def _min_levels(ctx: PsiContext, levels: np.ndarray):
    """Minimum over stochastic lines of psi at per-line symmetric levels.

    levels[ell] > 0 is the magnitude; the cheaper of +-levels[ell] is the side
    toward which nu_ell already points.
    """
    lines = ctx.stochastic_lines
    if not lines:
        raise NoStochasticLines("no line responds to the stochastic injections")
    idx = np.asarray(lines)
    denom = line_variances(ctx)[idx]
    rates = (levels[idx] - np.abs(ctx.op.nu[idx])) ** 2 / denom
    best = float(np.min(rates))
    cut = best * (1.0 + ARGMIN_RTOL) + 1e-300
    argmin = tuple(int(i) for i, r in zip(idx, rates) if r <= cut)
    return best, argmin


def current_decay_rate(ctx: PsiContext):
    """Decay rate of a current overload and the lines attaining it.

    The overload level is 1 in normalized units; lines that do not feel the
    noise are excluded (their rate is infinite).
    """
    ones = np.ones(ctx.flow.line_count)
    best, argmin = _min_levels(ctx, ones)
    return best, argmin


def current_path(ctx: PsiContext, injections_path: SamplePath) -> SamplePath:
    """Map an injection path through the network to normalized line currents."""
    Y = injections_path.values @ ctx.flow.stochastic_block.T + ctx.op.y
    return SamplePath(injections_path.times, Y)


def optimal_paths(ctx: PsiContext, line: int, a: float, step_count: int):
    """Most likely injection path reaching current level a on a line, plus its currents.

    The injection path starts at the mean and ends where the line's current
    is exactly a; its action equals psi(ctx, line, a).
    """
    denom = _line_variance(ctx, line)
    times = uniform_grid(ctx.horizon, step_count)
    mdiags = np.stack([_m_diag(ctx.ou, t, ctx.horizon) for t in times])
    gain = (a - ctx.op.nu[line]) / denom
    X = ctx.ou.mean + gain * mdiags * ctx.flow.stochastic_block[line]
    path = SamplePath(times, X)
    return path, current_path(ctx, path)


def alpha(ctx: PsiContext, line: int) -> float:
    """Threshold current level for a thermal overload on one line."""
    return float(
        overload_threshold_equivalence(ctx.op.nu[line], ctx.tau[line], ctx.horizon)
    )


def lb_decay_rate(ctx: PsiContext):
    """Lower bound on the temperature overload decay rate, with its argmin lines.

    A thermal overload within the horizon forces the current beyond the
    threshold alpha_ell > 1 on some line, so pricing level alpha_ell instead
    of 1 bounds the temperature rate from below while staying closed-form.
    """
    levels = overload_threshold_equivalence(ctx.op.nu, ctx.tau, ctx.horizon)
    best, argmin = _min_levels(ctx, levels)
    return best, argmin


def _uniform(values: np.ndarray, what: str, error):
    v0 = float(values.flat[0])
    if np.any(np.abs(values - v0) > 1e-12 * max(1.0, abs(v0))):
        raise error(f"{what} must be uniform for this closed form")
    return v0


def taylor_decay_rate(ctx: PsiContext, tau0: float) -> float:
    """First-order-in-tau temperature decay rate for uniform parameters.

    Valid only for a common mean-reversion rate gamma; then the correction is
    multiplicative: (1 + 2 tau0 gamma) times the current rate.
    """
    if tau0 < 0:
        raise ValueError("tau0 must be non-negative")
    gamma = _uniform(ctx.ou.gamma, "mean-reversion rate", NonUniformGamma)
    rate, _ = current_decay_rate(ctx)
    return (1.0 + 2.0 * tau0 * gamma) * rate


@dataclass(frozen=True)
class CurrentEndpoints:
    """Boundary values and slopes of an optimal normalized current path."""

    start: np.ndarray
    end: np.ndarray
    start_slope: np.ndarray
    end_slope: np.ndarray


def optimal_current_endpoints(ctx: PsiContext, line: int, a: float) -> CurrentEndpoints:
    """Endpoint data of the optimal current path toward level a on a line."""
    denom = _line_variance(ctx, line)
    C = ctx.flow.stochastic_block
    cl = C[line]
    gain = (a - ctx.op.nu[line]) / denom
    T = ctx.horizon
    end = gain * C @ (_m_diag(ctx.ou, T, T) * cl) + ctx.op.nu
    d0 = np.diag(m_matrix_derivative(ctx.ou, 0.0, T))
    dT = np.diag(m_matrix_derivative(ctx.ou, T, T))
    return CurrentEndpoints(
        start=ctx.op.nu.copy(),
        end=end,
        start_slope=gain * C @ (d0 * cl),
        end_slope=gain * C @ (dT * cl),
    )


def taylor_phi(ctx: PsiContext, endpoints: CurrentEndpoints) -> float:
    """Endpoint expression Phi whose tau-weighted value corrects the current rate.

    Phi depends on an optimal current path only through its boundary values
    and slopes: Phi = sum_i [K_i(end) - K_i(start)] with
    K_i(f, f') = 1/2 ((Cplus_i f' - b_i(Cplus_i (f - y))) / l_i)^2,
    pulling currents back to injections through the pseudoinverse of C.
    """
    C = ctx.flow.stochastic_block
    gram = C.T @ C
    try:
        cplus = np.linalg.solve(gram, C.T)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiency("stochastic block has no left inverse") from exc

    def k_total(f, fp):
        x = cplus @ (f - ctx.op.y)
        resid = (cplus @ fp - ctx.ou.drift(x)) / ctx.ou.vol
        return 0.5 * float(resid @ resid)

    return k_total(endpoints.end, endpoints.end_slope) - k_total(
        endpoints.start, endpoints.start_slope
    )


@dataclass(frozen=True)
class LineRates:
    """Per-line decay-rate summary for reporting."""

    line: int
    terminals: tuple
    psi_plus: float
    psi_minus: float
    alpha: float
    psi_alpha: float
    sigma2: float


@dataclass(frozen=True)
class DecayRateReport:
    """Network-level decay rates plus the per-line table behind them.

    `taylor_rate` is None when the first-order closed form does not apply
    (heterogeneous gamma, or no tau0 available); `taylor_note` says why.
    Lines in `excluded` do not respond to the noise at all; their rates are
    infinite and they are reported separately rather than as float inf.
    """

    lines: tuple
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
    denom = line_variances(ctx)
    sigma2 = (ctx.flow.stochastic_block**2) @ ctx.ou.vol**2
    nu = ctx.op.nu
    net = ctx.flow.network
    live = ctx.stochastic_lines
    rows = []
    for ell in live:
        al = alpha(ctx, ell)
        rows.append(
            LineRates(
                line=ell,
                terminals=net.lines[ell],
                psi_plus=float((1.0 - nu[ell]) ** 2 / denom[ell]),
                psi_minus=float((1.0 + nu[ell]) ** 2 / denom[ell]),
                alpha=al,
                psi_alpha=float((al - abs(nu[ell])) ** 2 / denom[ell]),
                sigma2=float(sigma2[ell]),
            )
        )
    excluded = tuple(sorted(set(range(ctx.flow.line_count)).difference(live)))
    current, current_argmin = current_decay_rate(ctx)
    lb, lb_argmin = lb_decay_rate(ctx)

    taylor_rate = None
    taylor_note = None
    try:
        if tau0 is None:
            tau0 = _uniform(ctx.tau, "thermal constant", NonUniformTau)
        taylor_rate = taylor_decay_rate(ctx, tau0)
    except (NonUniformTau, NonUniformGamma) as exc:
        taylor_note = str(exc)
        tau0 = None

    return DecayRateReport(
        lines=tuple(rows),
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
