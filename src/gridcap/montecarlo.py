"""Monte Carlo estimation of overload probabilities.

Replicates are simulated with exact mean-reverting transitions, one
counter-based random stream per replicate keyed by (seed, replicate). The
estimate is therefore bit-identical for any chunk size and any number of
worker processes: chunking only groups replicates for vectorized stepping,
and the workers only split the replicates into contiguous ranges. The
range [0, N) is split over at most the usable CPUs, `McConfig.workers`
and one range per NOISE_BLOCK_BYTES of noise, so a small run never forks.
The first range runs in the calling process and each other one in a child
made by os.fork(), which runs the same block loop and returns its
indicators packed two bits per replicate through a pipe. Forked children
share no interpreter lock with the caller, unlike threads, which gain
nothing here because the per-replicate Philox fill holds it.

A block of R replicates is handled in three steps. Its noise is drawn into
one reused buffer and transposed into a second, (steps, m, R), where the
OU recursion then runs in place, so that buffer holds the stored paths.
Each replicate's path box (its lowest and highest state per coordinate
over all steps and the start) bounds every line's current from above,
with a slack that covers all rounding, and a grace factor extends the
bound to the line's temperature. This gives an (L, R) reach mask: a line
whose bound stays below the threshold cannot hit on that replicate, in
current or in temperature. Overloads are rare, so usually only a few
replicates are candidates (some line reaches), and on them only a few
lines reach. Only the candidates' columns go through the exact kernel,
and only on the lines that some candidate in the block reaches:
currents, the thermal recursion and the peaks, priced lines-major as
(lines, W) arrays from the stored paths. A block holds at most
`McConfig.chunk` replicates and at most NOISE_BLOCK_BYTES of noise;
neither cap changes any result.

Each (line, column) pair's current comes from the same gemm, whatever the
block width, the candidate count or the lines priced: NumPy's matmul
takes a gemv path when an operand is one wide, so the kernel prices a
lone column or a lone line twice over.

A temperature overload is counted only on a replicate with a current
overload, so the temperature event is a subset of the current event by
construction. Exactly, each temperature sample is a convex combination of
the initial and subsequent squared currents, so it could only reach the
squared threshold if some current sample already did; the rule keeps that
true under rounding too.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientHits
from .grid_model import _readonly
from .injections import ou_step_coefficients
from .ld_rates import PsiContext
from .thermal import filter_coefficients
from ._streams import check_key, fill_normal_blocks

__all__ = [
    "Z_95",
    "McConfig",
    "McEstimate",
    "McIndicators",
    "DecayFit",
    "wilson_interval",
    "overload_indicators",
    "overload_probability",
    "decay_slope",
]

Z_95 = 1.959963984540054

# Upper bound on the bytes of noise drawn for one block of replicates.
NOISE_BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class McConfig:
    """Replicate count, time grid, base seed, vectorization chunk and worker cap.

    `chunk` caps the replicates stepped together in one block; blocks are
    further capped so their noise stays within NOISE_BLOCK_BYTES. `workers`
    caps the processes an estimate is split over (None: the usable CPUs).
    Results do not depend on any of the three caps.
    """

    replicates: int
    step_count: int
    seed: int
    chunk: int = 2048
    workers: int | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.step_count < 1:
            raise ValueError("step_count must be at least 1")
        check_key(self.seed, 0)
        if self.chunk < 1:
            raise ValueError("chunk must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class McIndicators:
    """Per-replicate overload indicators from one coupled simulation."""

    current: np.ndarray
    temperature: np.ndarray
    threshold: float

    def __post_init__(self):
        for name in ("current", "temperature"):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype=bool))


@dataclass(frozen=True)
class McEstimate:
    """Hit-frequency estimate with a 95% Wilson confidence interval."""

    mode: str
    threshold: float
    replicates: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float


def wilson_interval(hits: int, n: int):
    """Wilson score interval for a binomial proportion at 95 % (z = Z_95)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    p, z = hits / n, Z_95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def overload_indicators(ctx: PsiContext, config: McConfig, threshold: float = 1.0) -> McIndicators:
    """Simulate all replicates and record both overload events per replicate.

    A current overload is sup_t max_ell |Y_ell| >= threshold on the sample
    grid. A temperature overload is a current overload whose path also has
    sup_t max_ell Theta_ell >= threshold^2, with each line's temperature
    started at its initial squared current.

    The replicates are split into `_worker_count` contiguous, balanced
    ranges. The first runs here, each other one in a forked child that
    sends back only its packed indicators. A child that fails or sends a
    short payload has its range recomputed here, to the same bits, and no
    child outlives the call.
    """
    if not threshold > 0:
        raise ValueError("threshold must be strictly positive")
    n = config.replicates
    workers = _worker_count(n, config.step_count, ctx.ou.m, config.workers, _usable_cpus())
    bounds = [n * k // workers for k in range(workers + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))  # the first range, [0, bounds[1]), runs here
    cur_hits = np.empty(n, dtype=bool)
    tmp_hits = np.empty(n, dtype=bool)
    children = {}  # (start, stop) -> (pid, read end) of the child computing that range
    try:
        for start, stop in ranges:
            child = _fork_range(ctx, config, threshold, start, stop)
            if child is not None:
                children[start, stop] = child
        cur_hits[: bounds[1]], tmp_hits[: bounds[1]] = _indicator_range(ctx, config, threshold, 0, bounds[1])
        sent = {(start, stop): _receive(fd, stop - start) for (start, stop), (_, fd) in children.items()}
    except BaseException:  # stop every child before it is reaped
        import signal  # here only, so importing gridcap loads nothing new

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, fd in children.values():
            os.close(fd)
        exits = {key: os.waitpid(pid, 0)[1] for key, (pid, _) in children.items()}
    for start, stop in ranges:
        bits = sent.get((start, stop))
        if bits is None or exits[start, stop]:  # no child returned this range whole
            bits = _indicator_range(ctx, config, threshold, start, stop)
        cur_hits[start:stop], tmp_hits[start:stop] = bits
    return McIndicators(current=cur_hits, temperature=tmp_hits, threshold=float(threshold))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(replicates: int, step_count: int, m: int, cap, cpus: int) -> int:
    """Processes to split an estimate over.

    At most `cpus`, at most `cap` (None: no cap) and at most the
    replicates, and few enough that each draws at least NOISE_BLOCK_BYTES
    of noise, so a small run stays in the calling process.
    """
    blocks = -(-replicates * step_count * m * 8 // NOISE_BLOCK_BYTES)
    return max(1, min(cpus, cpus if cap is None else cap, blocks, replicates))


def _fork_range(ctx, config, threshold, start, stop):
    """Fork a child that computes replicates [start, stop) and sends them through a pipe.

    Returns (pid, read end), or None if no pipe or child could be made. The
    child leaves by os._exit, so it flushes none of the stdio it inherited.
    Its small matmuls are safe although BLAS may run threads here: OpenBLAS
    stops its pool before a fork. Python >= 3.12 warns on a fork in a
    threaded process all the same, which is silenced.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _send(write_fd, *_indicator_range(ctx, config, threshold, start, stop))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)  # before the next fork, so only this child holds it
    return pid, read_fd


def _send(fd, current, temperature):
    """Write a range's indicators to `fd`, packed two bits per replicate."""
    payload = memoryview(np.packbits(np.concatenate([current, temperature])))
    while payload:
        payload = payload[os.write(fd, payload) :]


def _receive(fd, count):
    """Read what `_send` wrote for `count` replicates: (current, temperature), or None if short."""
    size = -(-2 * count // 8)
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    bits = np.unpackbits(np.frombuffer(b"".join(chunks), dtype=np.uint8), count=2 * count).view(bool)
    return bits[:count], bits[count:]


def _indicator_range(ctx: PsiContext, config: McConfig, threshold: float, start: int, stop: int):
    """Current and temperature indicators of replicates [start, stop), in blocks."""
    n, m = config.step_count, ctx.ou.m
    mu, decay, std, C, y, q, c1, c2 = _coefficients(ctx, n)
    th2 = threshold * threshold
    rows = max(1, min(config.chunk, stop - start, NOISE_BLOCK_BYTES // (8 * n * m)))
    noise = np.empty(rows * n * m)
    paths = np.empty(rows * n * m)

    cur_hits = np.zeros(stop - start, dtype=bool)
    tmp_hits = np.zeros(stop - start, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(start, stop, rows):
            R = min(rows, stop - first)
            z = fill_normal_blocks(config.seed, first, noise[: R * n * m].reshape(R, n, m))
            x = paths[: R * n * m].reshape(n, m, R)
            np.copyto(x, z.transpose(1, 2, 0))
            _ou_paths(x, mu, decay, std)
            reach = _may_reach(x, mu, C, y, threshold, th2)
            cand = np.flatnonzero(reach.any(axis=0))
            if not cand.size:
                continue
            lines = np.flatnonzero(reach.any(axis=1))
            if lines.size == 1:  # keep C two rows tall (see `_peaks`)
                lines = np.repeat(lines, 2)
            cur, tmp = _peaks(
                x if cand.size == R else np.take(x, cand, axis=2), mu, *(c[lines] for c in (C, y, q, c1, c2))
            )
            cur_hit = cur >= th2
            cur_hits[first - start + cand] = cur_hit
            tmp_hits[first - start + cand] = cur_hit & (tmp >= th2)
    return cur_hits, tmp_hits


def _coefficients(ctx: PsiContext, step_count: int):
    """The kernel's coefficients: mu, decay, std, C, y, q, c1, c2.

    All but C are columns.
    """
    ou = ctx.ou
    dt = ou.horizon / step_count
    decay, std = ou_step_coefficients(ou, dt)
    q, c1, c2 = filter_coefficients(dt, ctx.tau)
    mu, decay, std, y, q, c1, c2 = (np.asarray(c)[:, None] for c in (ou.mean, decay, std, ctx.op.y, q, c1, c2))
    return mu, decay, std, ctx.flow.stochastic_block, y, q, c1, c2


def _ou_paths(x, mu, decay, std):
    """Turn the standard normal draws x (steps, m, R) into OU states, in place.

    x[k] becomes mu + (x[k-1] - mu) * decay + std * x[k], with x[-1] = mu.
    IEEE sums and products commute, so the in-place order rounds exactly as
    that expression does. Coefficients are widened to the R replicates
    because full-width operands step faster than broadcast ones.
    """
    mu, decay, std = (np.repeat(c, x.shape[2], axis=1) for c in (mu, decay, std))
    dev = np.empty_like(mu)
    prev = mu
    for xk in x:
        np.subtract(prev, mu, out=dev)
        dev *= decay
        dev += mu
        xk *= std
        xk += dev
        prev = xk


def _may_reach(x, mu, C, y, threshold, th2):
    """The (L, R) mask of the line-replicate pairs that may reach th2.

    A pair outside the mask can give neither a current hit nor a
    temperature at th2: its replicate is no candidate if no line reaches,
    and otherwise the kernel skips its line. Over a replicate's box
    lo <= x_k <= hi (all steps and the start) each line has
    |C x + y| <= |C mid + y| + |C| half. The slack makes the
    computed bound b cover the kernel's computed v = fl(fl(C x) + y) too,
    so fl(v v) <= fl(b b) by monotone rounding, and a line with
    b^2 < th2 cannot hit. With unit roundoff u = 2^-53,
    M = max(-lo, hi) = max(|lo|, |hi|) >= |x| and A = |C| M + |y| per
    line, to first order in u:
      - the kernel: gemm errs by at most m u |C| |x| in any summation order,
        and adding y rounds once more: |v| <= |C x + y| + (m + 1) u A;
      - the box: mid and half each round once, so
        |x - mid| <= half + 2 u M;
      - the bound: the two gemms lose 2 m u A and the abs, sums and the
        slack's own addition about 5 u A.
    That is (3 m + 8) u A. The slack 4 (m + 4) u (A + threshold) covers it
    with room for the second-order terms and its own rounding. It scales
    with A, not with the threshold alone, because C x and y can cancel.
    The threshold term absorbs the absolute errors of gradual underflow
    (2^-1075 per operation); a threshold too small for that has th2 = 0,
    and then every replicate is a candidate. So is one whose bound is inf
    or NaN.

    A skipped line's temperature must stay below th2 too. Its computed
    squared currents w_k are at most B = fl(b b); the kernel starts at
    theta_0 = w_0 and steps theta' = fl(fl(fl(q theta) + fl(c1 w)) +
    fl(c2 w')). The stored weights are non-negative and their exact sum S
    lies within u of 1: `filter_coefficients` rounds 1 - em and em - c2
    once each, and the rest cancels. By monotone rounding
    theta_k <= B P_k, with P_0 = 1 and
      P_{k+1} <= (1 + u)^3 (q P_k + c1 + c2) <= (1 + u)^3 S P_k <= (1 + 8 u) P_k,
    which leaves room for S up to 1 + 4 u. So theta <= B (1 + 8 u)^n after
    n steps, and a line is skipped only if B G < th2 with the grace
    G = fl((1 + 8 u)^(n + 2)) >= 1 + 8 (n + 2) u: its two spare factors
    cover the rounding of G, and fl(B G) < th2 implies B G < th2 because
    th2 is a float. Below the normal range each product also errs by up
    to 2^-1075, three per step. For th2 >= 2^-900 that cannot matter: if
    B >= 2^-910 the spare factors leave 14 u B, far above
    3 (n + 1) 2^-1075, and a smaller B keeps theta below 2^-909. A smaller
    th2 gets an infinite grace, and every pair reaches.

    The bound is formed in place in two (L, R) arrays, in the operation
    order of
      bound = |C mid + y| + |C| half + (2 (m + 4) eps) (|C| M + |y| + threshold).
    """
    shape = (C.shape[0], x.shape[2])
    bound, term = np.empty(shape), np.empty(shape)
    lo = x.min(axis=0)
    np.minimum(lo, mu, out=lo)
    hi = x.max(axis=0)
    np.maximum(hi, mu, out=hi)
    box = np.add(lo, hi)
    box *= 0.5  # mid
    np.matmul(C, box, out=bound)
    bound += y
    np.abs(bound, out=bound)
    abs_c = np.abs(C)
    np.subtract(hi, lo, out=box)
    box *= 0.5  # half
    np.matmul(abs_c, box, out=term)
    bound += term
    np.negative(lo, out=box)
    np.maximum(box, hi, out=box)  # M
    np.matmul(abs_c, box, out=term)
    term += np.abs(y)
    term += threshold
    eps = np.finfo(float).eps
    term *= 2 * (C.shape[1] + 4) * eps  # slack
    bound += term
    bound *= bound
    bound *= (1 + 4 * eps) ** (x.shape[0] + 2) if th2 >= 2.0**-900 else np.inf
    reach = bound < th2
    return np.logical_not(reach, out=reach)


def _peaks(x, mu, C, y, q, c1, c2):
    """Peak squared current and peak temperature of each column of stored states.

    `x` is (steps, m, W); every path starts at `mu`. NumPy's matmul takes a
    gemv path when an operand is one wide, and gemv rounds differently
    from gemm, so a lone column is priced twice over, and the caller passes
    C at least two rows tall: each (line, column) current is then the same
    bits in any block, candidate set or set of lines priced. The other
    coefficients are columns, widened here.
    The (L, W) updates run in place but keep the operation order of
    theta' = q theta + c1 u + c2 u'.
    """
    W = x.shape[2]
    if W == 1:
        x = np.repeat(x, 2, axis=2)
    y, q, c1, c2, x0 = (np.repeat(c, x.shape[2], axis=1) for c in (y, q, c1, c2, mu))
    u = (C @ x0 + y) ** 2
    theta = u.copy()
    cur = u.max(axis=0)
    tmp = cur.copy()
    u_next = np.empty_like(u)
    buf = np.empty_like(u)
    for xk in x:
        np.matmul(C, xk, out=u_next)
        u_next += y
        u_next *= u_next
        theta *= q
        np.multiply(c1, u, out=buf)
        theta += buf
        np.multiply(c2, u_next, out=buf)
        theta += buf
        u, u_next = u_next, u
        np.maximum(cur, u.max(axis=0), out=cur)
        np.maximum(tmp, theta.max(axis=0), out=tmp)
    return cur[:W], tmp[:W]


def overload_probability(
    ctx: PsiContext, config: McConfig, mode: str = "current", threshold: float = 1.0
) -> McEstimate:
    """Estimated probability of an overload before the horizon."""
    if mode not in ("current", "temperature"):
        raise ValueError(f"unknown mode {mode!r}")
    ind = overload_indicators(ctx, config, threshold)
    n = config.replicates
    hits = int(np.count_nonzero(ind.current if mode == "current" else ind.temperature))
    lo, hi = wilson_interval(hits, n)
    return McEstimate(mode=mode, threshold=ind.threshold, replicates=n, hits=hits, p_hat=hits / n, ci_low=lo, ci_high=hi)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log p-hat against inverse noise scale."""

    mode: str
    epsilons: tuple
    estimates: tuple
    slope: float
    intercept: float
    residual: float

    @property
    def rate(self) -> float:
        """Estimated decay rate: minus the fitted slope."""
        return -self.slope


def decay_slope(
    ctx: PsiContext,
    config: McConfig,
    epsilons,
    mode: str = "current",
    threshold: float = 1.0,
) -> DecayFit:
    """Fit the small-noise decay rate from estimates at several noise scales.

    Runs one estimate per epsilon (replacing the model's noise scale, same
    seed) and regresses log p-hat on 1/epsilon. Raises InsufficientHits if
    any estimate records zero hits.
    """
    eps = [float(e) for e in epsilons]
    if len(set(eps)) < 2:
        raise ValueError("need at least two distinct noise scales to fit a slope")
    if any(e <= 0 for e in eps):
        raise ValueError("noise scales must be strictly positive")
    estimates = []
    for e in eps:
        ctx_e = PsiContext(ctx.flow, ctx.op, replace(ctx.ou, noise_scale=e))
        est = overload_probability(ctx_e, config, mode, threshold)
        if est.hits == 0:
            raise InsufficientHits(
                f"no overloads in {est.replicates} replicates at noise scale {e}"
            )
        estimates.append(est)
    x = np.array([1.0 / e for e in eps])
    logp = np.log([est.p_hat for est in estimates])
    slope, intercept = np.polyfit(x, logp, 1)
    residual = float(np.sqrt(np.mean((logp - (slope * x + intercept)) ** 2)))
    return DecayFit(
        mode=mode,
        epsilons=tuple(eps),
        estimates=tuple(estimates),
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )
