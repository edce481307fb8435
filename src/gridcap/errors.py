"""Exception hierarchy shared across the package.

Every error raised by gridcap derives from :class:`GridCapError`, so callers
can catch one base class. The subclasses mirror the distinct failure modes of
the numerical pipeline: invalid inputs, degenerate linear algebra, infeasible
operating points, and solver breakdowns.

Each error also carries the exit status the ``gridcap`` command returns for
it, through one of three category bases: :class:`InvalidInput` (2),
:class:`EmptyResult` (3) and :class:`NumericalFailure` (4).
"""


class GridCapError(Exception):
    """Base class for all gridcap errors.

    Every concrete error derives from a category base that sets `exit_code`.
    """

    exit_code: int


class InvalidInput(GridCapError):
    """The input document or a parameter is invalid."""

    exit_code = 2


class EmptyResult(GridCapError):
    """The question is well posed but its answer is structurally empty."""

    exit_code = 3


class NumericalFailure(GridCapError):
    """A computation broke down numerically on valid input."""

    exit_code = 4


class LineError:
    """Mixin for an error about one line, placed before the category base.

    `line` is the line's index, in the package's internal line order
    (ZeroBaseFlow: its position in the document), or None when no one line
    is at fault. The message is `template` with "{line}" set to `name`,
    "line <index>" unless a caller that knows the input's bus ids renames
    it, as the command line does.
    """

    template = "{line}"

    def __init__(self, line=None, template=None):
        if template is not None:
            self.template = template
        self.line = line
        self.name = f"line {line}"
        super().__init__(line, self.template)

    def __str__(self):
        return self.template.format(line=self.name)


# --- input / document errors -------------------------------------------------

class SchemaError(InvalidInput):
    """A network document violates the JSON schema; message contains the path."""


class RoleError(InvalidInput):
    """Node roles are inconsistent (for example zero or multiple slack nodes)."""


class GraphError(InvalidInput):
    """The network graph is structurally invalid (for example disconnected)."""


class ParseError(InvalidInput):
    """A MATPOWER case body could not be parsed; message contains the line."""


class ZeroBaseFlow(LineError, InvalidInput):
    """A line carries no current at the deterministic base point, so the
    proportional rating rule cannot assign it a finite rating."""

    template = "zero base flow on {line}"


# --- linear algebra / model errors -------------------------------------------

class SingularReducedLaplacian(NumericalFailure):
    """The grounded Laplacian is numerically singular: a leaf of the
    factorization is singular or its 1-norm condition number reaches
    1/RANK_RTOL (wide susceptance ratios)."""


class RankDeficiency(LineError, NumericalFailure):
    """One line's normalized currents are not finite: its rating is so small
    that the line's row of the flow map overflows. (The name is kept for
    compatibility; the stochastic block's full column rank is a theorem.)"""

    template = "{line} has non-finite normalized currents"


class InfeasibleStart(InvalidInput):
    """The initial normalized currents are not strictly below the critical
    level, so no overload decay rate is defined."""


class ZeroVarianceLine(LineError, InvalidInput):
    """A line's terminal current variance is zero; the line does not respond
    to the stochastic injections and has no finite decay rate."""

    template = "{line} has zero terminal current variance"


class NoStochasticLines(EmptyResult):
    """No line is affected by the stochastic injections; every overload decay
    rate is infinite and only the deterministic region is informative."""


class NonUniformGamma(InvalidInput):
    """A closed form valid only for a common mean-reversion rate was called
    with heterogeneous rates."""


class NonUniformTau(InvalidInput):
    """A closed form valid only for a common thermal time constant was called
    on a network with heterogeneous line constants."""


class NonPositiveTau(InvalidInput):
    """A thermal time constant must be positive for the temperature map."""


# --- solver errors -----------------------------------------------------------

class NoBoundaryHit(NumericalFailure):
    """The exact-rate solver certified no answer: the problem discretized on
    one of its two levels has no certified optimum, or the two levels' rates
    differ by more than their extrapolation trusts."""


class BoundCollapse(LineError, EmptyResult):
    """A capacity-region bound dropped to zero or below: the parameters are so
    noisy that no admissible operating point exists for that line."""

    template = "capacity bound collapsed on {line}"


class EmptySlice(LineError, EmptyResult):
    """A requested two-dimensional slice of a capacity region is empty.

    `line` is the line that empties it, or None when no one line does: the
    polygon is degenerate, or no grid cell of a partition lies inside."""


class InsufficientHits(EmptyResult):
    """Monte Carlo produced zero hits for some noise scale; the decay-slope
    fit needs a positive estimate at every scale."""
