"""Multivector-valued fields on R^n and their first-order calculus.

A field answers `at(p, order)` with a Multivector whose coefficients are
Taylor jets of the requested order, so Dirac derivatives, Laplacians and
pointwise products compose freely: each derivative spends one order. Order 0
means values: `at(p, 0)`, and a derivative that spends a jet's last order,
give numbers (Batches on a chunk), not jets of order 0. A derived
field declares its inputs and how many extra orders it reads of each, orders
that its derivatives spend, so the fields form a graph in which each node's
order, the most that any consumer reads, is fixed when the graph is built.

Two derivative providers exist: expression-backed fields, with exact jets of
any order, from which every command builds its fields, and black-box fields
(central finite differences, orders 0 and 1), which no command reads.

A point is a tuple of coordinates. grid_residuals also hands the fields a
chunk of points as one point whose coordinates are Batches (batch.py), and
the same code then computes every point of the chunk at once. It sweeps a
GridSpec, CHUNK points at a time, or a few Points as one chunk, such as the
random points of the identity suite, once for all the checks of a command.
Every check is an Identity, the claim that two fields are equal, read as
values at each sample. Each check reads one exclusion chain: the grid's
predicates, then its own predicate if it has one, each read only where the
ones before it keep a point, alike on a chunk and at a single point.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

from .algebra import Multivector, _multivector, _signed_sum, blade_name, parse_blade, product_sign
from .batch import Batch, Flags
from .expr import ScalarExpr, Tape
from .taylor import JetOrderError, Taylor, coefficient

EPS_EXACT = 1e-9
EPS_FD = 1e-4
FD_STEP = 1e-5
# grid points that grid_residuals evaluates together: each benchmark grid (125, 81 and 64
# points) is one chunk. Each field keeps the jets of the chunk it evaluated last, about
# 6 to 8 KB a point, so the bound holds down peak memory (README)
CHUNK = 128


class FieldError(ValueError):
    pass


class PreconditionError(ValueError):
    """An input failed the residual check that the construction assumes."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _value(c):
    """A jet's value; a number is its own value."""
    return c.value if isinstance(c, Taylor) else c


def mv_value(mv: Multivector) -> Multivector:
    """The values of a multivector of jets or numbers, without the blades that are zero."""
    return mv.map_coeffs(_value)


def _values(mv: Multivector) -> Multivector:
    """The values of mv's jets at every blade, zeros kept: a zero meets what its jet would (0 * inf is NaN)."""
    return _multivector(mv.n, {m: _value(c) for m, c in mv.terms.items()}, drop=False)


def mv_partial(mv: Multivector, j: int) -> Multivector:
    """Componentwise partial derivative along axis j (1-based)."""
    return mv.map_coeffs(lambda t, _j=j - 1: t.partial(_j))


def mv_dirac(mv: Multivector) -> Multivector:
    """Sum over j of e_j times the j-th partial of the coefficients.

    With blades as bitmasks, e_j e_m is the blade bit_j ^ m times
    product_sign(bit_j, m), so each term maps to one blade directly.
    """
    return _signed_sum(mv.n, (((1 << j) ^ m, product_sign(1 << j, m), c.partial(j))
                              for j in range(mv.n) for m, c in mv.terms.items()))


def mv_grade_shift_mul(mv: Multivector, j: int, t: int, r: Multivector) -> Multivector:
    """[e_j G]_t R, each term added or subtracted by the sign of e_j e_m times its own: none is negated."""
    bit = 1 << (j - 1)
    return _signed_sum(mv.n, ((bit ^ m ^ b, product_sign(bit, m) * product_sign(bit ^ m, b), cg * cr)
                              for m, cg in mv.terms.items() if (bit ^ m).bit_count() == t
                              for b, cr in r.terms.items()))


def mv_laplacian(mv: Multivector) -> Multivector:
    """Sum over j of the j-th second partial of the coefficients: values where it spends their last order.
    The first partial is a jet, so at order 1 the second raises JetOrderError as at order 0."""
    return _signed_sum(mv.n, ((m, 1, c.diff(j).partial(j)) for j in range(mv.n) for m, c in mv.terms.items()))


class MultivectorField:
    """Base class: map from points of R^n to multivectors, with jets.

    `order` is the jet order that `evaluate` computes: the most that any
    consumer reads. Building a consumer raises it through `demand`, which
    raises the inputs in turn, and so does a call of `at` for a higher order.
    `at` keeps the jets of the last point (the same tuple object); a lower
    order is their truncation, bit for bit the fresh jet, as degree-k
    coefficients ignore higher ones. Order 0 gives their values instead, at
    every blade the jets have, kept for the point like the jets: a derived
    field at order 0 computes on numbers, and gives numbers.
    """

    n: int
    order = 0
    inputs = ()  # (field, extra orders read) pairs
    _last = (None, None, None)  # (point, jets, their values or None until read)

    def demand(self, order: int):
        """Raise this field's order to `order`, and its inputs' orders to match."""
        if order > self.order:
            self.order = order
            self._last = (None, None, None)
            for field, extra in self.inputs:
                field.demand(order + extra)

    def at(self, p, order: int = 0) -> Multivector:
        if order > self.order:
            self.demand(order)
        p = tuple(p)
        point, jets, values = self._last
        if p is not point:
            jets, values = self.evaluate(p), None
        if not order and values is None:
            values = _values(jets)
        self._last = (p, jets, values)
        if not order:
            return values
        if order < self.order:
            jets = jets.map_coeffs(lambda c: c.truncate(order) if isinstance(c, Taylor) else c)
        return jets

    def evaluate(self, p: tuple) -> Multivector:
        raise NotImplementedError

    def value(self, p) -> Multivector:
        return mv_value(self.at(p, 0))  # without the blades that are zero at p

    @property
    def dirac(self) -> "MultivectorField":
        """The field D(self): one node while anything holds it, so every check that
        reads it shares its point cache."""
        return self.node("dirac", lambda: DerivedField(mv_dirac, (self, 1)))

    @property
    def square(self) -> "MultivectorField":
        """The field self * self, one node like `dirac`."""
        return self.node("square", lambda: DerivedField(lambda fj: fj * fj, (self, 0)))

    @property
    def laplacian(self) -> "MultivectorField":
        """The field Lap(self), one node like `dirac`, which consumers of -Lap subtract; build it with the
        check that reads it, as building it mid-sweep raises self's order and clears self's cache."""
        return self.node("laplacian", lambda: DerivedField(mv_laplacian, (self, 2)))

    def node(self, key, build):
        """The node `key` on this field, built by build() unless a consumer holds it. Nodes are
        held by weak reference: a node holds its inputs, so a strong reference back would make a
        cycle, and a command's fields, with the jets of their last chunk, would outlive it until
        the garbage collector ran. A key may name another input by id; the node keeps it alive."""
        nodes = self.__dict__.setdefault("_nodes", weakref.WeakValueDictionary())
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = build()
        return node


class ExprField(MultivectorField):
    """Exact-mode field: one scalar expression per blade, all in one tape that
    each evaluation runs once, computing shared subexpressions once."""

    def __init__(self, n: int, components):
        self.n = n
        self.tape = Tape(n)
        self.components = {}
        for key, src in components.items():
            mask = key if isinstance(key, int) else parse_blade(key)
            if mask in self.components:
                raise FieldError(f"blade {blade_name(mask)} is named twice")
            if isinstance(src, ScalarExpr) and src.n != n:
                raise FieldError(f"component {blade_name(mask)} parsed for dimension {src.n}, field has {n}")
            self.components[mask] = self.tape.adopt(src) if isinstance(src, ScalarExpr) else self.tape.parse(src)
        for mask in self.components:
            if mask >= 1 << n:
                raise FieldError(f"blade {blade_name(mask)} does not fit in dimension {n}")
        self._slots = self.tape.order(e.slot for e in self.components.values())

    @classmethod
    def scalar(cls, n, src):
        return cls(n, {0: src})

    def evaluate(self, p):
        jets = self.tape.run(self._slots, p, self.order)
        return Multivector(self.n, {m: jets[e.slot] for m, e in self.components.items()})

    def render_components(self):
        return {blade_name(m): e.render() for m, e in sorted(self.components.items())}


class ConstantField(MultivectorField):
    def __init__(self, mv: Multivector):
        self.n = mv.n
        self.mv = mv

    def evaluate(self, p):
        return self.mv.map_coeffs(lambda c: Taylor.constant(c, self.n, self.order))


class FDField(MultivectorField):
    """Black-box field differentiated by central differences (orders 0 and 1); no command reads one.
    The black box takes one point, so a chunk of points is refused: grid_residuals then evaluates
    that chunk one point at a time."""

    def __init__(self, n: int, fn):
        self.n = n
        self.fn = fn

    def evaluate(self, p):
        order = self.order
        if order > 1:
            raise JetOrderError("finite-difference fields provide jets up to order 1 only")
        if type(p[0]) is Batch:
            raise FieldError("a finite-difference field is evaluated one point at a time")
        n, h = self.n, FD_STEP
        base = self.fn(p)
        coefs = {m: {0: coefficient(c)} for m, c in base.terms.items()}  # monomial index 0: the constant
        if order >= 1:
            scale = 1.0 / (2 * h)
            for j in range(n):
                diff = self.fn(p[:j] + (p[j] + h,) + p[j + 1:]) - self.fn(p[:j] + (p[j] - h,) + p[j + 1:])
                for m, c in diff.terms.items():
                    coefs.setdefault(m, {})[1 + j] = coefficient(c) * scale  # index 1 + j: x_j
        return Multivector(n, {m: Taylor(n, order, cf) for m, cf in coefs.items()})


class DerivedField(MultivectorField):
    """Field fn(jets of each input), for inputs given as (field, extra) pairs:
    fn reads each field's jets at this field's order plus `extra`."""

    def __init__(self, fn, *inputs):
        self.n = inputs[0][0].n
        self.fn = fn
        self.inputs = inputs
        for field, extra in inputs:
            field.demand(extra)

    def evaluate(self, p):
        order = self.order
        return self.fn(*[field.at(p, order + extra) for field, extra in self.inputs])


# -- field combinators ------------------------------------------------------

def add_fields(*fields):
    return DerivedField(lambda *jets: sum(jets[1:], jets[0]), *((f, 0) for f in fields))


def right_const_mul_field(f, mv):
    return DerivedField(lambda fj: fj * mv, (f, 0))


def scalar_of(mv: Multivector):
    return mv.coeff(0)


def _lifted(fn, c, n):
    """fn of the jet c; of a value c, the value of fn of c as an order-0 jet, so that a value
    raises what its jet would (JetDomainError at a zero of a reciprocal)."""
    return fn(c) if isinstance(c, Taylor) else fn(Taylor.constant(c, n, 0)).value


def grade_field(x, k):
    """The grade-k part of the field x, one node like `dirac`."""
    return x.node(("grade", k), lambda: DerivedField(lambda xj: xj.grade(k), (x, 0)))


# -- the graded Leibniz rule ----------------------------------------------------

def leibniz_field(gk: MultivectorField, f: MultivectorField, k: int) -> MultivectorField:
    """The residual of the graded Leibniz rule for a k-vector first factor G = gk, as a field:

    D(G f) - [D(G) f + 2 sum_j [e_j G]_{k-1} d_j(f) + (-1)^k G D(f)]

    It reads G and f one order up, for their derivatives, and at its own order for the factors
    of the products that take none; the scalar rule is its k = 0 case.
    """

    def residual(g, fj, gv, fv):
        if not g.is_homogeneous(k):
            raise FieldError(f"first factor is not a pure {k}-vector (grades {g.grades()})")
        lhs = mv_dirac(g * fj)
        rhs = mv_dirac(g) * fv
        for j in range(1, g.n + 1):
            rhs = rhs + 2.0 * mv_grade_shift_mul(gv, j, k - 1, mv_partial(fj, j))
        rhs = rhs - gv * mv_dirac(fj) if k & 1 else rhs + gv * mv_dirac(fj)  # (-1)^k G D(f), with no product by +-1.0
        return lhs - rhs

    return DerivedField(residual, (gk, 1), (f, 1), (gk, 0), (f, 0))


def scalar_leibniz_residual(phi: MultivectorField, f: MultivectorField, p) -> Multivector:
    """D(phi f) - [D(phi) f + phi D(f)] at p, for scalar-valued phi: the graded rule at k = 0."""
    return leibniz_field(phi, f, 0).value(p)


def kvector_leibniz_residual(gk: MultivectorField, f: MultivectorField, k: int, p) -> Multivector:
    """The residual of the graded Leibniz rule (leibniz_field) at p."""
    return leibniz_field(gk, f, k).value(p)


# -- grids and residual aggregation ------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """samples_per_axis evenly spaced samples on each axis of a box, swept in
    itertools.product order. `exclusion` is a tuple of predicates point -> bool
    (True = skip): the head of every check's exclusion chain in grid_residuals."""

    box: tuple
    samples_per_axis: int = 11
    exclusion: tuple = ()

    def __post_init__(self):
        if not self.box:
            raise FieldError("grid box must have at least one axis")
        for lo, hi in self.box:
            if not -math.inf < lo < hi < math.inf:
                raise FieldError(f"bad axis range [{lo}, {hi}]")
        if self.samples_per_axis < 2:
            raise FieldError("need at least 2 samples per axis")
        if self.samples_per_axis ** len(self.box) > 1_000_000:
            raise FieldError("grid too large (over 1e6 samples)")

    @property
    def n(self):
        return len(self.box)

    @functools.cached_property
    def center(self):
        return tuple((lo + hi) / 2 for lo, hi in self.box)

    def axis_samples(self, axis):
        lo, hi = self.box[axis]
        s = self.samples_per_axis
        return [lo + (hi - lo) * i / (s - 1) for i in range(s)]

    def chunks(self):
        """(points, batch point) for each run of CHUNK grid points in order, excluded ones
        included; the batch point is the tuple of the points' coordinates as Batches. Each
        chunk is made when the sweep reaches it, and no sweep shares it with another."""
        points = itertools.product(*(self.axis_samples(a) for a in range(self.n)))
        while chunk := list(itertools.islice(points, CHUNK)):
            yield chunk, _batch_point(chunk)

    def with_exclusion(self, pred):
        """The grid with pred appended to its exclusion, read where the earlier predicates keep a point."""
        return GridSpec(self.box, self.samples_per_axis, self.exclusion + (pred,))

    @classmethod
    def cube(cls, n, lo=-1.0, hi=1.0, samples_per_axis=11):
        return cls(tuple((lo, hi) for _ in range(n)), samples_per_axis)


class Points(tuple):
    """A few points that grid_residuals sweeps as one chunk, in their order."""

    exclusion = ()

    def chunks(self):
        yield list(self), _batch_point(self)


@dataclass(frozen=True)
class ResidualReport:
    """A check's sup and rms residual norm and sample count, and its deciding sample's point and
    tolerance (Tally). An identity suite entry, whose fields are drawn at random, has no point nor rms."""

    sup_norm: float
    rms: float
    worst_point: tuple
    samples_used: int
    tolerance: float
    passed: bool

    def to_dict(self):
        d = {"sup_norm": self.sup_norm, "rms": self.rms, "worst_point": self.worst_point and list(self.worst_point),
             "samples_used": self.samples_used, "tolerance": self.tolerance, "pass": self.passed}
        return {key: value for key, value in d.items() if value is not None}


class Tally:
    """The running report of one check's samples under the one tolerance rule (Oettli and Prager's
    componentwise backward error): a sample of residual norm r and scale s passes when r is finite
    and r <= t, for t = tol where given, else eps * (1 + s). The check passes when its deciding
    sample does: the one with the largest r / t, NaN first, the later of equals. That is the largest
    r / (1 + s), or r under tol, which a zero eps or tol leaves without a division by zero."""

    def __init__(self, tol=None, eps=EPS_EXACT):
        self.tol, self.eps, self.sup, self.sumsq, self.count = tol, eps, 0.0, 0.0, 0
        self.decider = (-math.inf, 0.0, 0.0, None)  # r / (1 + s) or r, r, s, point

    def take(self, points, kept, rs, ss):
        """Add the samples of residual norms rs and scales ss at the points of the indices kept."""
        sup, sumsq, count, decider = self.sup, self.sumsq, self.count, self.decider
        relative = self.tol is None
        for k, r, s in zip(kept, rs, ss):
            w = r / (1.0 + s) if relative else r
            # NaN compares false with everything: take it explicitly, or it would never decide
            if w >= decider[0] or w != w:
                decider = (w, r, s, points[k])
            if r > sup or r != r:
                sup = r
            sumsq += r * r
            count += 1
        self.sup, self.sumsq, self.count, self.decider = sup, sumsq, count, decider

    def report(self) -> ResidualReport:
        _, r, s, point = self.decider
        t = self.tol if self.tol is not None else self.eps * (1.0 + s)
        # an infinite residual fails even an infinite tolerance
        return ResidualReport(self.sup, math.sqrt(self.sumsq / self.count), point, self.count, t,
                              math.isfinite(r) and r <= t)


@dataclass(frozen=True)
class Identity:
    """The claim lhs = rhs of two fields, checked at every sample of a grid_residuals sweep: its
    residual norm is r = |lhs - rhs|, or |lhs| for no rhs, and its scale s = |scale|, or 0 for
    no scale, the size that the tolerance grows with (usually that of a side of the identity)."""

    lhs: MultivectorField
    rhs: MultivectorField | None = None
    scale: MultivectorField | None = None


def grid_residuals(checks, grid: GridSpec | Points, tol=None, eps=EPS_EXACT, tallies=None) -> list:
    """Reports of several identities from one sweep of the grid or the points.

    `checks` lists (identity, what) pairs, or (identity, what, exclusion)
    triples, in report order, each identity an Identity of fields. A check's
    samples go to a Tally of tol and eps, which decides it by the one tolerance
    rule, or to its own of `tallies`, as the identity suite's rounds add theirs.
    `what` names a precondition, or is None. A check's exclusion chain
    is the grid's predicates followed by its own `exclusion`, if it has one:
    predicates point -> bool (True = skip), each read only at the points that
    the ones before it keep. The outcome is that of one sweep per check in list
    order, each point by point through its own chain: an exception from check
    i, or from a predicate of its chain, is held and stops checks i and later;
    then each check in turn raises it, else FieldError if it kept no point,
    else PreconditionError for a failed precondition, else gives its report.

    A grid is evaluated CHUNK points at a time and Points as one chunk, each
    chunk as one point of Batch coordinates (_outcomes). A check on which
    anything raises in a chunk, or whose residual or scale is non-finite at a
    kept point, is replayed through the same routine one plain point at a
    time, so the outcome is that of a sweep point by point; a lone point is
    its own replay. The replay skips the checks that succeeded: a check never
    raises on the points where its chunk did not, and a check after one that
    raises is stopped, so its samples are never reported.
    """
    tallies = tallies or [Tally(tol, eps) for _ in checks]
    errors, live = [None] * len(checks), len(checks)  # the checks from index `live` on have stopped

    for points, batch_point in grid.chunks():
        again = []  # the checks to replay one point at a time
        outcomes = _outcomes(checks[:live], grid.exclusion, points, batch_point)
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception) or not all(map(math.isfinite, itertools.chain(*outcome[1:]))):
                again.append(i)
            else:
                tallies[i].take(points, *outcome)
        for p in points:
            again = [i for i in again if i < live]
            if not again:  # no check is left to replay, so no sweep would run a predicate further
                break
            # a lone point is its own batch point, so its outcomes on the chunk are its replay's
            replay = [outcomes[i] for i in again] if batch_point is p else \
                _outcomes([checks[i] for i in again], grid.exclusion, [p], p)
            for i, outcome in zip(again, replay):
                if isinstance(outcome, Exception):
                    errors[i], live = outcome, i
                    break
                tallies[i].take([p], *outcome)
        if not live:
            break
    reports = []
    for check, err, tally in zip(checks, errors, tallies):
        if err is not None:
            raise err
        if tally.count == 0:
            raise FieldError("all grid points were excluded")
        report = tally.report()
        if check[1] is not None and not report.passed:
            raise PreconditionError(f"{check[1]} (sup {report.sup_norm:.3g})", report)
        reports.append(report)
    return reports


def _outcomes(checks, exclusion, points, batch_point):
    """Each check's outcome on points given as one batch point, a chunk or a single plain point:
    (indices of the points its exclusion chain keeps, residual norms there, scales there), or
    the exception that the check or a predicate of its chain raised. The chain is the grid's
    exclusion followed by the check's own predicate; each predicate, and then the identity's
    lhs, rhs and scale in that order, is read at the points that the chain before it keeps,
    as one batch point that checks keeping the same points share, so a point masked as
    singular fails nothing. A scale's norm at the same kept points is taken once for all
    the checks, as a field's value there is the same for each."""
    every = tuple(range(len(points)))
    subsets, reads, norms = {every: batch_point}, {}, {}

    def each(x, count):
        """x at each of count points: a number is the same at every point."""
        return x if type(x) in (Batch, Flags) else [x] * count

    def at(kept):
        if kept not in subsets:
            subsets[kept] = _batch_point([points[k] for k in kept])
        return subsets[kept]

    def keep(kept, pred):
        """The points of kept that pred keeps, read once for all the checks and not where no point is left."""
        if kept and (pred, kept) not in reads:
            reads[pred, kept] = tuple(k for k, skip in zip(kept, each(pred(at(kept)), len(kept))) if not skip)
        return reads[pred, kept] if kept else kept

    outcomes = []
    for check in checks:
        identity = check[0]
        try:
            kept = functools.reduce(keep, exclusion + check[2:], every)
            r = s = 0.0  # no point, no value to take
            if kept:
                p = at(kept)
                lhs = identity.lhs.value(p)
                rhs = None if identity.rhs is None else identity.rhs.value(p)
                r = (lhs if rhs is None else lhs - rhs).norm()
                scale = identity.scale  # a side that is the scale too is read once
                if scale is not None and (scale, kept) not in norms:
                    norms[scale, kept] = (lhs if scale is identity.lhs else rhs if scale is identity.rhs
                                          else scale.value(p)).norm()
                s = 0.0 if scale is None else norms[scale, kept]
            outcomes.append((kept, each(r, len(kept)), each(s, len(kept))))
        except Exception as err:
            outcomes.append(err)
    return outcomes


def _batch_point(points):
    """The point whose coordinates are the Batches of the points' coordinates; a lone point is
    itself, with plain numbers as in a replay, which cost less than Batches of one."""
    return tuple(points[0]) if len(points) == 1 else tuple(Batch(p[a] for p in points) for a in range(len(points[0])))


def grid_residual(check: Identity, grid: GridSpec, tol=None, eps=EPS_EXACT) -> ResidualReport:
    """The report of one identity over the grid (see grid_residuals)."""
    return grid_residuals([(check, None)], grid, tol, eps)[0]
