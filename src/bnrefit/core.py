"""Discrete Bayesian networks as dense probability tables.

A network couples a DAG over finitely-valued variables with one conditional
probability table (CPT) per variable; the joint distribution is the product
of the CPT entries selected by each full instantiation.  This module holds
the domain types (variable declarations, CPTs, networks, joint tables,
marginal constraints) and the table primitives every solver builds on:
joint construction, marginalization, CPT extraction, I-divergence, and the
structural-consistency and constraint-residual checks.

Tables are numpy arrays with one axis per scope variable, axes in scope
order.  Flattened in C order they enumerate instantiations in mixed-radix
order with the last scope variable varying fastest; the file formats in
``fileio`` rely on exactly this convention.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

logger = logging.getLogger("bnrefit")

TAU_NORM = 1e-9
"""Normalization tolerance applied whenever a table is ingested.

Rows and distributions must sum to one within this bound; nothing is
renormalized silently on ingest."""

DENSE_CEILING = 25
"""Base-2 logarithm of the most cells a dense joint may hold (2^25 cells
puts a quarter-gigabyte table on the floor; past that only d-ipfp and check
make sense).  The cell count is the product of the cardinalities, so a few
many-state variables can exceed it.  Building one dense product (a joint,
a structural projection or a re-extraction) holds up to 1.5 joints at its
peak: the table and a scratch table of the level below it."""


class BnError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BnError):
    """A type invariant failed while constructing or checking an object."""


class CycleError(ValidationError):
    """The parent graph contains a directed cycle."""


class NormalizationError(ValidationError):
    """A table row or distribution does not sum to one within TAU_NORM."""


class ScopeError(BnError):
    """An operation was asked to relate tables over incompatible scopes."""


class DenseCeilingError(BnError):
    """A dense joint was requested over more cells than the ceiling."""


class DominanceError(BnError):
    """A constraint demands mass where the current distribution has none.

    Proportional fitting can only reweight existing support; a target that
    is positive on a zero-probability cell is unreachable.
    """


_Placement = tuple[tuple[int, ...], tuple[int, ...]]
"""A transpose order and the shape its result is reshaped to."""


def _placement(axes: Sequence[int], sizes: Sequence[int],
               ndim: int) -> _Placement:
    """The view that puts a table's axis ``i``, of length ``sizes[i]``, on
    destination axis ``axes[i]`` of an ``ndim``-axis array.

    The order transposes the table's axes into increasing destination
    order; the shape has a length-one axis for every destination axis the
    table lacks, so the view broadcasts against any table over all
    ``ndim`` axes.  ``axes`` need not be increasing.  Both are worked out
    in plain Python: on axis lists this short that is cheaper than numpy.
    """
    shape = [1] * ndim
    for a, size in zip(axes, sizes):
        shape[a] = size
    return tuple(sorted(range(len(axes)), key=axes.__getitem__)), tuple(shape)


def _apply(table: np.ndarray, placement: _Placement) -> np.ndarray:
    """``table`` transposed and reshaped by ``placement``; a view."""
    order, shape = placement
    return table.transpose(order).reshape(shape)


def _placed(table: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """View of ``table`` broadcastable over an ``ndim``-axis array, its axis
    ``i`` on destination axis ``axes[i]`` (see ``_placement``)."""
    return _apply(table, _placement(axes, table.shape, ndim))


@dataclass(frozen=True)
class VariableDecl:
    """A named discrete variable with states indexed ``0..cardinality-1``.

    ``states`` is an optional tuple of display labels; indices, not labels,
    are what tables and file formats are keyed by.
    """

    name: str
    cardinality: int
    states: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("variable name must be a non-empty string")
        if not isinstance(self.cardinality, int) or self.cardinality < 2:
            raise ValidationError(
                f"variable {self.name!r}: cardinality must be an integer >= 2, "
                f"got {self.cardinality!r}"
            )
        if self.states is not None:
            object.__setattr__(self, "states", tuple(self.states))
            if len(self.states) != self.cardinality:
                raise ValidationError(
                    f"variable {self.name!r}: {len(self.states)} state labels "
                    f"for cardinality {self.cardinality}"
                )


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table for one child variable.

    ``table`` has one axis per parent, in ``parent_order``, plus a final
    axis for the child; each parent configuration selects a row that is a
    distribution over the child's states.  The array is stored read-only.
    """

    child: str
    parent_order: tuple[str, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "parent_order", tuple(self.parent_order))
        if len(set(self.parent_order)) != len(self.parent_order):
            raise ValidationError(f"CPT for {self.child!r}: duplicate parent")
        if self.child in self.parent_order:
            raise ValidationError(f"CPT for {self.child!r}: child listed as its own parent")
        table = np.array(self.table, dtype=float)
        if table.ndim != len(self.parent_order) + 1:
            raise ValidationError(
                f"CPT for {self.child!r}: table has {table.ndim} axes, "
                f"expected {len(self.parent_order) + 1} (parents plus child)")
        if table.shape[-1] < 2:
            raise ValidationError(
                f"CPT for {self.child!r}: child axis has length {table.shape[-1]}")
        _check_cpts([(self.child, self.parent_order, table)])
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def _check_cpts(families: Sequence[tuple[str, tuple, np.ndarray]]) -> None:
    """Raise for the first of ``families`` (child, parents, table) with an
    entry outside [0, 1], or else a row more than ``TAU_NORM`` from summing
    to one; tables whose child has ``c`` states are checked in one batch."""
    first = len(families)
    for c in {t.shape[-1] for _, _, t in families}:
        group = [i for i, f in enumerate(families) if f[2].shape[-1] == c]
        rows = np.concatenate([families[i][2] for i in group],
                              axis=None).reshape(-1, c)
        # Written so that NaN, for which every comparison is False, fails.
        bad = ~((rows >= 0.0) & (rows <= 1.0 + TAU_NORM)).all(axis=1)
        bad |= np.abs(rows.sum(axis=1) - 1.0) > TAU_NORM
        if bad.any():
            sizes = [families[i][2].size // c for i in group]
            first = min(first, int(np.repeat(group, sizes)[bad.argmax()]))
    if first == len(families):
        return
    child, parent_order, table = families[first]
    if not np.all((table >= 0.0) & (table <= 1.0 + TAU_NORM)):
        raise ValidationError(f"CPT for {child!r}: entries must lie in [0, 1]")
    sums = table.reshape(-1, table.shape[-1]).sum(axis=1)
    i = int(np.argmax(np.abs(sums - 1.0) > TAU_NORM))
    config = np.unravel_index(i, table.shape[:-1]) if parent_order else ()
    where = ", ".join(f"{p}={int(v)}" for p, v in zip(parent_order, config))
    raise NormalizationError(
        f"CPT for {child!r}: row {i} ({where or 'no parents'}) "
        f"sums to {sums[i]:.17g}, more than {TAU_NORM:g} away from 1")


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense probability table over an ordered scope of variables.

    ``probs`` carries one axis per scope variable, axes in scope order, and
    sums to one within ``TAU_NORM``.  A flat array of the right total size
    is accepted and reshaped.  The array is stored read-only.

    Validation happens at the boundary: constructing a ``JointTable``
    directly, as callers and the file parsers in ``fileio`` do, copies the
    array and checks its shape, that no entry is negative or NaN, and its
    total.  Tables the package computes itself from validated tables
    (marginals, fitted and projected joints, the prefixes of a CPT
    extraction and ``joint_from_network``'s product) are built by
    ``_computed`` instead, which checks nothing and copies nothing: they
    have the scope's shape, non-negative entries and a total within
    rounding of one because the arithmetic that made them preserves those
    properties, and their arrays are read-only all the same.
    """

    scope: tuple[VariableDecl, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        scope = tuple(self.scope)
        object.__setattr__(self, "scope", scope)
        if not scope:
            raise ValidationError("joint table needs a non-empty scope")
        names = [v.name for v in scope]
        if len(set(names)) != len(names):
            raise ValidationError(f"joint table scope repeats a variable: {names}")
        shape = tuple(v.cardinality for v in scope)
        probs = np.array(self.probs, dtype=float)
        if probs.ndim == 1 and probs.size == math.prod(shape):
            probs = probs.reshape(shape)
        if probs.shape != shape:
            raise ValidationError(
                f"joint table over {tuple(names)}: shape {probs.shape} does not "
                f"match cardinalities {shape}"
            )
        # Written so that NaN, for which every comparison is False, fails.
        if not np.all(probs >= 0.0):
            raise ValidationError(
                f"joint table over {tuple(names)}: negative or NaN entry")
        total = float(probs.sum())
        if abs(total - 1.0) > TAU_NORM:
            raise NormalizationError(
                f"joint table over {tuple(names)}: sums to {total:.17g}, more "
                f"than {TAU_NORM:g} away from 1"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.scope)

    def axis(self, name: str) -> int:
        for i, v in enumerate(self.scope):
            if v.name == name:
                return i
        raise ScopeError(f"variable {name!r} is not in scope {self.names}")


def _computed(scope: tuple[VariableDecl, ...], probs: np.ndarray,
              cls: type[JointTable] = JointTable, **fields) -> JointTable:
    """A ``cls`` (a ``JointTable`` or a subclass) over ``scope`` for an
    array the package computed.

    ``probs`` must already have the scope's shape and be derived from
    validated tables; it is frozen in place, not copied or scanned, and
    ``cls.__post_init__`` does not run.  A subclass's own fields are set
    from ``fields``.
    """
    table = object.__new__(cls)
    object.__setattr__(table, "scope", scope)
    probs.setflags(write=False)
    object.__setattr__(table, "probs", probs)
    for name, value in fields.items():
        object.__setattr__(table, name, value)
    return table


def _cpt(child: str, parent_order: tuple[str, ...], table: np.ndarray) -> Cpt:
    """``Cpt`` for a table ``_check_cpts`` passed, frozen, not copied."""
    cpt = object.__new__(Cpt)
    object.__setattr__(cpt, "child", child)
    object.__setattr__(cpt, "parent_order", parent_order)
    table.setflags(write=False)
    object.__setattr__(cpt, "table", table)
    return cpt


@dataclass(frozen=True, eq=False)
class Constraint:
    """A target marginal distribution over a subset of network variables."""

    scope: tuple[str, ...]
    dist: JointTable

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        if not self.scope:
            raise ValidationError("constraint scope must be non-empty")
        if len(set(self.scope)) != len(self.scope):
            raise ValidationError(f"constraint scope repeats a variable: {self.scope}")
        if self.dist.names != self.scope:
            raise ValidationError(
                f"constraint scope {self.scope} does not match its "
                f"distribution's scope {self.dist.names}"
            )

    @classmethod
    def over(cls, net: "NetworkSpec", names: Sequence[str], values) -> "Constraint":
        """Build a constraint against ``net``, taking declarations from it."""
        names = tuple(names)
        decls = tuple(net.decl(n) for n in names)
        return cls(names, JointTable(decls, values))


@dataclass(frozen=True)
class Local:
    """Constraint scope covered by one CPT: a target variable plus some of
    its parents."""

    target: str
    constrained_parents: tuple[str, ...]


@dataclass(frozen=True)
class NonLocal:
    """Constraint scope spanning several families.

    ``y`` is the constrained variable set and ``s`` the union of their
    parents outside ``y``, both in network declaration order.
    """

    y: tuple[str, ...]
    s: tuple[str, ...]


LocalityClass = Union[Local, NonLocal]


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """A DAG over declared variables plus one CPT per variable.

    ``parents`` maps each variable name to its ordered parent tuple (missing
    entries mean no parents); ``cpts`` maps each variable name to a ``Cpt``
    whose ``parent_order`` equals the declared parents and whose shape
    matches the declared cardinalities.  Construction validates everything,
    including acyclicity, so a ``NetworkSpec`` in hand is a usable network.

    ``rank`` (each variable's declaration position) and ``cards`` (its
    cardinality) are the lookups variable elimination takes; they are
    built once here rather than on every contraction.
    """

    variables: tuple[VariableDecl, ...]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, Cpt]
    names: tuple[str, ...] = field(init=False, repr=False)
    rank: Mapping[str, int] = field(init=False, repr=False)
    cards: Mapping[str, int] = field(init=False, repr=False)
    topo_order: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        variables = tuple(self.variables)
        object.__setattr__(self, "variables", variables)
        if not variables:
            raise ValidationError("network needs at least one variable")
        names = tuple(v.name for v in variables)
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable declaration")
        index = {n: i for i, n in enumerate(names)}
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rank", index)
        object.__setattr__(self, "cards",
                           {v.name: v.cardinality for v in variables})

        for key in self.parents:
            if key not in index:
                raise ValidationError(f"parents given for undeclared variable {key!r}")
        parents = {}
        for name in names:
            ps = tuple(self.parents.get(name, ()))
            if len(set(ps)) != len(ps):
                raise ValidationError(f"variable {name!r}: duplicate parent")
            for p in ps:
                if p not in index:
                    raise ValidationError(
                        f"variable {name!r}: parent {p!r} is not declared"
                    )
            parents[name] = ps
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "topo_order", self._toposort(names, parents))

        for key in self.cpts:
            if key not in index:
                raise ValidationError(f"CPT given for undeclared variable {key!r}")
        cpts = {}
        for name in names:
            cpt = self.cpts.get(name)
            if cpt is None:
                raise ValidationError(f"variable {name!r}: no CPT")
            if cpt.child != name:
                raise ValidationError(
                    f"CPT stored under {name!r} declares child {cpt.child!r}"
                )
            if cpt.parent_order != parents[name]:
                raise ValidationError(
                    f"variable {name!r}: CPT parent order {cpt.parent_order} "
                    f"differs from declared parents {parents[name]}"
                )
            want = tuple(self.cards[v] for v in parents[name] + (name,))
            if cpt.table.shape != want:
                raise ValidationError(
                    f"variable {name!r}: CPT shape {cpt.table.shape} does not "
                    f"match declared cardinalities {want}"
                )
            cpts[name] = cpt
        object.__setattr__(self, "cpts", cpts)

    @staticmethod
    def _toposort(names: tuple[str, ...], parents: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
        children: dict[str, list[str]] = {n: [] for n in names}
        pending = {n: len(parents[n]) for n in names}
        for n in names:
            for p in parents[n]:
                children[p].append(n)
        # The order is its own first-in first-out queue: the loop reaches
        # each node after every node appended before it.
        order = [n for n in names if pending[n] == 0]
        for n in order:
            for c in children[n]:
                pending[c] -= 1
                if pending[c] == 0:
                    order.append(c)
        if len(order) == len(names):
            return tuple(order)
        # Walk parent links among the leftover nodes until one repeats,
        # so the error can name an actual cycle.
        stuck = next(n for n in names if pending[n] > 0)
        seen: list[str] = []
        node = stuck
        while node not in seen:
            seen.append(node)
            node = next(p for p in parents[node] if pending[p] > 0)
        cycle = seen[seen.index(node):] + [node]
        raise CycleError("cycle detected: " + " -> ".join(reversed(cycle)))

    def axis(self, name: str) -> int:
        try:
            return self.rank[name]
        except KeyError:
            raise ScopeError(f"variable {name!r} is not declared in this network") from None

    def decl(self, name: str) -> VariableDecl:
        return self.variables[self.axis(name)]

    def cardinality(self, name: str) -> int:
        return self.decl(name).cardinality


def _sub_network(net: NetworkSpec, kept: Container[str]) -> NetworkSpec:
    """``net``'s families of the variables in ``kept``, in declaration order.

    ``kept`` must hold every parent of each variable it holds, and at least
    one variable; the ``Cpt`` objects are ``net``'s own.
    """
    names = [n for n in net.names if n in kept]
    return NetworkSpec(tuple(net.decl(n) for n in names),
                       {n: net.parents[n] for n in names},
                       {n: net.cpts[n] for n in names})


_BLOCK = 256
"""Fewest cells in the contiguous last axis a dense product runs on.

numpy's multiply pays a fixed cost per inner loop, one loop per cell of
every axis but the last, and on tables of length-2 axes that cost, not the
multiply count, dominates.  Median of 25 in-place multiplies of a 2^20-cell
table viewed as ``(-1, b)`` by a ``b``-cell factor (2-core Intel Xeon,
numpy 2.4.6): 4.0 ms at b = 2, 0.92 ms at 32, 0.77 ms at 256 and 0.72 ms
at 4096; as 20 binary axes by a CPT over axes (10, 13, 18) it is 3.6 ms.
256 cells sits on the plateau while keeping each materialized factor small.
"""


def _block_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape`` with its trailing axes merged into one block axis.

    The block is the shortest run of trailing axes that holds at least
    ``_BLOCK`` cells, or every axis when the table is smaller.  A C-order
    table of ``shape`` reshapes to this shape without a copy.
    """
    block = 1
    head = len(shape)
    while head and block < _BLOCK:
        head -= 1
        block *= shape[head]
    return tuple(shape[:head]) + (block,)


def _blocked(table: np.ndarray, axes: Sequence[int],
             shape: Sequence[int]) -> np.ndarray:
    """``table`` placed on ``axes`` of ``shape`` (as in ``_placed``),
    broadcastable over the ``_block_shape(shape)`` view of such a table.

    The factor is materialized over its own head axes times the whole
    block, so a multiply by it runs contiguous inner loops of at least
    ``_BLOCK`` cells; it never holds more cells than ``shape`` does.  It is
    the one item of ``_blocked_by_state`` for ``table`` given a
    length-one state axis.
    """
    return _blocked_by_state(table[None], [len(shape), *axes], shape)[0]


def _blocked_by_state(table: np.ndarray, axes: Sequence[int],
                      shape: Sequence[int]) -> np.ndarray:
    """``_blocked`` factors of ``table`` at each state of its highest axis.

    ``axes`` places ``table`` as in ``_placed``; its highest entry is
    ``len(shape)``, one past the axes of ``shape``.  Item ``x`` of the
    result is ``table`` taken at state ``x`` of that axis, broadcastable
    over the ``_block_shape(shape)`` view of a table of ``shape``.
    """
    blocks = _block_shape(shape)
    k = len(shape)
    placed = _placed(table, [0 if a == k else a + 1 for a in axes], k + 1)
    head = placed.shape[:len(blocks)]
    out = np.empty(head + blocks[-1:])
    out.reshape(head + tuple(shape[len(head) - 1:]))[...] = placed
    return out


def _cpt_product(variables: Sequence[VariableDecl],
                 tables: Mapping[str, np.ndarray],
                 parents: Mapping[str, tuple[str, ...]]) -> np.ndarray:
    """Multiply ``tables`` out to a dense table over ``variables``.

    ``tables`` maps each child to its conditional table, with axes
    ``parents[child]`` plus the child; ``variables`` must hold every child
    and parent named.

    The table is grown one declared axis at a time from a one-cell level.
    Level ``k + 1``, the product over the first ``k + 1`` variables, holds
    at state ``x`` of axis ``k`` one strided slice: level ``k`` in its
    ``_block_shape`` view, times each family whose highest axis is ``k``,
    taken at ``x``.  The block view's last axis is one contiguous block of
    at least ``_BLOCK`` cells once the level has that many, so no multiply
    runs numpy's inner loop over a short axis (``_BLOCK`` gives the
    measured cost of that loop).

    Each cell's factors are multiplied left to right starting from one,
    in order of each family's highest axis, families with the same highest
    axis in ``tables`` order.  When ``tables`` lists the families with
    their highest axes in non-decreasing order, as the callers do for a
    network declared in topological order, this is ``tables`` order, and
    the result is bit-identical to multiplying each factor in turn into a
    table of ones.  Otherwise it can differ from that by rounding.

    Level ``k + 1`` writes its cells once and reads level ``k`` once per
    state of axis ``k``; a second family with the same highest axis adds
    one in-place pass over the level.  On length-2 axes the levels sum to
    under twice the output, so a topologically declared network costs
    about two passes over a table of the output's size, however many
    families it has.  The levels alternate between the output and one
    scratch array of the level below it (at most half its cells), both
    allocated once, and the last level lands in the output, so the product
    holds up to 1.5 times the output's cells at its peak.
    """
    shape = tuple(v.cardinality for v in variables)
    axis = {v.name: i for i, v in enumerate(variables)}
    axes = {child: [axis[p] for p in parents[child]] + [axis[child]]
            for child in tables}
    by_last: dict[int, list[str]] = {}
    for child in tables:
        by_last.setdefault(max(axes[child]), []).append(child)
    n = len(shape)
    out = np.empty(math.prod(shape))
    scratch = np.empty(out.size // shape[-1])
    level = np.ones(1)
    for k in range(n):
        grown = (out if (n - k) % 2 else scratch)[:level.size * shape[k]]
        below = _block_shape(shape[:k])
        previous = level.reshape(below)
        view = grown.reshape(below + (shape[k],))
        factors = [_blocked_by_state(tables[child], axes[child], shape[:k])
                   for child in by_last.get(k, ())]
        for x in range(shape[k]):
            cell = view[..., x]
            if not factors:
                cell[...] = previous
            for i, factor in enumerate(factors):
                np.multiply(cell if i else previous, factor[x], out=cell)
        level = grown
    return out.reshape(shape)


def joint_from_network(net: NetworkSpec) -> JointTable:
    """Dense joint distribution of ``net``, axes in declaration order.

    The product of valid CPTs sums to one by construction; cyclic graphs
    and non-normalized rows are rejected earlier, when the network object
    is built.  A joint of more than ``2 ** DENSE_CEILING`` cells raises
    ``DenseCeilingError`` before anything is allocated.
    """
    cells = math.prod(net.cards.values())
    if cells > 2 ** DENSE_CEILING:
        raise DenseCeilingError(
            f"the dense joint of {_power_of_two(cells)} cells over "
            f"{len(net.variables)} variables is over the ceiling of "
            f"2^{DENSE_CEILING} cells")
    tables = {name: cpt.table for name, cpt in net.cpts.items()}
    return _computed(net.variables,
                     _cpt_product(net.variables, tables, net.parents))


def _sum_out(table: np.ndarray, drop: Sequence[int],
             combine: np.ufunc = np.add) -> np.ndarray:
    """Sum ``table`` over the axes in ``drop``, given in increasing order.

    Each dropped axis becomes the sum of its slices, or their fold by
    ``combine``: ``np.maximum`` takes their max instead.  numpy's ``sum``
    over a short axis runs its reduction loop once per remaining cell: on
    a 2^16-cell table whose axes all have length 2, ``P.sum(axis=-1)``
    takes 594 us where ``P[..., 0] + P[..., 1]`` takes 26 us (2-core Intel
    Xeon, numpy 2.4.6), and ``P.max`` over 9 of its 16 axes 1.7 ms where
    this fold takes 61 us.  Leading axes go first, because each of their
    slices is one contiguous block and every drop halves (or better) what
    the later, strided folds read.
    """
    for removed, axis in enumerate(drop):
        at = (slice(None),) * (axis - removed)
        total = table[at + (0,)]
        for j in range(1, table.shape[axis - removed]):
            total = combine(total, table[at + (j,)])
        table = total
    return table


def _project(table: np.ndarray, axes_vars: Sequence[str],
             keep: Sequence[str]) -> np.ndarray:
    """Sum ``table``, whose axes are named by ``axes_vars``, down to
    ``keep`` and put the axes in ``keep`` order.

    A name in ``keep`` that ``axes_vars`` lacks raises ``ScopeError``;
    ``keep`` must not repeat a name."""
    try:
        keep_axes = [axes_vars.index(v) for v in keep]
    except ValueError:
        missing = [v for v in keep if v not in axes_vars]
        raise ScopeError(f"variables {missing} are not in scope "
                         f"{tuple(axes_vars)}") from None
    kept = set(keep_axes)
    drop = [i for i in range(len(axes_vars)) if i not in kept]
    kept_sorted = sorted(keep_axes)
    return np.transpose(_sum_out(table, drop),
                        [kept_sorted.index(a) for a in keep_axes])


def marginalize(q: JointTable, target: Sequence[str]) -> JointTable:
    """Sum ``q`` down to ``target``, result axes in ``target`` order."""
    target = tuple(target)
    if not target:
        raise ScopeError("marginalization target must be non-empty")
    if len(set(target)) != len(target):
        raise ScopeError(f"marginalization target repeats a variable: {target}")
    names = q.names
    probs = _project(q.probs, names, target)
    return _computed(tuple(q.scope[names.index(t)] for t in target), probs)


def _divided(values: np.ndarray, sums: np.ndarray,
             fallback: np.ndarray | float) -> np.ndarray:
    """``values / sums``, broadcast, with ``fallback`` wherever a sum is zero.

    The zero-mass rule of every proportional step and every conditional
    read off a table: a row without mass carries no information, so it
    takes ``fallback`` (a scalar, or an array broadcastable to ``values``'
    shape) instead of a ratio.  ``sums`` must not be negative.  One
    ``np.count_nonzero`` decides: with no zero sum this is one plain
    divide, and otherwise a masked divide onto a copy of ``fallback``,
    which costs a few µs more and gives the same bits wherever both apply.
    """
    if np.count_nonzero(sums) == sums.size:
        return values / sums
    return np.divide(values, sums, out=np.full(values.shape, fallback),
                     where=sums > 0.0)


def _conditional(m: np.ndarray) -> np.ndarray:
    """Rows of ``m`` (last axis) normalized; zero-mass rows become uniform."""
    return _divided(m, m.sum(axis=-1, keepdims=True), 1.0 / m.shape[-1])


def extract_cpt(q: JointTable, child: str, parents: Sequence[str]) -> Cpt:
    """Conditional table of ``child`` given ``parents`` read off ``q``.

    Parent configurations with zero marginal probability carry no
    information, so their rows are filled uniformly.
    """
    parents = tuple(parents)
    m = marginalize(q, parents + (child,))
    return Cpt(child, parents, _conditional(m.probs))


def _prefixes(q: JointTable, net: NetworkSpec
              ) -> Iterator[tuple[str, np.ndarray]]:
    """Each family of ``net`` with the prefix of ``q.probs`` to read it off.

    A family's prefix is the shortest declaration-order prefix of ``q``
    that holds it: the marginal over the first ``m + 1`` variables, where
    ``m`` is the family's last axis.  The prefixes are walked from the full
    joint down, each the previous one with its trailing axis summed out,
    so every family marginal starts from a table that is smaller by the
    variables declared after it.  Declaration order need not be
    topological; a family with a later parent is read off a longer prefix.
    Families come out in walk order, last axis descending.
    """
    if q.names != net.names:
        raise ScopeError(
            f"joint scope {q.names} does not match network variables {net.names}"
        )
    by_last: dict[int, list[str]] = {}
    for name in net.names:
        last = max(net.axis(v) for v in net.parents[name] + (name,))
        by_last.setdefault(last, []).append(name)
    top = len(q.scope) - 1
    prefix = q.probs
    for m in range(top, min(by_last) - 1, -1):
        if m < top:
            prefix = _sum_out(prefix, (m + 1,))
        for name in by_last.get(m, ()):
            yield name, prefix


def extract_cpts(q: JointTable, net: NetworkSpec) -> dict[str, Cpt]:
    """The CPTs that ``net``'s DAG reads off ``q``, in declaration order.

    Each family is read off its declaration-order prefix of ``q`` (see
    ``_prefixes``), and each CPT is validated as it is built.
    """
    cpts = {name: extract_cpt(_computed(q.scope[:prefix.ndim], prefix),
                              name, net.parents[name])
            for name, prefix in _prefixes(q, net)}
    return {name: cpts[name] for name in net.names}


def _conditionals(q: JointTable, net: NetworkSpec) -> dict[str, np.ndarray]:
    """The conditional tables of ``extract_cpts``, as bare arrays.

    The same prefix walk and the same arithmetic, without building or
    validating ``Cpt`` objects; the structural projection runs on these.
    """
    tables = {name: _conditional(_project(prefix, net.names[:prefix.ndim],
                                          net.parents[name] + (name,)))
              for name, prefix in _prefixes(q, net)}
    return {name: tables[name] for name in net.names}


def _reextracted_product(q: JointTable, net: NetworkSpec
                         ) -> tuple[dict[str, Cpt], np.ndarray]:
    """The CPTs that ``net``'s DAG reads off ``q`` (``extract_cpts``) and
    their product.

    The product is the closest distribution to ``q`` that factors over the
    DAG in the extraction sense; comparing it with ``q`` measures how far
    ``q`` is from respecting the structure.
    """
    cpts = extract_cpts(q, net)
    tables = {name: cpt.table for name, cpt in cpts.items()}
    return cpts, _cpt_product(net.variables, tables, net.parents)


def _max_gap(product: np.ndarray, probs: np.ndarray) -> float:
    """Largest absolute cell difference between ``product`` and ``probs``.

    ``product`` is a freshly built array, such as the product
    ``_reextracted_product`` returns; the difference is taken in its
    memory, which it overwrites, so no temporary of the table's size is
    allocated.
    """
    np.subtract(product, probs, out=product)
    np.abs(product, out=product)
    return float(product.max())


def is_structurally_consistent(q: JointTable, net: NetworkSpec) -> bool:
    """Whether ``q`` equals its re-extracted product within ``TAU_NORM``."""
    return _max_gap(_reextracted_product(q, net)[1], q.probs) <= TAU_NORM


def _dominance_error(names: tuple[str, ...], mass: float,
                     idx: Sequence[int]) -> DominanceError:
    cell = ", ".join(f"{n}={int(v)}" for n, v in zip(names, idx))
    return DominanceError(
        f"constraint over {names} requires mass {mass:.17g} at "
        f"({cell}) where the current distribution has none"
    )


def _power_of_two(cells: int) -> str:
    """``2^72`` for 64^12 cells, where the integer can run to 300 digits."""
    return f"2^{math.log2(cells):.4g}"


def _ratio(target: np.ndarray, current: np.ndarray,
           names: tuple[str, ...]) -> np.ndarray:
    """Cellwise ``target / current``, the factor of a proportional step.

    Every solver's step runs through here.  When ``current`` has no zero
    cell this is one plain divide.  Otherwise cells where both are zero
    get ratio zero (``_divided``'s masked path), and a target that is
    positive where ``current`` is zero cannot be reached by rescaling and
    raises ``DominanceError`` naming the first such cell in C order, with
    axes named by ``names``.
    """
    if np.count_nonzero(current) == current.size:
        return target / current
    blocked = (current == 0.0) & (target > 0.0)
    if np.any(blocked):
        idx = tuple(int(v) for v in np.argwhere(blocked)[0])
        raise _dominance_error(names, target[idx], idx)
    return _divided(target, current, 0.0)


@dataclass(frozen=True, eq=False)
class _Layout:
    """The CPT vector that e-ipfp and d-ipfp move and ``_squarem``
    extrapolates: the tables of ``names`` in that order, each raveled as
    ``(parents..., child)`` from its shape in ``shapes``.  ``row`` numbers
    each entry's parent row across the vector, and ``uniform`` is the
    value a zero-mass row falls back to."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    row: np.ndarray
    uniform: np.ndarray

    @staticmethod
    def of(net: NetworkSpec, names: Sequence[str]) -> "_Layout":
        shapes = tuple(tuple(net.cardinality(v)
                             for v in net.parents[name] + (name,))
                       for name in names)
        # The child's cardinality, once per parent row.
        cards = np.repeat([s[-1] for s in shapes],
                          [math.prod(s[:-1]) for s in shapes])
        return _Layout(tuple(names), shapes,
                       np.repeat(np.arange(cards.size), cards),
                       np.repeat(1.0 / cards, cards))

    def pack(self, tables: Mapping[str, np.ndarray]) -> np.ndarray:
        """``tables``' entries for ``names``, as one new vector."""
        return np.concatenate([tables[name].ravel() for name in self.names])

    def tables(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """Each family's table in ``theta``, as a view of it."""
        out, end = {}, 0
        for name, shape in zip(self.names, self.shapes):
            start, end = end, end + math.prod(shape)
            out[name] = theta[start:end].reshape(shape)
        return out


SQUAREM_MAX_ALPHA = -1.0
"""Upper clamp on the SQUAREM step length; at -1 the candidate is exactly
two plain maps, so an accepted step never falls short of them."""


def _squarem(theta: np.ndarray, t1: np.ndarray, t2: np.ndarray,
             row: np.ndarray, bound: float = math.inf
             ) -> tuple[np.ndarray | None, bool]:
    """SQUAREM-S3 candidate from ``theta`` and two plain maps of it
    (Varadhan & Roland 2008, Scand. J. Stat. 35).

    ``theta``, ``t1 = F(theta)`` and ``t2 = F(t1)`` are CPT vectors laid
    out by one ``_Layout``, and ``row`` is that layout's.  The candidate
    ``theta - 2 a r + a^2 v`` uses ``r = t1 - theta``,
    ``v = t2 - 2 t1 + theta`` and the step length ``a = -|r|/|v|``,
    clamped to at most ``SQUAREM_MAX_ALPHA`` and to at least ``-bound``,
    and is renormalized per parent row.  Returns the candidate and whether
    the step length reached ``-bound``.  The candidate is ``None`` (reject)
    when ``v`` is zero, or when it has a negative entry or a row without
    mass.
    """
    r = t1 - theta
    v = t2 - 2.0 * t1 + theta
    vv = float((v * v).sum())
    if vv == 0.0:
        return None, False
    alpha = min(-math.sqrt(float((r * r).sum()) / vv), SQUAREM_MAX_ALPHA)
    reached = alpha <= -bound
    if reached:
        alpha = -bound
    candidate = theta - 2.0 * alpha * r + alpha * alpha * v
    if not (candidate >= 0.0).all():
        return None, reached
    sums = np.bincount(row, candidate)
    if not sums.all():
        return None, reached
    candidate /= sums[row]
    return candidate, reached


def _kl(weight: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """``sum(weight * log(a / b))`` over the cells where ``weight > 0``.

    The zero-mass rule of every I-divergence: a cell without weight
    contributes nothing, even where ``b`` is zero, and the sum is infinite
    where a cell with weight has ``b == 0``.  All three arrays share one
    shape, are non-negative, and ``a > 0`` wherever ``weight > 0``: for
    two joints ``_kl(p, p, q)``, for one family's chain-rule term the
    family mass ``P(pa) * a`` and the two CPTs.  When neither ``weight``
    nor ``b`` has a zero cell this is one plain divide; otherwise a masked
    divide over the whole array, which gives the same terms wherever both
    apply.
    """
    if weight.min() > 0.0 and b.min() > 0.0:
        terms = a / b
    else:
        mask = weight > 0.0
        if np.any(mask & (b <= 0.0)):
            return math.inf
        terms = np.divide(a, b, out=np.ones(a.shape), where=mask)
    np.log(terms, out=terms)
    terms *= weight
    return float(terms.sum())


def i_divergence(p: JointTable, q: JointTable) -> float:
    """I-divergence (Kullback-Leibler, natural log) of ``p`` from ``q``.

    Infinite when ``p`` puts mass where ``q`` has none; zero-probability
    cells of ``p`` contribute nothing.  Scopes must match exactly, order
    included.  The sum is ``_kl(p, p, q)``, the kernel d-ipfp's report and
    ``elimination.network_divergence`` also run.
    """
    if p.names != q.names or tuple(v.cardinality for v in p.scope) != tuple(
        v.cardinality for v in q.scope
    ):
        raise ScopeError(
            f"divergence needs identical scopes, got {p.names} and {q.names}"
        )
    return _kl(p.probs, p.probs, q.probs)


def validate_constraint(net: NetworkSpec, r: Constraint) -> None:
    """Check that ``r`` refers to declared variables with matching cardinalities."""
    for name, decl in zip(r.scope, r.dist.scope):
        if name not in net.names:
            raise ScopeError(f"constraint over {r.scope}: unknown variable {name!r}")
        if decl.cardinality != net.cardinality(name):
            raise ValidationError(
                f"constraint over {r.scope}: variable {name!r} has cardinality "
                f"{decl.cardinality}, network declares {net.cardinality(name)}"
            )


def constraint_residual(q: JointTable, r: Constraint) -> float:
    """Max-abs difference between ``q``'s marginal over ``r.scope`` and ``r``.

    ``r``'s scope is non-empty and repeats no variable since it was built,
    so the marginal is summed without ``marginalize``'s re-check of that;
    a variable that ``q`` lacks raises ``ScopeError``.
    """
    m = _project(q.probs, q.names, r.scope)
    return float(np.max(np.abs(m - r.dist.probs)))


def _outside_parents(net: NetworkSpec, members: Iterable[str]) -> tuple[str, ...]:
    """Parents of ``members`` that are not members, in declaration order."""
    members = set(members)
    outside = {p for v in members for p in net.parents[v] if p not in members}
    return tuple(sorted(outside, key=net.axis))


def classify_scope(net: NetworkSpec, scope: Sequence[str]) -> LocalityClass:
    """Locality of a constraint scope against ``net``'s structure.

    The scope is local when some member variable's parent set covers all the
    others; that member becomes the update target.  At most one member can
    qualify: two would each be the other's parent, a cycle.  Otherwise the
    scope is non-local and is described by its variable set ``y`` plus the
    outside parents ``s`` needed to close the member families.
    """
    scope = tuple(scope)
    members = set(scope)
    for name in scope:
        if name not in net.names:
            raise ScopeError(f"scope {scope}: unknown variable {name!r}")
    for target in scope:
        if members - {target} <= set(net.parents[target]):
            others = tuple(sorted(members - {target}, key=net.axis))
            return Local(target, others)
    return NonLocal(tuple(sorted(members, key=net.axis)),
                    _outside_parents(net, members))


def classify_constraint(net: NetworkSpec, r: Constraint) -> LocalityClass:
    """Locality of ``r`` against ``net``; validates ``r`` first."""
    validate_constraint(net, r)
    return classify_scope(net, r.scope)
