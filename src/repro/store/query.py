"""A small query engine over the metadata catalog.

Queries are predicate trees evaluated over one collection, with
projection and aggregation. The planner uses a hash index for equality
predicates and an ordered index for range predicates when the catalog
declares one on the relevant field; otherwise it falls back to a full
scan. The choice is visible in :class:`QueryResult.plan` so experiment
E8 can report index-vs-scan crossovers.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as _np

from ..errors import ConfigurationError, ProtocolError, QueryError
from ..obs import get_default as _obs_default
from .encoding import ColumnBatch, Record, Value

# Integers up to 2**53 convert to float64 exactly; beyond that numpy's
# int->float promotion in mixed compares diverges from Python's exact
# semantics, so the vectorized lane refuses the comparison.
_FLOAT_EXACT_INT = 2**53
_INT64_LO, _INT64_HI = -(2**63), 2**63 - 1


def _int_bound_ok(value: int) -> bool:
    return _INT64_LO <= value <= _INT64_HI


def _float_bound_ok(value) -> bool:
    if type(value) is float:
        return value == value  # NaN bounds keep Python's odd semantics
    return type(value) is int and -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT


# -- predicate tree ---------------------------------------------------------


class Predicate:
    """Base predicate; subclasses implement :meth:`matches`.

    :meth:`matches_batch` is the vectorized lane: given a
    :class:`ColumnBatch` it returns a boolean mask over the batch's
    rows (meaningful only at non-scalar rows, like
    :meth:`ColumnBatch.numeric_view`), or ``None`` when this predicate
    cannot be evaluated vectorized — callers then fall back to
    per-record :meth:`matches`, so the two lanes always agree.
    """

    def matches(self, record: Record) -> bool:
        raise NotImplementedError

    def matches_batch(self, batch: ColumnBatch):
        return None


def _eq_mask(batch: ColumnBatch, field: str, value: Value):
    """Vectorized ``column == value`` mask, or ``None`` when the
    comparison cannot be proven exact (non-numeric columns, bools,
    values outside the column dtype's exact range)."""
    if not batch.fields:
        return None
    if field not in batch.fields:
        # record.get() is None at every columnar row
        return _np.full(batch.count, value is None)
    view = batch.numeric_view(field)
    if view is None:
        return None
    kind, arr = view
    if value is None:
        return _np.zeros(batch.count, dtype=bool)
    if kind == "i":
        if type(value) is int and _int_bound_ok(value):
            return arr == value
        return None
    if _float_bound_ok(value) or (type(value) is float and value != value):
        return arr == value  # NaN value: all-False, like Python
    return None


@dataclass(frozen=True)
class Eq(Predicate):
    """``record[field] == value``."""

    field: str
    value: Value

    def matches(self, record: Record) -> bool:
        return record.get(self.field) == self.value

    def matches_batch(self, batch: ColumnBatch):
        return _eq_mask(batch, self.field, self.value)


@dataclass(frozen=True)
class Ne(Predicate):
    """``record[field] != value``."""

    field: str
    value: Value

    def matches(self, record: Record) -> bool:
        return record.get(self.field) != self.value

    def matches_batch(self, batch: ColumnBatch):
        mask = _eq_mask(batch, self.field, self.value)
        return None if mask is None else ~mask


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= record[field] <= high``; either bound may be None."""

    field: str
    low: Value = None
    high: Value = None

    def matches(self, record: Record) -> bool:
        value = record.get(self.field)
        if value is None:
            return False
        try:
            if self.low is not None and value < self.low:
                return False
            if self.high is not None and value > self.high:
                return False
        except TypeError:
            return False
        return True

    def matches_batch(self, batch: ColumnBatch):
        if not batch.fields:
            return None
        if self.field not in batch.fields:
            return _np.zeros(batch.count, dtype=bool)
        view = batch.numeric_view(self.field)
        if view is None:
            return None
        kind, arr = view

        def bound_ok(bound) -> bool:
            if bound is None:
                return True
            if kind == "i":
                return type(bound) is int and _int_bound_ok(bound)
            return _float_bound_ok(bound)

        if not (bound_ok(self.low) and bound_ok(self.high)):
            return None
        # Mirror the scalar short-circuit shape — ``not (value < low)``
        # rather than ``value >= low`` — so float NaN cells, which fail
        # every comparison, pass both bound checks exactly as the
        # scalar path does.
        mask = _np.ones(batch.count, dtype=bool)
        if self.low is not None:
            mask &= ~(arr < self.low)
        if self.high is not None:
            mask &= ~(arr > self.high)
        return mask


def _absent_text_mask(batch: ColumnBatch, field: str):
    """A text predicate's batch lane: all-False where the field is
    absent from a columnar batch (None is not a str), else decline."""
    if batch.fields and field not in batch.fields:
        return _np.zeros(batch.count, dtype=bool)
    return None


@dataclass(frozen=True)
class Contains(Predicate):
    """Substring match on a string field (keyword search)."""

    field: str
    needle: str

    def matches(self, record: Record) -> bool:
        value = record.get(self.field)
        return isinstance(value, str) and self.needle in value

    def matches_batch(self, batch: ColumnBatch):
        return _absent_text_mask(batch, self.field)


@dataclass(frozen=True)
class HasKeyword(Predicate):
    """Whole-word match on a text field; all ``terms`` must appear.

    This is the indexable form of keyword search: a catalog with a
    keyword index on the field answers it from postings.
    """

    field: str
    terms: tuple[str, ...]

    def matches(self, record: Record) -> bool:
        from .keywords import tokenize

        value = record.get(self.field)
        if not isinstance(value, str):
            return False
        tokens = set(tokenize(value))
        return all(term.lower() in tokens for term in self.terms)

    def matches_batch(self, batch: ColumnBatch):
        return _absent_text_mask(batch, self.field)


class _Junction(Predicate):
    """A non-empty tuple of child predicates, folded by ``_fold`` per
    record and ``_combine`` per batch mask; equal (and hashed) by
    structure, so a tree equals its own wire round trip."""

    _fold: Callable
    _combine: Callable

    def __init__(self, *children: Predicate) -> None:
        if not children:
            raise QueryError(
                f"{type(self).__name__} requires at least one child")
        self.children = children

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.children == self.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def matches(self, record: Record) -> bool:
        return self._fold(child.matches(record) for child in self.children)

    def matches_batch(self, batch: ColumnBatch):
        mask = None
        for child in self.children:
            child_mask = child.matches_batch(batch)
            if child_mask is None:
                return None
            mask = child_mask if mask is None else self._combine(mask, child_mask)
        return mask


class And(_Junction):
    """Conjunction of child predicates."""

    _fold, _combine = all, _operator.and_


class Or(_Junction):
    """Disjunction of child predicates."""

    _fold, _combine = any, _operator.or_


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a child predicate."""

    child: Predicate

    def matches(self, record: Record) -> bool:
        return not self.child.matches(record)

    def matches_batch(self, batch: ColumnBatch):
        mask = self.child.matches_batch(batch)
        return None if mask is None else ~mask


class TruePredicate(Predicate):
    """Matches everything (the default when no filter is given)."""

    def matches(self, record: Record) -> bool:
        return True

    def matches_batch(self, batch: ColumnBatch):
        return _np.ones(batch.count, dtype=bool)


MATCH_ALL = TruePredicate()


# -- wire codec: a federated query's ``where``, a policy's conditions ----------

#: Each op's predicate type and its keys besides ``"op"``, in wire order.
_WIRE = {
    "all": (TruePredicate, ()),
    "eq": (Eq, ("field", "value")),
    "ne": (Ne, ("field", "value")),
    "between": (Between, ("field", "low", "high")),
    "contains": (Contains, ("field", "needle")),
    "keyword": (HasKeyword, ("field", "terms")),
    "and": (And, ("children",)),
    "or": (Or, ("children",)),
    "not": (Not, ("child",)),
}
_WIRE_OPS = {kind: op for op, (kind, _) in _WIRE.items()}
_WIRE_PARSE = {op: (kind, frozenset(("op", *keys)))
               for op, (kind, keys) in _WIRE.items()}
_WIRE_SCALARS = (str, int, float, bool, type(None))


def predicate_to_wire(predicate: Predicate) -> dict[str, Any]:
    """Serialize a predicate tree to a JSON-able dict."""
    op = _WIRE_OPS.get(type(predicate))
    if op is None:
        raise ConfigurationError(
            f"predicate {type(predicate).__name__} has no wire form")
    wire: dict[str, Any] = {"op": op}
    for key in _WIRE[op][1]:
        value = getattr(predicate, key)
        if key == "children":
            value = [predicate_to_wire(child) for child in value]
        elif key == "child":
            value = predicate_to_wire(value)
        elif key == "terms":
            value = list(value)
        wire[key] = value
    return wire


def predicate_from_wire(data: Any) -> Predicate:
    """Rebuild a predicate tree from its wire form.

    The wire is untrusted: anything :func:`predicate_to_wire` could not
    have written — an unknown op, a missing or extra key, a non-string
    field, a non-scalar value — raises :class:`ProtocolError`, and
    nothing else does. A tree that parses re-serialises to the same
    dict.
    """
    try:
        return _from_wire(data)
    except RecursionError:
        raise ProtocolError("predicate nested too deep on the wire") from None


def _from_wire(data: Any) -> Predicate:
    try:
        op = data["op"]
        kind, keys = _WIRE_PARSE[op]
    except (KeyError, TypeError):
        raise ProtocolError("no known predicate op on the wire") from None
    if data.keys() != keys:
        raise ProtocolError(f"predicate op {op!r} takes keys {sorted(keys)}, "
                            f"got {list(data)}")
    if kind is Not:
        return Not(_from_wire(data["child"]))
    if kind is And or kind is Or:
        children = data["children"]
        if type(children) is not list or not children:
            raise ProtocolError(f"{op!r} children are not a non-empty list")
        return kind(*map(_from_wire, children))
    if kind is TruePredicate:
        return MATCH_ALL
    field = data["field"]
    if type(field) is not str:
        raise ProtocolError(f"predicate field {field!r} is not a string")
    if kind is HasKeyword:
        terms = data["terms"]
        if type(terms) is not list or any(type(t) is not str for t in terms):
            raise ProtocolError(f"keyword terms {terms!r} are not strings")
        return HasKeyword(field, tuple(terms))
    if kind is Contains:
        needle = data["needle"]
        if type(needle) is not str:
            raise ProtocolError(f"contains needle {needle!r} is not a string")
        return Contains(field, needle)
    values = (data["low"], data["high"]) if kind is Between else (data["value"],)
    for value in values:
        if not isinstance(value, _WIRE_SCALARS):
            raise ProtocolError(f"predicate value {value!r} is not a scalar")
    return kind(field, *values)


# -- aggregation -------------------------------------------------------------

_AGGREGATORS: dict[str, Callable[[list[float]], float]] = {
    "count": lambda values: float(len(values)),
    "sum": lambda values: float(sum(values)),
    "avg": lambda values: sum(values) / len(values) if values else float("nan"),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
}


@dataclass(frozen=True)
class Aggregate:
    """An aggregate specification: function over a numeric field.

    ``count`` ignores the field (pass any name or ``"*"``).
    """

    function: str
    field: str = "*"

    def __post_init__(self) -> None:
        if self.function not in _AGGREGATORS:
            raise QueryError(
                f"unknown aggregate {self.function!r}; known: {sorted(_AGGREGATORS)}"
            )

    def compute(self, records: list[Record]) -> float:
        if self.function == "count":
            return float(len(records))
        values: list[float] = []
        for record in records:
            value = record.get(self.field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            values.append(float(value))
        return self.fold(values)

    def fold(self, values: list[float]) -> float:
        """The aggregate of the field's numeric ``values``, in order."""
        if not values and self.function in ("min", "max"):
            raise QueryError(f"{self.function} over empty/non-numeric field {self.field!r}")
        return _AGGREGATORS[self.function](values)

    @property
    def label(self) -> str:
        return f"{self.function}({self.field})"


# -- query and result ---------------------------------------------------------


@dataclass
class Query:
    """A declarative query over one collection."""

    collection: str
    where: Predicate = field(default_factory=lambda: MATCH_ALL)
    project: list[str] | None = None  # None = all fields
    aggregates: list[Aggregate] | None = None
    group_by: str | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None


@dataclass
class QueryResult:
    """Rows plus the execution plan and cost counters."""

    rows: list[dict[str, Any]]
    plan: str  # "index:<field>", "range:<field>" or "scan"
    records_examined: int
    flash_reads: int

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError("scalar() requires exactly one row and one column")
        return next(iter(self.rows[0].values()))


class BatchCandidates:
    """Candidate rows delivered as columnar chunks: the one shape
    :func:`execute` takes, whatever the plan.

    ``chunks`` is a list of :class:`ColumnBatch` chunks of the
    collection's rows, every row a candidate. Matching rows come back
    in chunk order unless ``ids`` is given: one list of record ids per
    chunk (aligned with the batch's rows), by which the matches are
    then sorted — the index plans' ascending-id contract, passed only
    when the chunks do not already ascend.
    """

    __slots__ = ("chunks", "ids")

    def __init__(self, chunks, ids=None) -> None:
        self.chunks = chunks
        self.ids = ids


_AGGREGATE_LANE = _obs_default().metrics.counter(
    "store.query.aggregate", labelnames=("lane", "reason"),
    help="aggregate queries by where the values came from (folded off the "
         "columns | materialised rows) and why (ok|group_by|predicate|"
         "non_numeric|scalar_rows)")
# keyed by what ``_fold_decline`` answers (None: it folds)
_AGGREGATE_LANES = {
    None: _AGGREGATE_LANE.labels(lane="folded", reason="ok"),
    **{reason: _AGGREGATE_LANE.labels(lane="materialised", reason=reason)
       for reason in ("group_by", "predicate", "non_numeric", "scalar_rows")},
}


def _in_id_order(candidates: BatchCandidates, hits, values: list) -> list:
    """``values`` — one per hit, in chunk order (``hits`` holds each
    chunk's matching row indexes) — sorted by record id when the
    candidates ask for that."""
    if candidates.ids is None:
        return values
    ids = [chunk_ids[index]
           for chunk_ids, chunk_hits in zip(candidates.ids, hits)
           for index in chunk_hits]
    return [values[at] for at in sorted(range(len(ids)), key=ids.__getitem__)]


def _filter_batches(where: Predicate, candidates: BatchCandidates,
                    masks: list) -> list[Record]:
    """``[r for r in rows if where.matches(r)]`` over columnar chunks
    (``masks`` holds each chunk's ``matches_batch`` verdict), every
    matching row materialised exactly once."""
    matched: list[Record] = []
    hits = []
    for batch, mask in zip(candidates.chunks, masks):
        scalar_rows = batch.scalar_rows
        row = batch.row
        if mask is not None and not scalar_rows:
            hits.append(chunk_hits := _np.flatnonzero(mask).tolist())
            matched.extend(batch.rows() if len(chunk_hits) == batch.count
                           else map(row, chunk_hits))
            continue
        hits.append(chunk_hits := [])
        for index in range(batch.count):
            if mask is None or index in scalar_rows:
                record = row(index)  # the vector lane declined this row
                if not where.matches(record):
                    continue
            elif mask[index]:
                record = row(index)
            else:
                continue
            chunk_hits.append(index)
            matched.append(record)
    return _in_id_order(candidates, hits, matched)


def _fold_decline(query: Query, chunks, masks) -> str | None:
    """Why an aggregate query must materialise its rows (``None``: it
    can fold off the columns)."""
    if query.group_by is not None:
        return "group_by"
    for batch, mask in zip(chunks, masks):
        if batch.scalar_rows:
            return "scalar_rows"
        if mask is None:
            return "predicate"
    for aggregate in query.aggregates:  # views cost a column pass: last
        if aggregate.function != "count" and not all(
                batch.numeric_view(aggregate.field) for batch in chunks):
            return "non_numeric"  # absent, mixed-type or bool column
    return None


def _fold_batches(query: Query, candidates: BatchCandidates,
                  masks: list) -> dict[str, Any]:
    """The ungrouped aggregate row straight off the matched column
    slices: the values :meth:`Aggregate.compute` would pull out of the
    materialised rows, in the same order, through the same fold."""
    chunks = candidates.chunks
    hits = list(map(_np.flatnonzero, masks))
    row = {}
    for aggregate in query.aggregates:
        if aggregate.function == "count":
            row[aggregate.label] = float(sum(map(len, hits)))
            continue
        values: list[float] = []
        for batch, chunk_hits in zip(chunks, hits):
            kind, column = batch.numeric_view(aggregate.field)
            picked = column[chunk_hits].tolist()
            values.extend(picked if kind == "f" else map(float, picked))
        row[aggregate.label] = aggregate.fold(_in_id_order(
            candidates, (chunk_hits.tolist() for chunk_hits in hits), values))
    return row


def _project(record: Record, fields: list[str]) -> dict[str, Any]:
    return {name: record.get(name) for name in fields}


def _apply_order_limit(rows: list[dict[str, Any]], query: Query) -> list[dict[str, Any]]:
    if query.order_by is not None:
        rows = sorted(
            rows,
            key=lambda row: (row.get(query.order_by) is None, row.get(query.order_by)),
            reverse=query.descending,
        )
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def execute(query: Query, fetch_candidates, fetch_all) -> QueryResult:
    """Run ``query`` against a collection.

    ``fetch_candidates(predicate)`` returns ``(candidates, plan,
    flash_reads)`` where ``candidates`` is a :class:`BatchCandidates`
    that may hold a superset, filtered again here (indexes and zone
    maps are pre-filters), or ``None`` when no plan applies;
    ``fetch_all()`` returns every record the same way. Both are
    supplied by the catalog. The rows handed back are this query's own:
    each was built once, from a batch nothing else holds.
    """
    candidates, plan, flash_reads = fetch_candidates(query.where)
    if candidates is None:
        candidates, flash_reads = fetch_all()
        plan = "scan"
    chunks = candidates.chunks
    where = query.where
    masks = [where.matches_batch(batch) for batch in chunks]
    examined = sum(batch.count for batch in chunks)

    if query.aggregates:
        decline = _fold_decline(query, chunks, masks)
        _AGGREGATE_LANES[decline].inc()
        if decline is None:
            rows = [_fold_batches(query, candidates, masks)]
        else:
            rows = _aggregate_rows(
                query, _filter_batches(where, candidates, masks))
        rows = _apply_order_limit(rows, query)
    else:
        # Order and limit on full records, then project, so a query may
        # sort by a field it does not return.
        rows = _apply_order_limit(
            _filter_batches(where, candidates, masks), query)
        if query.project is not None:
            rows = [_project(record, query.project) for record in rows]
    return QueryResult(
        rows=rows, plan=plan, records_examined=examined, flash_reads=flash_reads
    )


def _aggregate_rows(query: Query, matched: list[Record]) -> list[dict[str, Any]]:
    aggregates = query.aggregates or []
    if query.group_by is None:
        return [{
            aggregate.label: aggregate.compute(matched)
            for aggregate in aggregates
        }]
    groups: dict[Value, list[Record]] = {}
    for record in matched:
        groups.setdefault(record.get(query.group_by), []).append(record)
    rows = []
    for group_key in sorted(groups, key=lambda value: (value is None, str(value))):
        row: dict[str, Any] = {query.group_by: group_key}
        for aggregate in aggregates:
            row[aggregate.label] = aggregate.compute(groups[group_key])
        rows.append(row)
    return rows
