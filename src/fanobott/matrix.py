"""Admissible upper triangular matrices of Fano Bott towers.

A d-stage Fano Bott tower is encoded by a strictly upper triangular d x d
integer matrix with entries in {-1, 0, 1} in which every row p is one of

  (1) the zero row,
  (2) the unit row e_q for a single column q > p, or
  (3) (row q) - e_q for some column q > p.

This module owns validation against these row templates, the bijection
with parent/sign data, and exhaustive enumeration.  Row and column labels
are 1-based in every public interface; the stored row tuples are ordinary
0-based sequences.

A matrix is parsed once: :func:`validate` keeps the parent/sign data its
scan reads off, a matrix built from parent/sign data keeps the data it was
built from, and :meth:`FanoBottMatrix.digest` hashes once per object.  Only
a matrix built without :func:`validate` is scanned again, by its first
:func:`to_phi_sigma`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, product


class FanoBottError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(FanoBottError, ValueError):
    """Rejection of a grid that is not an admissible matrix.

    Attributes:
        row: 1-based index of the first offending row.
        violation: description of the condition that row fails.
    """

    def __init__(self, row: int, violation: str):
        self.row = row
        self.violation = violation
        super().__init__(f"row {row}: {violation}")

    def to_json(self) -> dict:
        return {"row": self.row, "violation": self.violation}


class InvalidPhiError(FanoBottError, ValueError):
    """Parent map violates the ordering condition i < phi(i) <= d+1."""


_INT_ONLY = frozenset({int})
_JSON_LISTS = str.maketrans("()", "[]", " ")


def _require_int(name: str, value: object) -> int:
    """value itself if its type is int (bool is not); else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} = {value!r} is not an integer")
    return value


class Record:
    """Immutable value record: the base of the package's data classes.

    A subclass lists its fields as annotations, in order, and gets an
    ``__init__`` taking them by position or by keyword.  Instances
    compare equal to instances of the same class with equal fields, hash
    as the tuple of their fields, and refuse assignment and deletion, as
    a frozen dataclass does.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        body = "".join(f"\n    self.__dict__[{f!r}] = {f}" for f in fields)
        namespace = {"__name__": cls.__module__}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    # The instance dict holds exactly the fields, in order.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Rebuild from the fields in order, so no memo slot travels."""
        return type(self), tuple(self.__dict__.values())


class FanoBottMatrix(Record):
    """A validated admissible matrix.  Construct through :func:`validate`.

    Two slots outside the fields memoize the parent/sign data and the
    digest, so equality, hashing and repr never see them.
    """

    __slots__ = ("_ps", "_sha")

    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": [list(row) for row in self.rows]}

    def _compact_json(self) -> str:
        """:meth:`to_json` as compact JSON text with sorted keys.

        The rows' repr, in brackets and without spaces, is the entries'
        JSON (a 1-tuple row "(0,)" becomes "[0]")."""
        entries = str(self.rows).translate(_JSON_LISTS).replace(",]", "]")
        return f'{{"dim":{len(self.rows)},"entries":{entries}}}'

    def digest(self) -> str:
        """Hex sha256 of the compact JSON form with sorted keys."""
        try:
            return self._sha
        except AttributeError:
            import hashlib

            sha = hashlib.sha256(self._compact_json().encode("ascii")).hexdigest()
            object.__setattr__(self, "_sha", sha)
            return sha


def _violation(rows: tuple[tuple[int, ...], ...], p0: int) -> str | None:
    """The first condition row p0 (0-based) fails, or None if it has none.

    rows must be d int rows of length d.  The checks run in validate's
    order: a nonzero entry on or below the diagonal (only the leading
    column can be one), then the first entry outside {-1, 0, 1}, then the
    unit or copy template the leading entry selects.
    """
    row = rows[p0]
    d = len(row)
    q0 = next(compress(range(d), row), d)
    if q0 == d:
        return None
    if q0 <= p0:
        return f"nonzero entry ({p0 + 1},{q0 + 1}) on or below the diagonal"
    for j0 in range(q0, d):
        if row[j0] not in (-1, 0, 1):
            return f"entry ({p0 + 1},{j0 + 1}) = {row[j0]} outside {{-1,0,1}}"
    if row[q0] == 1:
        template, fault = (0,) * d, "is nonzero: not a unit row"
    else:
        template, fault = rows[q0], f"differs from row {q0 + 1}: not a copy row"
    for j0 in range(q0 + 1, d):
        if row[j0] != template[j0]:
            return (f"leading {row[q0]:+d} in column {q0 + 1} but entry in "
                    f"column {j0 + 1} {fault}")
    return None


def _accept(rows: tuple[tuple[int, ...], ...]) -> PhiSigma:
    """phi and sigma of an admissible grid, read off in one scan.

    After one type check and one length check over all rows, each row's
    leading column comes from ``compress`` (d for a zero row), and one
    comparison accepts the row: ``row.count(0) == d - 1`` for a unit row,
    and for a copy row a tail equal to the leading column's row, which is
    scanned too.  The scan checks no range: a copy row it accepts can
    carry an out-of-range entry of the later row it copies.  So when it
    rejects row r, the error names the lowest row up to r with a
    :func:`_violation`.
    """
    d = len(rows)
    if not _INT_ONLY.issuperset(map(type, chain.from_iterable(rows))):
        p0, j0, value = next((p0, j0, x) for p0, row in enumerate(rows)
                             for j0, x in enumerate(row) if type(x) is not int)
        raise ValueError(f"entry ({p0 + 1},{j0 + 1}) = {value!r} is not an integer")
    if not {d}.issuperset(map(len, rows)):
        p0, size = next((p0, len(row)) for p0, row in enumerate(rows) if len(row) != d)
        raise InvalidMatrixError(p0 + 1, f"row has {size} entries, expected {d}")
    cols = range(d)
    phi: list[int] = []
    sigma: list[str | None] = []
    for r, row in enumerate(rows):
        q0 = next(compress(cols, row), d)
        if q0 == d:
            sign = None
        elif q0 <= r:
            break
        elif row[q0] == 1 and row.count(0) == d - 1:
            sign = "+"
        elif row[q0] == -1 and row[q0 + 1:] == rows[q0][q0 + 1:]:
            sign = "-"
        else:
            break
        phi.append(q0 + 1)
        sigma.append(sign)
    else:
        return PhiSigma(tuple(phi), tuple(sigma))
    raise next(InvalidMatrixError(p0 + 1, violation) for p0 in range(r + 1)
               if (violation := _violation(rows, p0)))


def validate(grid: Sequence[Sequence[int]]) -> FanoBottMatrix:
    """Check a square integer grid and wrap it.

    One scan accepts the grid (see :func:`_accept`).  A rejected grid
    reports its lowest offending row and, within the row, the first failed
    condition: a nonzero entry on or below the diagonal, then an entry
    outside {-1, 0, 1}, then a row matching none of the three row
    templates.

    Raises:
        ValueError: naming the first entry whose type is not int (bool
            included), before any other check.
        InvalidMatrixError: with the 1-based row and the failed condition.
    """
    rows = tuple(map(tuple, grid))
    return _parsed(rows, _accept(rows))


def matrix_from_json(data: object) -> FanoBottMatrix:
    """Parse either {"dim": d, "entries": [[...], ...]} or a bare row list."""
    if isinstance(data, dict):
        if "entries" not in data:
            raise ValueError('matrix object must carry an "entries" key')
        entries = data["entries"]
        if not isinstance(entries, list):
            raise ValueError('"entries" must be a list of rows')
        if "dim" in data and _require_int("dim", data["dim"]) != len(entries):
            raise ValueError('"dim" does not match the number of rows')
    elif isinstance(data, list):
        entries = data
    else:
        raise ValueError(f"cannot read a matrix from {type(data).__name__}")
    if not all(isinstance(row, (list, tuple)) for row in entries):
        raise ValueError("every row must be a list of integers")
    return validate(entries)


class PhiSigma(Record):
    """Parent map and edge signs read off the leading entries of the rows.

    phi[i-1] is the 1-based parent label of vertex i, with d+1 for roots.
    sigma[i-1] is "+" or "-" exactly where phi(i) <= d, and None at roots.
    """

    phi: tuple[int, ...]
    sigma: tuple[str | None, ...]

    @property
    def dim(self) -> int:
        return len(self.phi)


def phi_sigma(phi: Sequence[int], sigma: Sequence[str | None]) -> PhiSigma:
    """Validate and wrap parent/sign data.

    Raises:
        ValueError: naming the first phi(i) whose type is not int.
        InvalidPhiError: if some phi(i) <= i or phi(i) > d+1, or if sigma is
            defined on the wrong set of vertices.
    """
    d = len(phi)
    if len(sigma) != d:
        raise InvalidPhiError(f"phi has {d} entries but sigma has {len(sigma)}")
    for i0, target in enumerate(phi):
        _require_int(f"phi({i0 + 1})", target)
        if not i0 + 1 < target <= d + 1:
            raise InvalidPhiError(
                f"phi({i0 + 1}) = {target} violates {i0 + 1} < phi <= {d + 1}"
            )
        sign = sigma[i0]
        if target == d + 1 and sign is not None:
            raise InvalidPhiError(f"sigma({i0 + 1}) given for a root vertex")
        if target <= d and sign not in ("+", "-"):
            raise InvalidPhiError(f"sigma({i0 + 1}) = {sign!r} is not '+' or '-'")
    return PhiSigma(tuple(phi), tuple(sigma))


def to_phi_sigma(a: FanoBottMatrix) -> PhiSigma:
    """Read off phi (leading column of each row, d+1 for zero rows) and sigma.

    A matrix from :func:`validate` or from parent/sign data returns the
    data it carries.  Any other matrix goes through validate's scan, so one
    that is not admissible raises validate's error instead of a wrong
    reading, and only a successful scan is kept.
    """
    try:
        return a._ps
    except AttributeError:
        ps = _accept(tuple(map(tuple, a.rows)))
        object.__setattr__(a, "_ps", ps)
        return ps


def _rows_bottom_up(d: int, choices: Iterable[tuple[int, str | None]]
                   ) -> tuple[tuple[int, ...], ...]:
    """Materialize rows d, d-1, ..., 1 from their (phi, sigma) choices.

    A root (phi = d+1) gives a zero row, a "+" edge the unit row of the
    parent column, and a "-" edge the parent's row minus that unit row,
    which sets the parent's zero diagonal entry to -1.
    """
    rows = [(0,) * d] * d
    i0 = d
    for target, sign in choices:
        i0 -= 1
        if target > d:
            continue
        if sign == "+":
            row = [0] * d
            row[target - 1] = 1
        else:
            row = list(rows[target - 1])
            row[target - 1] = -1
        rows[i0] = tuple(row)
    return tuple(rows)


def _parsed(rows: tuple[tuple[int, ...], ...], ps: PhiSigma) -> FanoBottMatrix:
    """The matrix of rows, keeping ps as the data a scan of rows reads off."""
    a = FanoBottMatrix(rows)
    object.__setattr__(a, "_ps", ps)
    return a


def _matrix_of(ps: PhiSigma) -> FanoBottMatrix:
    """The matrix of parent/sign data that is already known to be valid.

    The matrix keeps ps unchecked, so ps must be what :func:`to_phi_sigma`
    would read off: tuples from :func:`phi_sigma`, from a scan, or from
    moves applied to either.
    """
    return _parsed(_rows_bottom_up(ps.dim, zip(reversed(ps.phi), reversed(ps.sigma))), ps)


def from_phi_sigma(ps: PhiSigma) -> FanoBottMatrix:
    """Rebuild the matrix from parent/sign data.

    Rows are materialized from the bottom up: a root gives a zero row, a
    "+" edge the unit row of the parent column, and a "-" edge the parent's
    row minus that unit row.  This inverts :func:`to_phi_sigma`.
    """
    return _matrix_of(phi_sigma(ps.phi, ps.sigma))


def _row_choices(d: int) -> list[list[tuple[int, str | None]]]:
    """The (phi, sigma) template choices of rows 1..d, in stream order.

    Row p offers 1 + 2(d-p) choices: the zero row (phi = d+1) first, then
    unit rows by target column, then copy rows by target column.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    per_row: list[list[tuple[int, str | None]]] = []
    for p in range(1, d + 1):
        choices: list[tuple[int, str | None]] = [(d + 1, None)]
        choices += [(q, "+") for q in range(p + 1, d + 1)]
        choices += [(q, "-") for q in range(p + 1, d + 1)]
        per_row.append(choices)
    return per_row


def enumerate_matrices(d: int) -> Iterator[FanoBottMatrix]:
    """Yield every admissible d x d matrix exactly once.

    Row p offers 1 + 2(d-p) template choices (see :func:`_row_choices`),
    so the stream has length (2d-1)!!.  The stream is sorted by the choice
    at row d-1 first, down to row 1: the position of a matrix is the
    mixed-radix number of its choice indices with row 1 varying fastest.
    """
    for combo in product(*reversed(_row_choices(d))):
        yield FanoBottMatrix(_rows_bottom_up(d, combo))


def _phi_sigmas(d: int) -> Iterator[PhiSigma]:
    """The parent/sign data of :func:`enumerate_matrices`, in stream order."""
    for combo in product(*reversed(_row_choices(d))):
        phi, sigma = zip(*reversed(combo))
        yield PhiSigma(phi, sigma)


def _row_weights(d: int) -> list[int]:
    """Stream weight of rows 1..d: the product of the choice counts before."""
    weights = [1]
    for choices in _row_choices(d)[:-1]:
        weights.append(weights[-1] * len(choices))
    return weights


def _matrices_at(d: int, positions: Iterable[int]) -> Iterator[FanoBottMatrix]:
    """Matrices at 0-based positions of :func:`enumerate_matrices`, one choice table."""
    per_row = _row_choices(d)
    total = count_matrices(d)
    for position in positions:
        if not 0 <= position < total:
            raise ValueError(f"position {position} out of range for d = {d}")
        combo = []
        for choices in per_row:
            position, j = divmod(position, len(choices))
            combo.append(choices[j])
        yield FanoBottMatrix(_rows_bottom_up(d, reversed(combo)))


def count_matrices(d: int) -> int:
    """(2d-1)!!, the size of the enumeration stream.

    Row d offers one choice, so this is the stream weight of row d.
    """
    return _row_weights(d)[-1]

