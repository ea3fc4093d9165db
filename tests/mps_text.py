"""A reader for the MPS text that :func:`ehcopt.mps.model_to_mps` writes,
for the round-trip checks.  It imports nothing from pytest, so a script
can import it from the source tree with ``tests`` on ``sys.path``.

It reads that layout only: a ``NAME`` line, the ``N`` objective row and
``L``/``E``/``G`` rows, the integer markers, one ``(row, value)`` pair
per COLUMNS or RHS line and one ``BV BND <column>`` line per column, then
``ENDATA``.  Any other line raises ``ValueError`` naming it, so a writer
fault shows as a failure and never as a skipped line.
"""

from dataclasses import dataclass, field

SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")
MARKERS = (["MARKER", "'MARKER'", "'INTORG'"], ["MARKER", "'MARKER'", "'INTEND'"])


@dataclass
class MpsText:
    objective_row: str = ""
    row_sense: dict[str, str] = field(default_factory=dict)  # row name -> L/E/G, in file order
    columns: dict[str, dict[str, float]] = field(default_factory=dict)  # column -> row -> value, in file order
    rhs: dict[str, float] = field(default_factory=dict)
    binaries: set[str] = field(default_factory=set)  # the columns of the BV lines

    @property
    def row_order(self) -> list[str]:
        return list(self.row_sense)

    @property
    def column_order(self) -> list[str]:
        return list(self.columns)

    @property
    def num_rows(self) -> int:
        return len(self.row_sense)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def entry(self, entries: dict[str, float], row: str, value: str) -> None:
        if row != self.objective_row and row not in self.row_sense:
            raise ValueError(f"undeclared row {row!r}")
        if row in entries:
            raise ValueError(f"second entry on row {row!r}")
        entries[row] = float(value)


def read_mps(text: str) -> MpsText:
    mps = MpsText()
    section = None
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        try:
            if not line.startswith(" "):  # a section header starts in column 1
                if not fields or fields[0] not in SECTIONS:
                    raise ValueError("unknown section")
                section = fields[0]
            elif section == "ROWS":
                sense, name = fields
                if sense == "N" and not mps.objective_row:
                    mps.objective_row = name
                elif sense in ("L", "E", "G") and name not in mps.row_sense:
                    mps.row_sense[name] = sense
                else:
                    raise ValueError("not a sense and a new row name")
            elif section == "COLUMNS" and fields not in MARKERS:
                column, row, value = fields
                mps.entry(mps.columns.setdefault(column, {}), row, value)
            elif section == "RHS":
                vector, row, value = fields
                if vector != "RHS":
                    raise ValueError("not the RHS vector")
                mps.entry(mps.rhs, row, value)
            elif section == "BOUNDS":
                kind, name, column = fields
                if (kind, name) != ("BV", "BND") or column not in mps.columns or column in mps.binaries:
                    raise ValueError("not one BV BND line per declared column")
                mps.binaries.add(column)
            elif section != "COLUMNS":
                raise ValueError("line outside any section")
        except ValueError as exc:
            raise ValueError(f"line {number} {line!r}: {exc}") from None
    if section != "ENDATA":
        raise ValueError("no ENDATA line")
    return mps
