"""MPS and LP text emission for the 0/1 allocation model, plus an MPS
reader for round-trip checks and for feeding files back from external
solvers.

The MPS writer uses classic fixed columns with short generated names
(``OBJ``, ``R<n>``, ``X<n>``) so the file also parses as free format;
the LP writer keeps the human-readable row labels and variable names.
All numbers are written with 12 significant digits by ``units.fmt12``,
and emission order is canonical, so identical models produce
byte-identical files.  A model repeats a few thousand distinct
coefficients across hundreds of thousands of nonzeros, so each writer
formats every distinct value once, memoised by (numerator, denominator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .milp import BilpModel
from .units import fmt12, without_cyclic_gc


def _fmt12_memo():
    """``fmt12`` that formats each distinct value once, keyed by
    (numerator, denominator): hashing a Fraction itself is slower."""
    text: dict[tuple[int, int], str] = {}

    def fmt(value) -> str:
        key = (value.numerator, value.denominator)
        line = text.get(key)
        if line is None:
            line = text[key] = fmt12(value)
        return line

    return fmt


@without_cyclic_gc
def model_to_mps(model: BilpModel) -> str:
    rows = model.rows
    fmt = _fmt12_memo()
    out: list[str] = ["NAME          EHCOPT"]
    out.append("ROWS")
    out.append(" N  OBJ")
    for idx, row in enumerate(rows):
        out.append(f" {row.sense}  R{idx + 1}")

    # transpose: per-column "row value" fields, objective first, then rows in order
    per_column: list[list[str] | None] = [[] for _ in model.variables]
    for col, coeff in model.objective.items():
        per_column[col].append("OBJ       " + fmt(coeff))
    for idx, row in enumerate(rows):
        row_name = f"{f'R{idx + 1}':<10}"
        for col, coeff in row.coeffs.items():
            per_column[col].append(row_name + fmt(coeff))

    out.append("COLUMNS")
    out.append("    MARKER                 'MARKER'                 'INTORG'")
    for col, fields in enumerate(per_column):
        prefix = f"    {f'X{col + 1}':<10}"
        out.extend([prefix + entry for entry in fields])
        per_column[col] = None  # release the column once its lines are made
    out.append("    MARKER                 'MARKER'                 'INTEND'")

    out.append("RHS")
    for idx, row in enumerate(rows):
        if row.rhs != 0:
            out.append(f"    RHS       {f'R{idx + 1}':<10}{fmt(row.rhs)}")

    out.append("BOUNDS")
    for col in range(len(model.variables)):
        out.append(f" BV BND       X{col + 1}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


@dataclass
class ParsedMps:
    name: str = ""
    objective_row: str = ""
    row_sense: dict[str, str] = field(default_factory=dict)  # name -> L/E/G
    row_order: list[str] = field(default_factory=list)
    columns: dict[str, dict[str, float]] = field(default_factory=dict)
    column_order: list[str] = field(default_factory=list)
    rhs: dict[str, float] = field(default_factory=dict)
    binaries: set[str] = field(default_factory=set)

    @property
    def num_rows(self) -> int:
        return len(self.row_order)

    @property
    def num_columns(self) -> int:
        return len(self.column_order)


class MpsFormatError(ValueError):
    pass


def parse_mps(text: str) -> ParsedMps:
    parsed = ParsedMps()
    section = None
    in_integer_block = False
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        head = raw.split()
        if raw[0] not in " \t":  # section headers start in column 1
            keyword = head[0].upper()
            if keyword == "NAME":
                parsed.name = head[1] if len(head) > 1 else ""
            elif keyword == "ENDATA":
                break
            elif keyword in {"ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"}:
                section = keyword
            else:
                raise MpsFormatError(f"unknown section {keyword!r}")
            continue

        if section == "ROWS":
            sense, row_name = head[0].upper(), head[1]
            if sense == "N":
                parsed.objective_row = row_name
            elif sense in {"L", "E", "G"}:
                parsed.row_sense[row_name] = sense
                parsed.row_order.append(row_name)
            else:
                raise MpsFormatError(f"bad row sense {sense!r}")
        elif section == "COLUMNS":
            if len(head) >= 3 and head[1] == "'MARKER'":
                if head[2] == "'INTORG'":
                    in_integer_block = True
                elif head[2] == "'INTEND'":
                    in_integer_block = False
                else:
                    raise MpsFormatError(f"bad marker line {raw!r}")
                continue
            col_name = head[0]
            if col_name not in parsed.columns:
                parsed.columns[col_name] = {}
                parsed.column_order.append(col_name)
                if in_integer_block:
                    parsed.binaries.add(col_name)  # refined by BOUNDS below
            for row_name, value in zip(head[1::2], head[2::2]):
                parsed.columns[col_name][row_name] = float(value)
        elif section == "RHS":
            for row_name, value in zip(head[1::2], head[2::2]):
                parsed.rhs[row_name] = float(value)
        elif section == "BOUNDS":
            kind = head[0].upper()
            if kind == "BV":
                parsed.binaries.add(head[2])
            # other bound kinds are accepted but not tracked further
        elif section == "RANGES":
            raise MpsFormatError("RANGES section not supported")
        else:
            raise MpsFormatError(f"data line outside any section: {raw!r}")
    return parsed


@without_cyclic_gc
def model_to_lp(model: BilpModel) -> str:
    """CPLEX-style LP text with the model's own row labels and names."""
    names = [v.name for v in model.variables]
    fmt = _fmt12_memo()
    # signed term text per distinct value: (leading "-m"/"m", following "- m"/"+ m")
    terms: dict[tuple[int, int], tuple[str, str]] = {}

    def expr(coeffs: dict) -> str:
        parts = []
        for col in sorted(coeffs):
            coeff = coeffs[col]
            key = (coeff.numerator, coeff.denominator)
            term = terms.get(key)
            if term is None:
                if key[0] < 0:  # the sign comes from the numerator
                    magnitude = fmt12(-coeff)
                    term = terms[key] = ("-" + magnitude, "- " + magnitude)
                else:
                    magnitude = fmt12(coeff)
                    term = terms[key] = (magnitude, "+ " + magnitude)
            parts.append(f"{term[1] if parts else term[0]} {names[col]}")
        return " ".join(parts) if parts else "0 " + names[0]

    sense_text = {"L": "<=", "E": "=", "G": ">="}
    out = [f"\\ objective: {model.objective_kind.value}", "Minimize", f" obj: {expr(model.objective)}"]
    out.append("Subject To")
    for row in model.rows:
        out.append(f" {row.label}: {expr(row.coeffs)} {sense_text[row.sense]} {fmt(row.rhs)}")
    out.append("Binary")
    for name in names:
        out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"
