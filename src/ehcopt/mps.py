"""MPS and LP text emission for the 0/1 allocation model.  ehcopt writes
these files for an external solver and reads neither back.

The MPS writer uses classic fixed columns with short generated names
(``OBJ``, ``R<n>``, ``X<n>``) so the file also parses as free format;
the LP writer keeps the human-readable row labels and variable names.
All numbers are written with 12 significant digits by ``units.fmt12``,
and emission order is canonical, so identical models produce
byte-identical files.

A model repeats a few tens of thousands of coefficient objects across
hundreds of thousands of nonzeros.  The first writer call on a model
formats every coefficient and right-hand side object it holds once, by
``fmt12``, into one table by ``id`` that is kept on the model
(:func:`value_texts`); the other writer reuses it, and every nonzero
costs one lookup.  The LP writer derives its ``"+ t"``/``"- t"`` term
texts from the table, once per distinct text.  Neither writer reads the
model's ``variables``, whose first read makes one
:class:`~ehcopt.milp.Variable` per column: the MPS writer takes the
column count (``num_variables``) and the LP writer the column names
(:meth:`~ehcopt.milp.BilpModel.column_names`), both derived from the
node numbering and the link records.  Each writer joins its lines into
strings of many lines first and builds the full text from those once:
the MPS writer transposes the rows into per-column lists of shared
row-field and value strings and joins each column into one string, and
the LP writer joins its rows in blocks.  A writer's peak memory is about
2-3 times its text.

Most rows of a large model are the AND-link rows, three per arc, which
the model keeps as one record per arc (``links`` of
:class:`~ehcopt.milp.Rows`).  The writers emit that block straight from
the records, without making the rows: the MPS writer adds each arc's
seven column entries with the shared texts of 1 and -1 and an RHS of 1
on each ``lnkand`` row, and the LP writer makes each arc's three lines
in one string, with their terms in the order the generic rows would
have them.  The explicit rows before and after the block take the
generic path.
"""

from __future__ import annotations

from itertools import chain
from operator import add

from .milp import MINUS_ONE, ONE, ZERO, BilpModel
from .units import fmt12, without_cyclic_gc

_LP_BLOCK = 2048  # constraint rows per joined string of the LP text


def value_texts(model: BilpModel) -> dict[int, str]:
    """``fmt12`` of every value object ``model`` holds, by ``id``: its
    objective and explicit rows' coefficients and right-hand sides, and
    the link rows' ``ONE``, ``MINUS_ONE`` and ``ZERO``.  Made by the first
    call and kept on the model (``model.texts``).  An id is reused once
    its object is freed; the model holds each of these objects as long as
    it lives, and it is not changed once written."""
    texts = model.texts
    if texts is None:
        rows = model.rows
        explicit = [*rows.head, *rows.tail]
        held = chain(
            (ONE, MINUS_ONE, ZERO),
            model.objective.values(),
            *[row.coeffs.values() for row in explicit],
            [row.rhs for row in explicit],
        )
        distinct = {id(value): value for value in held}
        texts = model.texts = {key: fmt12(value) for key, value in distinct.items()}
    return texts


def _joined(lines: list[str]) -> list[str]:
    """``lines`` as one string, or no string when there are no lines."""
    return ["\n".join(lines)] if lines else []


@without_cyclic_gc
def model_to_mps(model: BilpModel) -> str:
    return "\n".join(_mps_sections(model))


def _mps_sections(model: BilpModel) -> list[str]:
    """The MPS text as a list of strings of one line or many (a block of
    lines, a column), then ``""`` for the final newline.  The per-column
    lists are freed on return, before the caller builds the full text."""
    rows = model.rows
    head, links, tail = rows.head, rows.links, rows.tail
    first_link = len(head) + 1  # the number of the first link row
    first_tail = first_link + 3 * len(links)
    texts = value_texts(model)
    one, minus_one = texts[id(ONE)], texts[id(MINUS_ONE)]
    out = ["NAME          EHCOPT", "ROWS", " N  OBJ"]
    out += _joined([
        *[f" {row.sense}  R{idx}" for idx, row in enumerate(head, 1)],
        *[f" L  R{idx}" for idx in range(first_link, first_tail)],
        *[f" {row.sense}  R{idx}" for idx, row in enumerate(tail, first_tail)],
    ])

    # transpose: per column, its (row field, value text) pairs, objective
    # first, then rows in order; both are shared strings, not new ones
    per_column: list[list[str] | None] = [[] for _ in range(model.num_variables)]
    for col, coeff in model.objective.items():
        per_column[col].extend(("OBJ       ", texts[id(coeff)]))

    def transpose(numbered) -> None:
        for idx, row in numbered:
            row_field = f"{f'R{idx}':<10}"
            for col, coeff in row.coeffs.items():
                per_column[col].extend((row_field, texts[id(coeff)]))

    transpose(enumerate(head, 1))
    # each arc's three link rows (lnksrc, lnkdst, lnkand) as link_rows makes them
    link_fields = iter([f"{f'R{idx}':<10}" for idx in range(first_link, first_tail)])
    for (a, s, d, _tag), src, dst, both in zip(links, link_fields, link_fields, link_fields):
        per_column[a] += (src, one, dst, one, both, minus_one)
        per_column[s] += (src, minus_one, both, one)
        per_column[d] += (dst, minus_one, both, one)
    transpose(enumerate(tail, first_tail))

    out.append("COLUMNS")
    out.append("    MARKER                 'MARKER'                 'INTORG'")
    for col, fields in enumerate(per_column, 1):
        if fields:
            prefix = f"    {f'X{col}':<10}"
            pairs = iter(fields)
            # one string per column: its "row value" fields live only while it is joined
            out.append(prefix + ("\n" + prefix).join(map(add, pairs, pairs)))
        per_column[col - 1] = None  # release the column's list once it is joined
    out.append("    MARKER                 'MARKER'                 'INTEND'")

    def rhs(numbered) -> list[str]:
        return [
            f"    RHS       {f'R{idx}':<10}{texts[id(row.rhs)]}"
            for idx, row in numbered
            if row.rhs
        ]

    out.append("RHS")
    out += _joined([
        *rhs(enumerate(head, 1)),
        *[f"    RHS       {f'R{idx}':<10}{one}" for idx in range(first_link + 2, first_tail, 3)],  # lnkand
        *rhs(enumerate(tail, first_tail)),
    ])
    out.append("BOUNDS")
    out += _joined([f" BV BND       X{col}" for col in range(1, len(per_column) + 1)])
    out += ["ENDATA", ""]
    return out


@without_cyclic_gc
def model_to_lp(model: BilpModel) -> str:
    """CPLEX-style LP text with the model's own row labels and names."""
    return "\n".join(_lp_sections(model))


def _lp_sections(model: BilpModel) -> list[str]:
    """The LP text as a list of strings of one line or many (a block of
    rows, the binaries), then ``""`` for the final newline.  The term
    table and the names are freed on return, before the caller builds the
    full text."""
    names = model.column_names()
    texts = value_texts(model)
    # the text of a following term, "+ t" or "- t", by value object, made
    # once per distinct text t
    follow = {text: "- " + text[1:] if text[0] == "-" else "+ " + text for text in set(texts.values())}
    terms = {key: follow[text] for key, text in texts.items()}

    def line(head: str, coeffs: dict, *tail: str) -> str:
        """``head``, the terms of ``coeffs`` by column and ``tail``, one space apart."""
        parts = [head]
        cols = sorted(coeffs)
        for col in cols:
            parts.extend((terms[id(coeffs[col])], names[col]))
        if cols:
            parts[1] = texts[id(coeffs[cols[0]])]  # the leading term's own text
        else:
            parts += ("0", names[0])  # an empty sum
        parts += tail
        return " ".join(parts)

    sense_text = {"L": "<=", "E": "=", "G": ">="}
    out = [f"\\ objective: {model.objective_kind.value}", "Minimize", line(" obj:", model.objective)]
    out.append("Subject To")

    def blocks(rows) -> list[str]:
        # one string per block of rows: its lines live only while it is joined
        return [
            "\n".join([
                line(f" {row.label}:", row.coeffs, sense_text[row.sense], texts[id(row.rhs)])
                for row in rows[start : start + _LP_BLOCK]
            ])
            for start in range(0, len(rows), _LP_BLOCK)
        ]

    def link_blocks(links) -> list[str]:
        # the three rows link_rows makes per arc, one string per block of
        # arcs, written as line() writes them: terms by column, so the node
        # columns come before the arc column
        plus, minus = terms[id(ONE)], terms[id(MINUS_ONE)]
        one, negative, zero = texts[id(ONE)], texts[id(MINUS_ONE)], texts[id(ZERO)]
        per_block = _LP_BLOCK // 3
        return [
            "\n".join([
                f" lnksrc_{tag}: {negative} {names[s]} {plus} {names[a]} <= {zero}\n"
                f" lnkdst_{tag}: {negative} {names[d]} {plus} {names[a]} <= {zero}\n"
                f" lnkand_{tag}: {one} {names[min(s, d)]} {plus} {names[max(s, d)]} {minus} {names[a]} <= {one}"
                for a, s, d, tag in links[start : start + per_block]
            ])
            for start in range(0, len(links), per_block)
        ]

    rows = model.rows
    out += blocks(rows.head)
    out += link_blocks(rows.links)
    out += blocks(rows.tail)
    out.append("Binary")
    out.append(" " + "\n ".join(names))
    out += ["End", ""]
    return out
