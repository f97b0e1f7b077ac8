"""Trace CSV output: the same bytes as `csv.writer`, amounts of any length."""

import csv
import io
import sys

from hypothesis import given, settings, strategies as st

from dynbal.dyadic import Dyadic
from dynbal.io import TRACE_COLUMNS, TraceCsvWriter, open_trace_writer
from dynbal.metrics import ALL_CHECKS
from dynbal.records import TraceRow


def reference_amount(value, exp: int = 0) -> str:
    """Exact decimal text by the int formula, independent of `dynbal.dyadic`:
    a Dyadic's own value, or an int numerator over 2**exp."""
    num = value
    if not isinstance(value, int):
        num, exp = value.num, value.exp
    if exp == 0:
        return str(num)
    digits = str(abs(num) * 5**exp).rjust(exp + 1, "0")
    head, tail = digits[:-exp], digits[-exp:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def trace_row(phi, max_gap, d_r, connections, converged, checks=None, exp=0, d_r_exp=0):
    """The `TraceRow` `TraceCsvWriter.round_row` takes, from its fields by name."""
    return TraceRow(phi, max_gap, d_r, connections, converged, checks, exp, d_r_exp)


def row_fields(row: TraceRow) -> list:
    """A row's fields in order, without its text."""
    return [row.phi, row.max_gap, row.d_r, row.connections, row.converged, row.checks,
            row.exp, row.d_r_exp]


def write_reference(path, checks, trace) -> None:
    """`trace` lists (round_index, row) pairs."""
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(TRACE_COLUMNS + tuple(checks))
        for round_index, row in trace:
            phi, max_gap, d_r, connections, converged, verdicts, exp, d_r_exp = row_fields(row)
            fields = [
                round_index,
                reference_amount(phi, exp),
                reference_amount(max_gap, exp),
                reference_amount(d_r, d_r_exp),
                connections,
                "true" if converged else "false",
            ]
            for name in checks:
                if verdicts is None or name not in verdicts:
                    fields.append("")
                else:
                    fields.append("0" if verdicts[name] else "1")
            writer.writerow(fields)


def write_traced(path, checks, trace) -> None:
    writer = open_trace_writer(path, checks)
    try:
        for round_index, row in trace:
            writer.round_row(round_index=round_index, row=row)
    finally:
        writer.close()


amounts = st.one_of(
    st.integers(0, 10**30),
    st.builds(Dyadic, st.integers(-(1 << 400), 1 << 400), st.integers(0, 300)),
)


# A round's verdict dict, or None for a round whose checks did not run.
verdict_dicts = st.none() | st.dictionaries(st.sampled_from(ALL_CHECKS), st.booleans())


rows = st.builds(
    trace_row,
    phi=amounts,
    max_gap=amounts,
    d_r=amounts,
    connections=st.integers(0, 500),
    converged=st.booleans(),
    checks=verdict_dicts,
    exp=st.integers(0, 4),
    d_r_exp=st.integers(0, 4),
)


def twin(row: TraceRow) -> TraceRow:
    """A row of equal values that render differently wherever the exponent
    is not 0: each int amount becomes the Dyadic of the same value, each
    Dyadic of an integer value its numerator (so Dyadic(2) and the
    numerator 2 at exp=1 swap), and no verdict dict an empty one."""
    fields = row_fields(row)
    for i in range(3):  # phi, max_gap, d_r
        value = fields[i]
        if isinstance(value, int):
            fields[i] = Dyadic(value)
        elif value.exp == 0:
            fields[i] = value.num
        assert fields[i] == value
    verdicts = fields[5]
    fields[5] = {} if verdicts is None else None if not verdicts else verdicts
    return TraceRow(*fields)


@st.composite
def traces(draw):
    """(round_index, row) pairs of which some repeat an earlier row (the
    previous row's most often) under a new round index: the very row, a
    new row of its very objects, or its equal-valued twin."""
    trace = []
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["new", "previous", "earlier", "copy", "twin"]
        kind = draw(st.sampled_from(kinds)) if trace else "new"
        if kind == "new":
            row = draw(rows)
        else:
            row = trace[-1][1] if kind == "previous" else draw(st.sampled_from(trace))[1]
            if kind == "twin":
                row = twin(row)
            elif kind == "copy":
                row = TraceRow(*row_fields(row))
        trace.append((draw(st.integers(0, 10**9)), row))
    return trace


@settings(max_examples=100, deadline=None)
@given(checks=st.lists(st.sampled_from(ALL_CHECKS), unique=True), trace=traces())
def test_trace_writer_matches_csv_writer_bytes(tmp_path_factory, checks, trace):
    folder = tmp_path_factory.mktemp("trace")
    write_traced(folder / "traced.csv", checks, trace)
    write_reference(folder / "reference.csv", checks, trace)
    assert (folder / "traced.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def test_equal_rows_that_render_differently_share_no_text():
    passed = {ALL_CHECKS[0]: True}
    unchecked = trace_row(2, 0, 1, 1, False, None, exp=1)
    checked = trace_row(2, 0, 1, 1, False, passed, exp=1)
    dyadic_phi = trace_row(Dyadic(2), 0, 1, 1, False, passed, exp=1)
    trace = [
        (1, unchecked),
        (2, trace_row(2, 0, 1, 1, False, {}, exp=1)),
        (3, checked),
        (4, dyadic_phi),
        (5, checked),
        (6, dyadic_phi),
    ]
    stream = io.StringIO()
    writer = TraceCsvWriter(stream, ALL_CHECKS[:1])
    for round_index, row in trace:
        writer.round_row(round_index=round_index, row=row)
    assert stream.getvalue().split("\r\n")[1:] == [
        "1,1,0,1,1,false,",
        "2,1,0,1,1,false,",
        "3,1,0,1,1,false,0",
        "4,2,0,1,1,false,0",
        "5,1,0,1,1,false,0",
        "6,2,0,1,1,false,0",
        "",
    ]


def test_a_row_keeps_the_text_it_was_first_written_with():
    # The writer renders a row only while its text is None and keeps no
    # state of its own between rows: the very row written again writes its
    # new index and the text it carries.
    row = trace_row(3, 1, 2, 1, True, {ALL_CHECKS[0]: False}, exp=1, d_r_exp=1)
    stream = io.StringIO()
    writer = TraceCsvWriter(stream, ALL_CHECKS[:1])
    state = dict(vars(writer))
    writer.round_row(round_index=4, row=row)
    assert row.text == "1.5,0.5,1,1,true,1"
    row.phi = 5  # shows only if the row were rendered again
    writer.round_row(round_index=5, row=row)
    assert stream.getvalue().split("\r\n")[1:] == [
        "4,1.5,0.5,1,1,true,1",
        "5,1.5,0.5,1,1,true,1",
        "",
    ]
    assert vars(writer) == state


def test_trace_row_with_amounts_past_int_digit_limit(tmp_path):
    row = trace_row(
        Dyadic(-(3 << 9000 | 1), 9000), Dyadic(1, 7000), 1 << 20000, 3, False,
        {ALL_CHECKS[0]: True},
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        write_reference(tmp_path / "reference.csv", ALL_CHECKS[:1], [(5699, row)])
    finally:
        sys.set_int_max_str_digits(limit)
    write_traced(tmp_path / "traced.csv", ALL_CHECKS[:1], [(5699, row)])
    data = (tmp_path / "traced.csv").read_bytes()
    assert data == (tmp_path / "reference.csv").read_bytes()
    assert len(data) > 3 * sys.int_info.default_max_str_digits


def test_trace_row_bytes(tmp_path):
    with open(tmp_path / "trace.csv", "w", newline="") as stream:
        writer = TraceCsvWriter(stream)
        writer.round_row(round_index=0, row=trace_row(Dyadic(3, 1), 0, 0, 0, True))
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"round,phi,max_gap,d_r,connections,converged\r\n0,1.5,0,0,0,true\r\n"
    )


big = st.integers(-(1 << 400), 1 << 400)


@settings(max_examples=100, deadline=None)
@given(phi=big, gap=big, exp=st.integers(0, 300), d_r=big, d_r_exp=st.integers(0, 300))
def test_trace_row_numerators_render_as_their_dyadic_values(phi, gap, exp, d_r, d_r_exp):
    # The engine hands the writer numerators with their exponents.
    texts = []
    for row in (
        trace_row(phi, gap, d_r, 2, False, exp=exp, d_r_exp=d_r_exp),
        trace_row(Dyadic(phi, exp), Dyadic(gap, exp), Dyadic(d_r, d_r_exp), 2, False),
    ):
        stream = io.StringIO()
        TraceCsvWriter(stream).round_row(round_index=1, row=row)
        texts.append(stream.getvalue())
    assert texts[0] == texts[1]
