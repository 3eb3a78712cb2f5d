import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsense.depth import DepthDataset
from nvsense.protocol import nv3_config, run_experiment
from nvsense.sequences import CoherenceCurve, check_train
from nvsense.tables import _BLOCK_ROWS, read_table, table_blocks, write_table

HEADER = "a,b,c"

# fields that are numbers, near-numbers and junk, so that generated rows
# hit every branch of the parser
FIELD = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.eE+-_naif x\t", max_size=8),
    st.text(max_size=4),
)
ROW = st.lists(FIELD, max_size=4).map(",".join)
NUMBER = st.one_of(st.floats().map(repr), st.integers(-(10**20), 10**20).map(str))
ROW3 = st.tuples(NUMBER, st.text(alphabet="NVSQUID \t", max_size=5), NUMBER).map(
    ",".join
)
NUMBERS3 = st.tuples(NUMBER, NUMBER, NUMBER).map(",".join)


def table_texts(header, *rows):
    """Junk, headerless rows, and ``header`` over rows of ``ROW`` and of each
    strategy in ``rows``."""
    return st.one_of(
        st.text(max_size=80),
        st.lists(ROW, max_size=6).map("\n".join),
        *(
            st.lists(row, max_size=6).map(lambda lines: "\n".join([header] + lines))
            for row in (ROW, *rows)
        ),
    )


TEXT = table_texts(HEADER, ROW3)


@given(TEXT)
@settings(max_examples=400, deadline=None)
def test_read_table_parses_or_raises_value_error(text):
    try:
        columns = read_table(text, HEADER, text_columns=("b",))
    except ValueError:
        return
    assert len(columns) == 3
    n = len(columns[0])
    assert n >= 1
    assert all(len(col) == n for col in columns)
    for col in (columns[0], columns[2]):
        assert col.dtype == float
        assert np.all(np.isfinite(col))


# rows a scan can accept, sorted by their grid: a small grid value, a
# coherence near [0, 1] and a sigma
SCAN_ROWS = st.lists(
    st.tuples(
        st.floats(1e-9, 1e-3),
        st.one_of(st.floats(0.0, 1.0), st.floats(-0.1, 1.1)),
        st.floats(0.0, 0.1),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda row: row[0],
).map(lambda rows: [",".join(map(repr, row)) for row in sorted(rows)])
JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["XY16", "XY8", "CPMG", "RAMSEY"]),
    st.lists(st.integers(), max_size=2),
)
SIDECARS = {
    DepthDataset: {
        "sequence": "XY16", "N": 16, "b0_tesla": 0.035, "sample": "glycerine",
        "rho_per_nm3": 66.0,
    },
    CoherenceCurve: {"family": "XY16", "N": 16},
}


def _edited(valid, dropped, values):
    kept = {k: v for k, v in valid.items() if k not in dropped}
    return json.dumps({**kept, **values})


def sidecar_texts(valid):
    """Junk, any JSON value, ``valid``, and ``valid`` with keys dropped,
    added or set to any JSON value."""
    return st.one_of(
        st.text(max_size=40),
        JSON_VALUE.map(json.dumps),
        st.just(json.dumps(valid)),
        st.builds(
            _edited,
            st.just(valid),
            st.sets(st.sampled_from(sorted(valid))),
            st.dictionaries(st.sampled_from([*valid, "extra"]), JSON_VALUE, max_size=3),
        ),
    )


@pytest.mark.parametrize("kind", SIDECARS, ids=lambda kind: kind.__name__)
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_scan_reader_returns_a_scan_or_a_data_error(kind, data):
    """Any table and sidecar text gives a scan, or one of the exceptions
    that the CLI turns into exit 3."""
    if data.draw(st.booleans()):
        table = data.draw(table_texts(kind.HEADER, NUMBERS3))
    else:
        table = "\n".join([kind.HEADER] + data.draw(SCAN_ROWS))
    sidecar = data.draw(st.one_of(sidecar_texts(SIDECARS[kind]), st.none()))
    try:
        scan = kind.from_csv(table, sidecar)
    except (ValueError, KeyError, TypeError):
        return
    grid, coherence, sigma = scan._columns().values()
    assert len(grid) == len(coherence) == len(sigma) >= 1
    assert np.all(grid[1:] > grid[:-1])
    assert np.all((coherence >= -0.05) & (coherence <= 1.05))
    if sidecar is not None:
        check_train(scan.family, scan.n_pulses)


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(2**53), 2**53),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_write_then_read_is_lossless(rows):
    floats, ints = (np.array(col) for col in zip(*rows))
    x, n = read_table(write_table("x,n", floats, ints.astype(np.int64)), "x,n")
    np.testing.assert_array_equal(x, floats)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(floats))
    np.testing.assert_array_equal(n, ints)  # exact in float64 up to 2**53


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty table: expected the header"),
        ("\n  \n", "empty table: expected the header"),
        ("x,y,z\n1,2,3\n", "line 1: expected the header"),
        ("\na,b,c\n\n", "line 2: the header has no data rows"),
        ("a,b,c\n1,NV,3\n1,2\n", "line 3: 2 fields, the header has 3"),
        ("a,b,c\n1,NV,3\n1,NV,3,4\n", "line 3: 4 fields, the header has 3"),
        ("a,b,c\n1,NV,inf\n", "line 2: c is not a finite number: 'inf'"),
        ("a,b,c\n1,NV,3\n\nnan,NV,3\n", "line 4: a is not a finite number: 'nan'"),
        ("a,b,c\n1,NV,1e400\n", "line 2: c is not a finite number: '1e400'"),
        ("a,b,c\n1,NV,x\n", "line 2: c is not a finite number: 'x'"),
    ],
)
def test_read_table_names_the_faulty_line(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_table(text, HEADER, text_columns=("b",))


def test_read_table_strips_fields_and_keeps_text():
    a, b, c = read_table(" a,b,c \n\n 1.5 , NV ,-0.0\n2,SQUID,3\n", HEADER, ("b",))
    np.testing.assert_array_equal(a, [1.5, 2.0])
    assert b.tolist() == ["NV", "SQUID"]
    assert np.signbit(c[0]) and c[1] == 3.0


def test_write_table_matches_per_row_formatting():
    # the per-row f-strings every table was written with before the codec
    floats = np.array([-0.0, 5e-324, 1e300, 0.1, 1 / 3, -2.5e-7, 2.0**60, 1.0])
    ints = np.array([0, -1, 7, 2**40, -(2**62), 3, 12, 5], dtype=np.int64)
    kinds = ["NV", "SQUID", "BEC", "a b", "x", "y", "z", "w"]
    expected = "f,i,s\n" + "".join(
        f"{float(f)!r},{int(i)},{s}\n" for f, i, s in zip(floats, ints, kinds)
    )
    assert write_table("f,i,s", floats, ints, kinds) == expected
    # a list of Python floats, as the GRAPE trace is
    trace = [0.5, 0.25, 1e-17]
    assert write_table("i,f", np.arange(3), trace) == "i,f\n" + "".join(
        f"{i},{float(f)!r}\n" for i, f in enumerate(trace)
    )


def test_shot_table_matches_per_row_formatting():
    run = run_experiment(nv3_config(), 1e-9, 5000, seed=1)
    expected = "shot,sign,init_cycles,photons\n" + "".join(
        f"{i},{int(s)},{int(c)},{int(p)}\n"
        for i, (s, c, p) in enumerate(zip(run.signs, run.init_cycles, run.photons))
    )
    assert run.to_csv() == expected


def _per_row(header, *columns):
    """The table as ``"%s,...\n" % row`` over Python values, one row at a time."""
    row = ",".join(["%s"] * len(columns)) + "\n"
    values = [list(c) if isinstance(c, range) else c.tolist() for c in columns]
    return header + "\n" + "".join(row % r for r in zip(*values))


INT_DTYPES = (np.int8, np.int16, np.uint16, np.int64)
# row counts on both sides of one and two block boundaries
ROW_COUNTS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
    st.just(2 * _BLOCK_ROWS + 3),
)


def _edge_values(dtype):
    """0, +-1, +-(10**k) and +-(10**k - 1), and the limits, within ``dtype``."""
    info = np.iinfo(dtype)
    powers = [10**k for k in range(20)]
    values = {0, 1, -1, info.min, info.max}
    values.update(v for p in powers for v in (p, p - 1, -p, 1 - p))
    return np.array(sorted(v for v in values if info.min <= v <= info.max), dtype)


@st.composite
def integer_columns(draw):
    n = draw(ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(INT_DTYPES + (range,)))
        if kind is range:
            start = draw(st.integers(-(10**6), 10**6))
            step = draw(st.sampled_from([1, 3, -1, -7]))
            columns.append(range(start, start + step * n, step))
            continue
        info = np.iinfo(kind)
        edges = _edge_values(kind)
        spread = rng.integers(info.min, info.max, size=n, dtype=kind, endpoint=True)
        picks = edges[rng.integers(len(edges), size=n)]
        columns.append(np.where(rng.random(n) < 0.5, picks, spread).astype(kind))
    return columns


@given(integer_columns())
@settings(max_examples=60, deadline=None)
def test_integer_table_matches_per_row_formatting(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert write_table(header, *columns) == _per_row(header, *columns)


def test_one_row_and_empty_integer_tables():
    assert write_table("a,b", np.array([-7], np.int8), range(1)) == "a,b\n-7,0\n"
    assert write_table("a", np.array([], np.int64)) == "a\n"


def test_mixed_integer_and_float_table_keeps_its_bytes():
    ints = np.arange(-3, _BLOCK_ROWS + 3, dtype=np.int64)
    floats = ints * 0.1
    assert write_table("i,x", ints, floats) == _per_row("i,x", ints, floats)


def test_uint64_beyond_int64_does_not_wrap():
    big = np.array([2**63, 2**64 - 1, 0, 10**19], dtype=np.uint64)
    text = write_table("u,i", big, range(4))
    assert text == "u,i\n" + "".join(f"{v},{i}\n" for i, v in enumerate(big.tolist()))
    assert "-" not in text
    # a range beyond int64 is written from Python ints
    huge = range(2**63 - 2, 2**63 + 2)
    assert write_table("i", huge) == "i\n" + "".join(f"{i}\n" for i in huge)


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])
@pytest.mark.parametrize("with_float", [False, True], ids=["integers", "float"])
def test_table_blocks_join_to_the_table(n, with_float):
    """The header line, then one string per block of at most _BLOCK_ROWS
    rows, which join to write_table's text and to the per-row text."""
    columns = [range(n), (np.arange(n) % 256 - 128).astype(np.int8)]
    if with_float:
        columns.append(np.arange(n) / 7)
    header = ",".join(f"c{k}" for k in range(len(columns)))
    blocks = list(table_blocks(header, *columns))
    assert blocks[0] == header + "\n"
    assert len(blocks) == 1 + -(-n // _BLOCK_ROWS)
    assert all(0 < block.count("\n") <= _BLOCK_ROWS for block in blocks[1:])
    assert "".join(blocks) == write_table(header, *columns) == _per_row(header, *columns)


def test_table_blocks_refuses_unequal_columns_when_called():
    with pytest.raises(ValueError, match="equally long"):
        table_blocks("a,b", [1.0], [1.0, 2.0])
