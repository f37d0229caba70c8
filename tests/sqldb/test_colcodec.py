"""The binary column codec behind results frames and checkpoint images.

Round trips pin that decoding gives back every value bit for bit — NaN,
±inf, -0.0, integers at each narrowing edge, text with a lone surrogate,
ragged arrays with NULL elements, mixed-type cells — and one ``str``
object per distinct string.  The hostile-input suites throw random
bytes, well-framed garbage and mutated genuine frames at the decoder:
on the wire only :class:`ProtocolViolation` may come out, on disk only
:class:`DurabilityError`, and a header that claims more rows than its
buffers hold is refused before anything is allocated.
"""

from __future__ import annotations

import base64
import copy
import json
import socket
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import DurabilityError, ProtocolViolation
from repro.sqldb import Database, colcodec
from repro.sqldb.catalog import decode_records
from repro.sqldb.engine import Result
from repro.sqldb.protocol import encode_frame, recv_frame
from repro.sqldb.replication import decode_snapshot, encode_snapshot
from repro.sqldb import vector as vector_module
from repro.sqldb.vector import (
    Vector,
    array_vector,
    from_values,
    gather,
    read_only,
    text_vector,
    to_rows,
)
from repro.sqldb.wal import (
    checkpoint_image,
    decode_checkpoint,
    encode_record,
    frame,
)


def _examples(request) -> int:
    rounds = request.config.getoption("--fuzz-rounds")
    return 10 * (rounds if rounds is not None else 5)


def _same(a, b) -> bool:
    """Equal values of equal types; floats by bit pattern."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _round_trip(vectors: list[Vector]) -> list[Vector]:
    """Through the codec, its headers through JSON as both carriers do."""
    headers, buffers = colcodec.encode(vectors)
    headers = json.loads(json.dumps(headers))
    rows = len(vectors[0]) if vectors else 0
    return colcodec.decode(headers, rows, b"".join(buffers))


def _assert_round_trips(vector: Vector, back: Vector) -> None:
    assert back.is_array == vector.is_array
    if vector.is_array:
        # the offsets as they are, the elements by the same rules
        assert back.values.tolist() == vector.values.tolist()
        assert back.nulls.tolist() == vector.nulls.tolist()
        _assert_round_trips(vector.elements, back.elements)
        return
    assert back.is_text == vector.is_text
    if vector.is_text:
        # text comes back coded, over the entries its rows use
        assert back.values.dtype == np.int32
        assert len(set(back.dictionary.tolist())) == len(back.dictionary)
        assert back.tolist() == vector.tolist()
        assert back.nulls.tolist() == vector.nulls.tolist()
        return
    assert back.values.dtype == vector.values.dtype
    assert back.nulls.tolist() == vector.nulls.tolist()
    present = ~vector.nulls
    if vector.values.dtype.kind == "f":
        assert (
            back.values[present].view(np.int64).tolist()
            == vector.values[present].view(np.int64).tolist()
        )
        assert np.isnan(back.values[vector.nulls]).all()
    elif vector.values.dtype.kind == "b":
        assert back.values[present].tolist() == vector.values[present].tolist()
    else:
        for a, b in zip(vector.values[present], back.values[present]):
            assert _same(a, b), (a, b)
        assert all(cell is None for cell in back.values[vector.nulls])
        strings = back.values[present].tolist()
        if all(type(c) is str for c in strings):
            # one object per distinct string, as COPY stores text
            assert len({id(c) for c in strings}) == len(set(strings))


# -- round trips -----------------------------------------------------------------------

_EDGES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e19, -1e19,
    float(2**53 + 1), 0.5, -2.25, 1e-300,
    127.0, 128.0, -128.0, -129.0, 32767.0, 32768.0, -32768.0, -32769.0,
    2.0**31 - 1, 2.0**31, -(2.0**31), -(2.0**31) - 1,
]
_TEXT = st.sampled_from(["", "a", "é", "日本", "\udc80", "x" * 40]) | st.text(
    max_size=6
)
_ELEMENT = st.one_of(
    st.none(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=True).filter(lambda f: not f.is_integer()),
    st.sampled_from([1.0, 2**60, -0.0]),  # stored as float64 elements
)


@st.composite
def _vectors(draw) -> Vector:
    rows = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(
        ["numbers", "bools", "text", "arrays", "text arrays", "bool arrays",
         "mixed"]
    ))
    null_mode = draw(st.sampled_from(["none", "some", "all"]))
    if null_mode == "none":
        nulls = np.zeros(rows, dtype=bool)
    elif null_mode == "all":
        nulls = np.ones(rows, dtype=bool)
    else:
        nulls = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                       max_size=rows)), dtype=bool)
    if kind == "numbers":
        cells = draw(st.lists(
            st.sampled_from(_EDGES) | st.floats(allow_nan=True)
            | st.integers(-300, 300).map(float),
            min_size=rows, max_size=rows,
        ))
        values = np.array(cells, dtype=np.float64)
        values[nulls] = np.nan
        return Vector(values, nulls)
    if kind == "bools":
        values = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                        max_size=rows)), dtype=bool)
        return Vector(values & ~nulls, nulls)
    values = np.empty(rows, dtype=object)
    if kind == "text":
        cells = draw(st.lists(_TEXT, min_size=rows, max_size=rows))
        # the stored dictionary may hold entries no row uses
        unused = draw(st.lists(_TEXT, max_size=3))
        stored = text_vector(
            unused + [None if null else c for c, null in zip(cells, nulls)],
            np.concatenate([np.zeros(len(unused), dtype=bool), nulls]),
        )
        return gather(stored, np.arange(len(unused), len(unused) + rows))
    elif kind == "mixed":
        cells = draw(st.lists(
            st.one_of(st.integers(), st.floats(), st.booleans(), _TEXT,
                      st.lists(st.integers(), max_size=3),
                      st.lists(st.lists(st.integers(), max_size=2), max_size=2)),
            min_size=rows, max_size=rows,
        ))
        # cells that are all lists are an array column, not mixed ones
        assume(not all(
            type(c) is list for c, null in zip(cells, nulls) if not null
        ))
    else:
        element = {
            "arrays": _ELEMENT,
            "text arrays": st.none() | _TEXT,
            "bool arrays": st.none() | st.booleans(),
        }[kind]
        pool = draw(st.lists(st.lists(element, max_size=4), min_size=1,
                             max_size=4))
        if draw(st.booleans()):  # arrays of arrays
            pool = [[cell, cell[:1]] for cell in pool]
        cells = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(rows)]
        return array_vector(
            [None if null else cell for cell, null in zip(cells, nulls)]
        )
    for i, cell in enumerate(cells):
        values[i] = None if nulls[i] else cell
    return Vector(values, nulls)


@pytest.mark.fuzz
def test_random_vectors_round_trip_bit_identically(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(st.lists(_vectors(), max_size=4).filter(
        lambda vs: len({len(v) for v in vs}) <= 1
    ))
    def check(vectors):
        for vector, back in zip(vectors, _round_trip(vectors)):
            _assert_round_trips(vector, back)

    check()


def test_edge_numbers_narrow_only_when_bit_identical():
    cases = {
        "<i1": [127.0, -128.0, 0.0],
        "<i2": [128.0, -129.0, 32767.0],
        "<i4": [32768.0, 2.0**31 - 1, -(2.0**31)],
        "<f8": [2.0**31],
    }
    for tag, cells in cases.items():
        vector = Vector(np.array(cells), np.zeros(len(cells), dtype=bool))
        [header], _ = colcodec.encode([vector])
        assert header["tag"] == tag
        _assert_round_trips(vector, _round_trip([vector])[0])
    for special in (-0.0, float("nan"), float("inf"), 0.5, 1e19):
        vector = Vector(np.array([1.0, special]), np.zeros(2, dtype=bool))
        [header], _ = colcodec.encode([vector])
        assert header["tag"] == "<f8"
        _assert_round_trips(vector, _round_trip([vector])[0])


def test_each_shape_gets_its_tag():
    def objects(*cells):
        values = np.empty(len(cells), dtype=object)
        values[:] = list(cells)
        return Vector(values, np.array([c is None for c in cells]))

    one_hot = [0, 1, 0]
    vectors = [
        Vector(np.array([True, False]), np.array([False, True])),
        from_values(["a", None]),
        array_vector([one_hot, one_hot]),
        array_vector([[1.0], [2]]),  # float64 elements, as stored
        objects(1, "x"),
        array_vector([[[1]], None]),
        array_vector([[True, "a"], None]),
    ]
    headers, _ = colcodec.encode(vectors)
    assert [h["tag"] for h in headers] == [
        "|b1", "text", "array", "array", "json", "array", "array"
    ]
    assert headers[2]["elements"]["tag"] == "<i1"
    assert headers[5]["elements"]["tag"] == "array"  # arrays of arrays
    assert headers[6]["elements"]["tag"] == "json"  # mixed-type elements
    for vector, back in zip(vectors, _round_trip(vectors)):
        _assert_round_trips(vector, back)


def test_equal_length_arrays_fetch_as_one_matrix():
    """The decode of arrays is a buffer copy, and the fetch of arrays of
    one length (one-hot vectors) builds every row's list in one
    ``tolist`` of the element matrix: each row its own list."""
    one_hot = [[1 if i == k else 0 for i in range(16)] for k in range(3)]
    cases = [
        ([one_hot[i % 3] for i in range(9)], [one_hot[i % 3] for i in range(9)]),
        ([["a", "b"], ["a", "b"]], [["a", "b"], ["a", "b"]]),
        ([[0.5, 1.0], [-0.0, 2.5]], [[0.5, 1], [0, 2.5]]),
        ([[True, False], [False, False]], [[True, False], [False, False]]),
    ]
    for cells, want in cases:
        [back] = _round_trip([array_vector(cells)])
        fetched = vector_module.python_cells(back)
        assert _same(fetched, want), fetched
        assert len({id(cell) for cell in fetched}) == len(cells)


def test_zero_rows_and_zero_columns():
    assert _round_trip([]) == []
    empty = [
        Vector(np.zeros(0), np.zeros(0, dtype=bool)),
        Vector(np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)),
        Vector(np.empty(0, dtype=object), np.zeros(0, dtype=bool)),
        text_vector([], np.zeros(0, dtype=bool)),
    ]
    for vector, back in zip(empty, _round_trip(empty)):
        _assert_round_trips(vector, back)


def test_results_frame_round_trips_a_query_over_every_storage_class():
    db = Database()
    db.execute("CREATE TABLE t (i int, f float, s text, b boolean, a int[])")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        [(1, -0.0, "é", True, [1, 2]), (None, None, None, None, None),
         (2**40, float("nan"), "\udc80", False, [])],
    )
    result = db.execute(
        "SELECT i, f, s, b, a, array_fill(0, 2) || i AS o FROM t ORDER BY ctid"
    )
    a, b = socket.socketpair()
    with a, b:
        a.sendall(encode_frame({"type": "results", "results": [result]}))
        [back] = recv_frame(b)["results"]
    rows = to_rows(back["vectors"])
    assert len(rows) == len(result.rows) == back["rowcount"]
    for got, want in zip(rows, result.rows):
        assert all(map(_same, got, want)), (got, want)


def test_checkpoint_round_trips_every_storage_class(tmp_path):
    wal = str(tmp_path / "db.wal")
    db = Database(wal_path=wal)
    db.execute("CREATE TABLE t (i int, f float, s text, b boolean, a int[])")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        [(1, -0.0, "\udc80", True, [1, None]), (None, None, None, None, None),
         (2**40, float("inf"), "", False, [2.5, "x"])],
    )
    query = "SELECT * FROM t ORDER BY ctid"
    before = db.execute(query).rows
    db.execute("CHECKPOINT")
    db.close()
    recovered = Database(wal_path=wal)
    try:
        after = recovered.execute(query).rows
    finally:
        recovered.close()
    for got, want in zip(after, before):
        assert all(map(_same, got, want)), (got, want)
    assert len(after) == len(before) == 3


def test_result_columns_are_read_only_views():
    db = Database()
    db.execute("CREATE TABLE t (a int)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("SELECT a FROM t")
    [vector] = result.vectors
    with pytest.raises(ValueError):
        vector.values[0] = 5.0
    stored = db.catalog.table("t").columns["a"]
    assert vector.values is not stored.values
    db.execute("UPDATE t SET a = 7")
    assert vector.values.tolist() == [1.0, 2.0]  # copy-on-write storage


# -- hostile input ---------------------------------------------------------------------


def _genuine_result() -> Result:
    db = Database()
    db.execute("CREATE TABLE t (i int, s text, b boolean, a int[], m text[])")
    db.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        [(1, "x", True, [1, 2], ["p"]), (None, None, None, None, None),
         (3, "x", False, [3, None], ["q", "r"]), (4, "y", True, [], [])],
    )
    return db.execute(
        "SELECT i, s, b, a, m, i * 0.5 AS h, array_fill(1, 2) AS k FROM t "
        "ORDER BY ctid"
    )


_RESULT = _genuine_result()


def _payload(message: dict) -> bytes:
    """The payload of a binary frame: header JSON behind its length."""
    return encode_frame(message)[4:]


def _binary(header: dict, buffers: bytes) -> bytes:
    text = json.dumps(header).encode()
    return b"\x01" + struct.pack(">I", len(text)) + text + buffers


def _split(payload: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack_from(">I", payload, 1)
    return json.loads(payload[5:5 + length]), payload[5 + length:]


def _recv(payload: bytes):
    a, b = socket.socketpair()
    with a, b:
        a.sendall(struct.pack(">I", len(payload)) + payload)
        a.shutdown(socket.SHUT_WR)
        return recv_frame(b)


_GENUINE = _payload({"type": "results", "results": [_RESULT],
                     "in_transaction": False})

_KEYS = ["type", "results", "columns", "rowcount", "statement", "vectors",
         "tag", "sizes", "dict", "count", "elements", "cells"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["results", "<i1", "<f8", "|b1", "text", "array", "json",
                       "<i8", "<M8[s]"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=6),
    max_leaves=20,
)


@pytest.mark.fuzz
def test_random_binary_payloads_are_protocol_violations(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(blob=st.binary(max_size=200))
    def check(blob):
        with pytest.raises(ProtocolViolation):
            _recv(b"\x01" + blob)

    check()


@pytest.mark.fuzz
def test_well_framed_garbage_results_are_protocol_violations(request):
    @settings(max_examples=_examples(request), deadline=None)
    @given(
        results=st.lists(
            st.fixed_dictionaries({}, optional={
                key: _JSON
                for key in ("columns", "rowcount", "statement", "vectors")
            }),
            max_size=3,
        ),
        buffers=st.binary(max_size=64),
    )
    def check(results, buffers):
        try:
            _recv(_binary({"type": "results", "results": results}, buffers))
        except ProtocolViolation:
            pass

    check()


def _mutations(header: dict) -> list:
    """Every (container, key) in a results header a mutation may hit."""
    spots = []

    def walk(node):
        if isinstance(node, dict):
            spots.extend((node, key) for key in node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            spots.extend((node, i) for i in range(len(node)))
            for value in node:
                walk(value)

    walk(header)
    return spots


@pytest.mark.fuzz
def test_mutated_genuine_frames_are_protocol_violations(request):
    """Any one field of a genuine results header replaced by arbitrary
    JSON, or its buffers truncated, extended or with one byte replaced,
    either still decodes or raises 08P01 — nothing else escapes."""
    header, buffers = _split(_GENUINE)

    @settings(max_examples=_examples(request), deadline=None)
    @given(data=st.data())
    def check(data):
        mutated, blob = copy.deepcopy(header), buffers
        if data.draw(st.booleans()):
            container, key = data.draw(st.sampled_from(_mutations(mutated)))
            container[key] = data.draw(_JSON)
        else:
            at = data.draw(st.integers(0, len(blob) - 1))
            blob = data.draw(st.sampled_from([
                blob[:at],
                blob + bytes([at % 256]),
                blob[:at] + bytes([data.draw(st.integers(0, 255))])
                + blob[at + 1:],
            ]))
        try:
            _recv(_binary(mutated, blob))
        except ProtocolViolation:
            pass

    check()


def _column(header: dict, tag: str) -> dict:
    return next(
        c for c in header["results"][0]["vectors"] if c["tag"] == tag
    )


def _offset_of(header: dict, column: dict) -> int:
    """Where *column*'s buffers start in the frame's buffers."""
    start = 0
    for c in header["results"][0]["vectors"]:
        if c is column:
            return start
        start += colcodec.payload_size([c], header["results"][0]["rowcount"])
    raise AssertionError("column not in header")


def _codes_out_of_dictionary(header, buffers):
    text = _column(header, "text")
    at = _offset_of(header, text)
    return header, buffers[:at] + struct.pack("<i", 7) + buffers[at + 4:]


def _offsets_not_monotonic(header, buffers):
    array = _column(header, "array")
    at = _offset_of(header, array)
    return header, buffers[:at] + struct.pack("<q", 3) + buffers[at + 8:]


def _length_off_by_one(header, buffers):
    _column(header, "<i1")["sizes"][0] += 1
    return header, buffers + b"\x00"


def _tag_replaced(header, buffers):
    _column(header, "<i1")["tag"] = "<i2"
    return header, buffers


def _rowcount_raised(header, buffers):
    header["results"][0]["rowcount"] += 1
    return header, buffers


def _truncated(header, buffers):
    return header, buffers[:-1]


def _bool_byte_out_of_range(header, buffers):
    flags = _column(header, "|b1")
    at = _offset_of(header, flags)
    return header, buffers[:at] + b"\x02" + buffers[at + 1:]


def _null_code_on_a_present_row(header, buffers):
    text = _column(header, "text")
    at = _offset_of(header, text)
    n = struct.pack("<i", len(text["dict"]))
    return header, buffers[:at] + n + buffers[at + 4:]


TARGETED = {
    "a length": _length_off_by_one,
    "a tag": _tag_replaced,
    "a code outside the dictionary": _codes_out_of_dictionary,
    "the NULL code on a present row": _null_code_on_a_present_row,
    "non-monotonic offsets": _offsets_not_monotonic,
    "rowcount": _rowcount_raised,
    "truncation": _truncated,
    "a bool byte that is not 0 or 1": _bool_byte_out_of_range,
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_mutation_is_refused_on_the_wire(case):
    header, buffers = TARGETED[case](*_split(_GENUINE))
    with pytest.raises(ProtocolViolation) as raised:
        _recv(_binary(header, buffers))
    assert raised.value.sqlstate == "08P01"


def _table_record(header: dict, buffers: bytes) -> dict:
    result = header["results"][0]
    return {
        "t": "table", "name": "x", "columns": result["columns"],
        "types": ["int", "text", "bool", "array", "array", "float", "array"],
        "rows": result["rowcount"], "serial": {},
        "data": result["vectors"], "blob": buffers,
    }


def test_genuine_columns_decode_as_a_table_record():
    table = decode_records([_table_record(*_split(_GENUINE))]).table("x")
    rows = to_rows([table.columns[c] for c in table.column_names])
    assert rows == _RESULT.rows


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_mutation_is_refused_on_disk_and_in_a_snapshot(case):
    record = _table_record(*TARGETED[case](*_split(_GENUINE)))
    with pytest.raises(DurabilityError, match="malformed catalog record"):
        decode_records([record])
    image = checkpoint_image([record], 0)
    with pytest.raises(ProtocolViolation) as raised:
        decode_snapshot(encode_snapshot(image))
    assert raised.value.sqlstate == "08P01"


def test_header_claiming_2_40_rows_is_refused_before_allocating():
    header, buffers = _split(_GENUINE)
    header["results"][0]["rowcount"] = 2**40
    for column in header["results"][0]["vectors"]:
        column["sizes"] = [0] * len(column["sizes"])
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolViolation):
            _recv(_binary(header, b""))
        with pytest.raises(colcodec.MalformedColumns):
            colcodec.decode(
                [{"tag": "<f8", "sizes": [2**43, 2**37]}], 2**40, b""
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_json_results_frame_is_refused():
    payload = json.dumps({"type": "results", "results": []}).encode()
    with pytest.raises(ProtocolViolation, match="binary"):
        _recv(payload)


def test_binary_frame_of_another_type_is_refused():
    with pytest.raises(ProtocolViolation, match="results frame"):
        _recv(_binary({"type": "query", "sql": "SELECT 1"}, b""))


def test_per_cell_json_checkpoint_asks_for_a_rebuild():
    old = b"RCKP2\n" + b"\x00" * 8
    with pytest.raises(DurabilityError, match="RCKP2.*rebuild the database"):
        decode_checkpoint(old, "ckpt")
    frame = base64.b64encode(zlib.compress(old)).decode("ascii")
    with pytest.raises(ProtocolViolation, match="rebuild the database"):
        decode_snapshot(frame)


def test_blob_frame_missing_or_of_another_length_is_refused():
    record = _table_record(*_split(_GENUINE))
    records, _ = decode_checkpoint(checkpoint_image([record], 0), "ckpt")
    assert records[0]["blob"] == record["blob"]
    header = {k: v for k, v in record.items() if k != "blob"}
    blob, closing = record["blob"], encode_record({"t": "checkpoint", "txn": 0})
    for body in (
        encode_record(dict(header, blob=len(blob) + 1)) + frame(blob) + closing,
        encode_record(dict(header, blob=len(blob))),  # no frame follows
        encode_record(dict(header, blob="x")) + frame(b"") + closing,
    ):
        with pytest.raises(DurabilityError):
            decode_checkpoint(b"RCKP3\n" + body, "ckpt")


def test_read_only_helper_does_not_copy():
    vector = Vector(np.arange(3.0), np.zeros(3, dtype=bool))
    view = read_only(vector)
    assert view.values.base is vector.values
    assert not view.values.flags.writeable and vector.values.flags.writeable
