import ipaddress
import math
import random
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtopo import cli, flows, synth
from flowtopo.flows import (
    FLOW_HEADER,
    MAX_WINDOWS,
    SESSION_HEADER,
    FlowFormatError,
    FlowRecord,
    SessionRecord,
    _check_record,
    _flow_records,
    _is_ipv4,
    _session_order,
    pair_bidirectional,
    parse_flows,
    parse_windowed_sessions,
    serialize_flows,
    serialize_windowed_sessions,
    window,
)
from oracles import (
    FLOW_NAMES,
    oracle_check_record,
    oracle_components,
    oracle_pair_bidirectional,
    oracle_parse_feature_csv,
    oracle_parse_flows,
    oracle_parse_points,
    oracle_parse_windowed_sessions,
)


def rec(s, e, sip, dip, sp, dp, flags="S"):
    return FlowRecord(s, e, sip, dip, sp, dp, flags)


def outcome(parse, *args):
    """What parse returns, or the type, message, line and field it raises."""
    try:
        return parse(*args)
    except (FlowFormatError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "line_number", None),
                getattr(exc, "field", None))


# padding that str.strip removes; float and int refuse U+001C-U+001F
PADDING = st.text(alphabet=" \t\xa0\u3000\x1c\x1d\x1e\x1f", max_size=2)
# valid values, with '_', a leading '+' and non-ASCII digits; every start
# precedes every end
START_TEXT = st.sampled_from(["0", "1", "-0.0", "+1", "1_0", "\u0663", "\uff17", "2.5"])
END_TEXT = st.sampled_from(["10", "1e3", "2_0", "+12", "\u0661\u0662.5", "1E2"])
IP_TEXT = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.1"])
PORT_TEXT = st.one_of(st.integers(0, 65535).map(str),
                      st.sampled_from(["+80", "8_0", "\u0668\u0660", "0", "65535"]))
# values that break a row: non-numbers, non-finite or early times, bad
# addresses, ports out of range or not integers
BAD_TEXT = st.sampled_from([
    "x", "", "1__0", "0x10", "5.0.0", "nan", "-inf", "inf", "1e309", "-5",
    "999.0.0.1", "10.0.0", "010.0.0.1", "a.b.c.d", "\u0661.0.0.1",
    "-1", "65536", "70000", "80.5", "1e3", "+-1"])
LINE_END = st.sampled_from(["", "\n", "\r\n"])


def csv_lines(header, fields):
    """Lines under header: rows of padded fields, now and then one field
    bad or the row ragged, with blank lines and every line ending between."""
    def build(draw):
        values, fault, pads, extra = draw
        values = list(values)
        if fault is not None:
            values[fault[0] % len(values)] = fault[1]
        values = [f"{p}{v}{q}" for v, (p, q) in zip(values, pads)]
        return ",".join(values[:extra] if extra < 0 else values + ["x"] * extra)
    row = st.tuples(
        st.tuples(*fields),
        st.one_of(st.none(), st.none(), st.none(),
                  st.tuples(st.integers(0, len(fields) - 1), BAD_TEXT)),
        st.lists(st.tuples(PADDING, PADDING), min_size=len(fields),
                 max_size=len(fields)),
        st.sampled_from([0] * 14 + [-1, 1])).map(build)
    line = st.one_of(row, row, row, st.sampled_from(["", "  ", "\t"]))
    return st.lists(st.tuples(line, LINE_END).map("".join), max_size=6).map(
        lambda body: [header + "\r\n"] + body)


class TestParse:
    def test_single_line(self):
        lines = [FLOW_HEADER, "100.0,101.2,10.0.0.1,10.0.0.2,51515,80,S"]
        out = parse_flows(lines)
        assert out == [FlowRecord(100.0, 101.2, "10.0.0.1", "10.0.0.2", 51515, 80, "S")]

    def test_header_only(self):
        assert parse_flows([FLOW_HEADER]) == []

    def test_port_out_of_range(self):
        lines = [FLOW_HEADER, "1,2,10.0.0.1,10.0.0.2,70000,80,S"]
        with pytest.raises(FlowFormatError) as err:
            parse_flows(lines)
        assert err.value.line_number == 2
        assert err.value.field == "sPort"

    def test_bad_header(self):
        with pytest.raises(FlowFormatError):
            parse_flows(["sTime,eTime,sIP", "1,2,3"])

    def test_bad_ip_names_line_and_field(self):
        lines = [FLOW_HEADER, "1,2,10.0.0.1,999.0.0.2,80,80,S"]
        with pytest.raises(FlowFormatError) as err:
            parse_flows(lines)
        assert err.value.line_number == 2
        assert err.value.field == "dIP"

    def test_etime_before_stime(self):
        lines = [FLOW_HEADER, "5.0,2.0,10.0.0.1,10.0.0.2,80,80,S"]
        with pytest.raises(FlowFormatError):
            parse_flows(lines)

    @pytest.mark.parametrize("line, field", [
        ("nan,nan,10.0.0.1,10.0.0.2,5000,80,S", "sTime"),
        ("1,inf,10.0.0.1,10.0.0.2,5000,80,S", "eTime"),
    ])
    def test_non_finite_time_names_line_and_field(self, line, field):
        with pytest.raises(FlowFormatError, match="not finite") as err:
            parse_flows([FLOW_HEADER, line])
        assert (err.value.field, err.value.line_number) == (field, 2)

    def test_record_errors_name_field(self):
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(5.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 80, "S")
        assert (err.value.field, err.value.line_number) == ("eTime", None)
        with pytest.raises(FlowFormatError) as err:
            parse_flows([FLOW_HEADER, "1,2,10.0.0.1,10.0.0.2,80,80,S",
                         "1,2,10.0.0.1,10.0.0.2,80,-1,S"])
        assert (err.value.field, err.value.line_number) == ("dPort", 3)

    def test_whitespace_only_line_skipped(self):
        lines = [FLOW_HEADER, "  ", "100.0,101.2,10.0.0.1,10.0.0.2,51515,80,S", "\t"]
        assert parse_flows(lines) == [
            FlowRecord(100.0, 101.2, "10.0.0.1", "10.0.0.2", 51515, 80, "S")]

    def test_round_trip(self):
        rng = random.Random(42)
        records = []
        for _ in range(50):
            s = rng.uniform(0, 1e6)
            records.append(rec(s, s + rng.uniform(0, 10),
                               f"10.0.0.{rng.randrange(255)}",
                               f"10.1.0.{rng.randrange(255)}",
                               rng.randrange(65536), rng.randrange(65536),
                               rng.choice(["S", "FSPA", "R"])))
        text = serialize_flows(records)
        assert parse_flows(text.splitlines()) == records
        assert serialize_flows(parse_flows(text.splitlines())) == text


def flow_row(i):
    return f"{i}.5,{i + 1}.25,10.0.0.{i % 3 + 1},10.1.0.{i % 2 + 1},{40000 + i},80,S"


class TestParseEqualsOracle:
    # blocks of 2 and 3 rows put a block boundary inside most inputs
    @settings(max_examples=250, deadline=None)
    @given(csv_lines(FLOW_HEADER, (START_TEXT, END_TEXT, IP_TEXT, IP_TEXT, PORT_TEXT,
                                   PORT_TEXT, st.sampled_from(["S", "FSPA", ""]))),
           st.sampled_from([2, 3, flows._BLOCK]))
    def test_parse_flows(self, lines, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "_BLOCK", block)
            assert outcome(parse_flows, lines) == outcome(oracle_parse_flows, lines)

    # lines 2-4 are the first block of 3 and lines 5-7 the second, whose
    # line 6 is replaced; a blank line or a CRLF ending keeps the input valid,
    # and so does U+001C-U+001F padding, which only the row path strips
    @pytest.mark.parametrize("row, error, field", [
        ("5.5,6.25,10.0.0.3,10.1.0.2,40005,80.5,S",
         "line 6: field dPort has unparseable value '80.5'", "dPort"),
        ("5.5,6.25,10.0.0.3,10.1.0.256,40005,80,S",
         "line 6: dIP '10.1.0.256' is not a dotted-quad IPv4 address", "dIP"),
        ("5.5,5.25,10.0.0.3,10.1.0.2,40005,80,S", "line 6: eTime 5.25 precedes sTime 5.5",
         "eTime"),
        ("nan,6.25,10.0.0.3,10.1.0.2,40005,80,S", "line 6: sTime nan is not finite", "sTime"),
        ("5.5,6.25,10.0.0.3,10.1.0.2,40005,80",
         "line 6: expected 7 comma-separated fields, got 6", None),
        ("5.5,6.25,10.0.0.3,10.1.0.2,40005,80,S,",
         "line 6: expected 7 comma-separated fields, got 8", None),
        ("", None, None),
        (" \t\r\n", None, None),
        (flow_row(5) + "\r\n", None, None),
        (",".join("\x1c" + f + "\x1f" for f in flow_row(5).split(",")), None, None),
    ])
    def test_bad_row_in_a_later_block(self, monkeypatch, row, error, field):
        monkeypatch.setattr(flows, "_BLOCK", 3)
        lines = [FLOW_HEADER + "\r\n"] + [flow_row(i) + "\r\n" for i in range(1, 7)]
        lines[5] = row
        got = outcome(parse_flows, lines)
        assert got == outcome(oracle_parse_flows, lines)
        if error is None:
            assert got == oracle_parse_flows([FLOW_HEADER] + [
                flow_row(i) for i in range(1, 7) if i != 5 or row.strip()])
        else:
            assert got == (FlowFormatError, error, 6, field)

    @settings(max_examples=250, deadline=None)
    @given(csv_lines(SESSION_HEADER,
                     (st.sampled_from(["0", "300", "600", "150", "+300", "3_00", "-0.0"]),
                      IP_TEXT, IP_TEXT, PORT_TEXT, PORT_TEXT, START_TEXT, END_TEXT,
                      st.sampled_from(["1", "2", "+3", "\u0662", "0"]))))
    def test_parse_windowed_sessions(self, lines):
        assert outcome(parse_windowed_sessions, lines, 300.0) \
            == outcome(oracle_parse_windowed_sessions, lines, 300.0)

    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_padding_is_stripped(self, pad):
        # float and int refuse these, so the row takes the named loop
        line = ",".join(pad + f + pad for f in "1 2 10.0.0.1 10.0.0.2 80 443 S".split())
        assert parse_flows([FLOW_HEADER, line]) == [
            FlowRecord(1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S")]

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[st.sampled_from(["10.0.0.1", "999.0.0.1", "10.0.0"])] * 2,
                     st.sampled_from([-1, 0, 80, 65535, 65536]),
                     st.sampled_from([-1, 0, 80, 65535, 65536]),
                     *[st.sampled_from([math.nan, -math.inf, math.inf, -0.0, 0.0, 1.0,
                                        -1.0, 1e308])] * 2))
    def test_record_check_raises_as_oracle(self, values):
        def check(fn):
            try:
                fn(FLOW_NAMES, values)
            except FlowFormatError as exc:
                return str(exc), exc.field
        assert check(_check_record) == check(oracle_check_record)


def session_row(i):
    start = 300 * (i // 2)
    return f"{start},10.0.0.{i % 3 + 1},10.1.0.1,{40000 + i},80,{start + i}.5,{start + i + 1},1"


# header (None: the first line is a row), a valid row, the reader and its oracle
FORMATS = {
    "sessions": (SESSION_HEADER, session_row,
                 lambda lines: parse_windowed_sessions(lines, 300.0),
                 lambda lines: oracle_parse_windowed_sessions(lines, 300.0)),
    "features": ("window_start,a,b", lambda i: f"{300 * i},{i}.5,{i + 1}",
                 cli._parse_feature_csv, oracle_parse_feature_csv),
    "points": (None, lambda i: f"{i}.5,{i % 3}", cli._parse_points, oracle_parse_points),
}


def format_lines(fmt, k=None, value=None):
    """Lines 1-7 of a format: the header (if it has one) and rows; with k,
    field k of line 6 is replaced by value."""
    header, row, _, _ = FORMATS[fmt]
    rows = [row(i) for i in range(1, 8)]
    lines = ([header] if header else []) + rows
    lines = [line + "\r\n" for line in lines[:7]]
    if k is not None:
        fields = lines[5].rstrip("\r\n").split(",")
        fields[k] = value
        lines[5] = ",".join(fields)
    return lines


class Touched(list):
    """Lines that record the index of each line read from them."""

    def __init__(self, lines):
        super().__init__(lines)
        self.touched = []

    def __iter__(self):
        for i, line in enumerate(super().__iter__()):
            self.touched.append(i)
            yield line

    def __getitem__(self, k):
        self.touched += range(len(self))[k] if isinstance(k, slice) else [k]
        return super().__getitem__(k)


class TestReadCsv:
    # lines 2-4 (1-3 without a header) are the first block of 3, and line 6
    # is in the second
    @pytest.mark.parametrize("fmt, k, value, error, field", [
        ("sessions", 3, "80.5", "line 6: field client_port has unparseable value '80.5'",
         "client_port"),
        ("sessions", 1, "10.0.0.256",
         "line 6: client_ip '10.0.0.256' is not a dotted-quad IPv4 address", "client_ip"),
        ("sessions", 0, "inf", "line 6: window_start 'inf' is not finite", "window_start"),
        ("sessions", 7, "0", "line 6: constituent_count must be >= 1", "constituent_count"),
        ("sessions", 7, "1,2", "line 6: expected 8 comma-separated fields, got 9", None),
        ("features", 1, "x", "line 6: field a has unparseable value 'x'", "a"),
        ("features", 2, " ", "line 6: field b has unparseable value ''", "b"),
        ("features", 2, "nan", "line 6: coordinate 1 of the window at 1500.0 is nan, "
         "not finite", None),
        ("features", 1, "1,2", "line 6: expected 3 comma-separated fields, got 4", None),
        ("points", 0, "x", "line 6: field 1 has unparseable value 'x'", "1"),
        ("points", 1, "1,2", "line 6: expected 2 comma-separated fields, got 3", None),
    ])
    def test_bad_row_in_a_later_block(self, monkeypatch, fmt, k, value, error, field):
        monkeypatch.setattr(flows, "_BLOCK", 3)
        _, _, parse, oracle = FORMATS[fmt]
        lines = format_lines(fmt, k, value)
        got = outcome(parse, lines)
        assert got == outcome(oracle, lines) == (FlowFormatError, error, 6, field)

    # a blank line, and U+001C-U+001F padding, which only the row path strips
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("change", [lambda line: " \t\r\n",
                                        lambda line: ",".join(f"\x1c{f}\x1f"
                                                              for f in line.split(","))],
                             ids=["blank", "padding"])
    def test_valid_row_in_a_later_block(self, monkeypatch, fmt, change):
        monkeypatch.setattr(flows, "_BLOCK", 3)
        _, _, parse, oracle = FORMATS[fmt]
        lines = format_lines(fmt)
        clean = [line for i, line in enumerate(lines) if i != 5 or change(lines[5]).strip()]
        lines[5] = change(lines[5])
        assert repr(outcome(parse, lines)) == repr(outcome(oracle, lines)) \
            == repr(outcome(parse, clean))

    @pytest.mark.parametrize("parse, header, row, bad, error", [
        (parse_flows, FLOW_HEADER, flow_row, "1,2,10.0.0.1,10.0.0.2,80.5,80,S",
         "line 1001: field sPort has unparseable value '80.5'"),
        (lambda lines: parse_windowed_sessions(lines, 300.0), SESSION_HEADER, session_row,
         "0,10.0.0.1,10.1.0.1,80.5,80,1,2,1",
         "line 1001: field client_port has unparseable value '80.5'"),
    ])
    def test_bad_last_row_reads_each_line_once(self, monkeypatch, parse, header, row, bad,
                                               error):
        # no block before the bad row's is read again
        monkeypatch.setattr(flows, "_BLOCK", 100)
        lines = Touched([header] + [row(i) for i in range(1, 1000)] + [bad])
        with pytest.raises(FlowFormatError, match=f"^{error}$"):
            parse(lines)
        assert lines.touched == list(range(1001))

    @settings(max_examples=250, deadline=None)
    @given(csv_lines("window_start,a,b", (START_TEXT, END_TEXT, PORT_TEXT)),
           st.sampled_from([2, 3, flows._BLOCK]))
    def test_feature_csv_equals_oracle(self, lines, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "_BLOCK", block)
            assert outcome(cli._parse_feature_csv, lines) \
                == outcome(oracle_parse_feature_csv, lines)

    @settings(max_examples=250, deadline=None)
    @given(csv_lines("", (START_TEXT, END_TEXT, PORT_TEXT)).map(lambda lines: lines[1:]),
           st.sampled_from([2, 3, flows._BLOCK]))
    def test_point_csv_equals_oracle(self, lines, block):
        # repr, as nan is a coordinate the reader takes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "_BLOCK", block)
            assert repr(outcome(cli._parse_points, lines)) \
                == repr(outcome(oracle_parse_points, lines))


# valid fields of one row, and for each field the values that break it
ROW_FIELDS = (st.floats(-1e6, 1e6), st.floats(0.0, 10.0),
              st.sampled_from(["10.0.0.1", "10.1.0.1", "192.168.1.1"]),
              st.sampled_from(["10.0.0.2", "10.1.0.1"]),
              st.integers(0, 65535), st.integers(0, 65535),
              st.sampled_from(["S", "FSPA", ""]))
BAD_IP = st.sampled_from(["999.0.0.1", "10.0.0", "", " 10.0.0.1", "10.0.256.0"])
BAD_PORT = st.sampled_from([-1, 65536, 10 ** 6, -(10 ** 6)])
BAD_FIELD = (st.sampled_from([math.nan, math.inf, -math.inf]),
             # -2e6 precedes every start
             st.sampled_from([math.nan, math.inf, -math.inf, -2e6]),
             BAD_IP, BAD_IP, BAD_PORT, BAD_PORT,
             st.sampled_from([" S", "S ", "a,b", "S\n", "a\u2028b"]))


@st.composite
def column_rows(draw):
    """A row of valid fields, its end at or after its start; one row in
    four has one field replaced by a bad value."""
    start, duration, *rest = (draw(field) for field in ROW_FIELDS)
    row = [start, start + duration, *rest]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, 6))
        row[k] = draw(BAD_FIELD[k])
    return tuple(row)


def built(make, *args):
    """The type and repr of every field of the records make returns, or
    the type, message and field of the error it raises."""
    try:
        return [(type(v), repr(v)) for r in make(*args) for v in vars(r).values()]
    except FlowFormatError as exc:
        return type(exc), str(exc), exc.field


class TestFlowRecords:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(column_rows(), max_size=6))
    def test_checked_as_flow_record_checks(self, rows):
        # accepted exactly when FlowRecord accepts every row, else the
        # error FlowRecord raises for the first bad one
        columns = [list(column) for column in zip(*rows)] or [[]] * 7
        assert built(_flow_records, *columns) == built(
            lambda: [FlowRecord(*row) for row in rows])

    @pytest.mark.parametrize("k, value, field", [(2, ["10.0.0.1"], "sIP"),
                                                  (3, ["10.0.0.2"], "dIP"), (6, 5, "flags"),
                                                  (6, ["S"], "flags")])
    def test_unhashable_or_not_a_str_named(self, k, value, field):
        # such a value makes the whole check raise TypeError; FlowRecord
        # then checks the records one by one and names it
        columns = [[1.0], [2.0], ["10.0.0.1"], ["10.0.0.2"], [40000], [80], ["S"]]
        columns[k] = [value]
        got = built(_flow_records, *columns)
        assert got == built(lambda: [FlowRecord(*(column[0] for column in columns))])
        assert got[2] == field

    @pytest.mark.parametrize("k, value, field", [(0, True, "sTime"), (1, 10 ** 400, "eTime"),
                                                  (0, "1", "sTime"), (4, True, "sPort"),
                                                  (5, 80.0, "dPort"), (5, 80.5, "dPort")],
                             ids=["bool", "huge", "str", "bool", "float", "fraction"])
    def test_values_of_another_type_named(self, k, value, field):
        # the test of whole columns checks types before it compares values
        columns = [[1.0, 1.0], [2.0, 2.0], ["10.0.0.1"] * 2, ["10.0.0.2"] * 2, [40000] * 2,
                   [80] * 2, ["S"] * 2]
        columns[k][1] = value
        got = built(_flow_records, *columns)
        assert got == built(lambda: [FlowRecord(*row) for row in zip(*columns)])
        assert got[2] == field


def synth_day_lines():
    """A seeded synthetic day, about 20k flow lines."""
    profile = synth.TrafficProfile(duration=86400.0, seed=7)
    return serialize_flows(synth.generate_normal(profile)).splitlines()


class TestParseMemory:
    def test_records_share_one_str_per_value(self, monkeypatch):
        monkeypatch.setattr(flows, "_BLOCK", 1000)
        records = parse_flows(synth_day_lines()[:5000])
        shared = {}
        for r in records:
            for value in (r.s_ip, r.d_ip, r.flags):
                assert shared.setdefault(value, value) is value
        assert len(shared) < 50

    def test_peak_at_most_the_row_paths(self):
        # splitting the whole input at once holds every field string together
        lines = synth_day_lines()
        assert 19_000 < len(lines) < 23_000

        def peak(parse):
            tracemalloc.start()
            try:
                parse(lines)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(parse_flows) <= peak(oracle_parse_flows)


class TestPortType:
    @pytest.mark.parametrize("port", [True, False, 80.5, 80.0, math.nan, "80"])
    @pytest.mark.parametrize("field, position", [("sPort", 4), ("dPort", 5)])
    def test_port_must_be_an_integer(self, port, field, position):
        values = [1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S"]
        values[position] = port
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(*values)
        assert str(err.value) == f"{field} {port!r} is not an integer"
        assert err.value.field == field

    @pytest.mark.parametrize("port", [True, 80.5])
    def test_session_port_must_be_an_integer(self, port):
        with pytest.raises(FlowFormatError) as err:
            SessionRecord("10.0.0.1", "10.0.0.2", 40000, port, 1.0, 2.0, 1)
        assert err.value.field == "server_port"

    def test_numpy_integer_port_round_trips(self):
        r = FlowRecord(1.0, 2.0, "10.0.0.1", "10.0.0.2", np.int64(40000), 80, "S")
        assert parse_flows(serialize_flows([r]).splitlines()) == [r]

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(), st.floats(),
        st.one_of(st.sampled_from(["10.0.0.1", "192.168.0.9", "999.0.0.1"]),
                  st.text(alphabet="0123456789.", max_size=15)),
        st.sampled_from(["10.0.0.2", "x"]),
        st.one_of(st.integers(-5, 70000), st.booleans(), st.floats(-5, 70000)),
        st.one_of(st.integers(-5, 70000), st.booleans()),
        st.sampled_from(["S", "FSPA", ""])), max_size=5))
    def test_accepted_records_round_trip(self, rows):
        records = []
        for row in rows:
            try:
                records.append(FlowRecord(*row))
            except FlowFormatError:
                pass
        assert parse_flows(serialize_flows(records).splitlines()) == records


class TestTimeType:
    # each of these makes the chained time comparison raise or, for a bool,
    # pass; the named check refuses them as it refuses a bool port
    BAD = ["1", None, True, False, b"1", np.array([1.0, 2.0])]

    @pytest.mark.parametrize("t", BAD, ids=repr)
    @pytest.mark.parametrize("field, position", [("sTime", 0), ("eTime", 1)])
    def test_flow_time_must_be_a_number(self, t, field, position):
        values = [1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S"]
        values[position] = t
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(*values)
        assert str(err.value) == f"{field} {t!r} is not a number"
        assert err.value.field == field

    @pytest.mark.parametrize("t", BAD, ids=repr)
    @pytest.mark.parametrize("field, position", [("start", 4), ("end", 5)])
    def test_session_time_must_be_a_number(self, t, field, position):
        values = ["10.0.0.1", "10.0.0.2", 40000, 80, 1.0, 2.0, 1]
        values[position] = t
        with pytest.raises(FlowFormatError) as err:
            SessionRecord(*values)
        assert str(err.value) == f"{field} {t!r} is not a number"
        assert err.value.field == field

    @pytest.mark.parametrize("position", [0, 1])
    def test_flow_time_float_cannot_hold_refused(self, position):
        values = [1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S"]
        values[position] = 10 ** 400
        values[1 - position] = 10 ** 400
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(*values)
        assert (str(err.value), err.value.field) \
            == ("sTime is an integer too large for a float", "sTime")

    def test_session_time_float_cannot_hold_refused(self):
        with pytest.raises(FlowFormatError) as err:
            SessionRecord("10.0.0.1", "10.0.0.2", 40000, 80, 10 ** 400, 10 ** 400, 1)
        assert (str(err.value), err.value.field) \
            == ("start is an integer too large for a float", "start")

    def test_bad_port_is_named_before_bad_time(self):
        # ports, then addresses, then times, as for every other record
        with pytest.raises(FlowFormatError) as err:
            FlowRecord("1", 2.0, "10.0.0.1", "10.0.0.2", 80.5, 443, "S")
        assert err.value.field == "sPort"

    @pytest.mark.parametrize("t", [1, np.float64(1.5), np.int64(1), 0.0])
    def test_real_times_accepted(self, t):
        assert FlowRecord(t, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S").s_time == t
        assert SessionRecord("10.0.0.1", "10.0.0.2", 40000, 80, t, 2.0, 1).start == t


class TestAddressType:
    # IPv4Address takes the first three too, but they serialize as rows no
    # reader takes; a list cannot even be hashed by the memoized check
    @pytest.mark.parametrize("address", [167772161, b"\n\x00\x00\x01",
                                         ipaddress.IPv4Address("10.0.0.1"),
                                         ["10.0.0.1"]])
    @pytest.mark.parametrize("field, position", [("sIP", 2), ("dIP", 3)])
    def test_flow_address_must_be_a_string(self, address, field, position):
        values = [1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, "S"]
        values[position] = address
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(*values)
        assert str(err.value) == f"{field} {address!r} is not a dotted-quad IPv4 address"
        assert err.value.field == field

    @pytest.mark.parametrize("address", [167772161, b"\n\x00\x00\x01", ["10.1.0.1"]])
    def test_session_address_must_be_a_string(self, address):
        with pytest.raises(FlowFormatError) as err:
            SessionRecord("10.0.0.1", address, 40000, 80, 1.0, 2.0, 1)
        assert err.value.field == "server_ip"
        assert str(err.value) == f"server_ip {address!r} is not a dotted-quad IPv4 address"
        if not isinstance(address, list):  # the memoized check hashes its argument
            assert not _is_ipv4(address)


class TestFlags:
    @pytest.mark.parametrize("flags", [" S", "S ", "a,b", "S\n", "a\nb", "S\r\n",
                                       "a\x0bb", "a\x1cb", "a\u2028b", 5, None, b"S",
                                       ["S"]])
    def test_refused(self, flags):
        with pytest.raises(FlowFormatError) as err:
            FlowRecord(1.0, 2.0, "10.0.0.1", "10.0.0.2", 80, 443, flags)
        assert str(err.value) == (f"flags {flags!r} is not a string without a comma, "
                                  "a line break or surrounding whitespace")
        assert err.value.field == "flags"

    def test_line_break_in_parsed_field_names_line(self):
        # a reader that splits only on "\n" can hand parse_flows such a field
        with pytest.raises(FlowFormatError) as err:
            parse_flows([FLOW_HEADER, "1,2,10.0.0.1,10.0.0.2,80,443,a\x0bb"])
        assert str(err.value).startswith("line 2: flags 'a\\x0bb' is not a string")
        assert (err.value.line_number, err.value.field) == (2, "flags")

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-1e9, 1e9), st.floats(0.0, 1e6),
        st.ip_addresses(v=4).map(str), st.ip_addresses(v=4).map(str),
        st.integers(0, 65535), st.integers(0, 65535),
        st.one_of(st.text(), st.text(alphabet=" ,\t\n\r\x0b\x1c\x1fSAFPR\x85",
                                     max_size=4))), max_size=5))
    def test_valid_records_round_trip(self, rows):
        records = []
        for start, duration, s_ip, d_ip, s_port, d_port, flags in rows:
            try:
                records.append(FlowRecord(start, start + duration, s_ip, d_ip, s_port,
                                          d_port, flags))
            except FlowFormatError as exc:
                assert exc.field == "flags"
        assert parse_flows(serialize_flows(records).splitlines()) == records


FLOW_KWARGS = dict(s_time=1.0, e_time=2.0, s_ip="10.0.0.1", d_ip="10.1.0.1",
                   s_port=40000, d_port=80, flags="S")
SESSION_KWARGS = dict(start=1.0, end=2.0, client_ip="10.0.0.1", server_ip="10.1.0.1",
                      client_port=40000, server_port=80, constituent_count=1)


class TestRecordCheck:
    # (changes to the flow record, changes to the session record, the two
    # fields each error must name)
    @pytest.mark.parametrize("flow, session, fields", [
        ({"s_ip": "not-an-ip"}, {"client_ip": "not-an-ip"}, ("sIP", "client_ip")),
        ({"d_ip": "999.0.0.2"}, {"server_ip": "999.0.0.2"}, ("dIP", "server_ip")),
        ({"s_port": 70000}, {"client_port": 70000}, ("sPort", "client_port")),
        ({"d_port": -1}, {"server_port": -1}, ("dPort", "server_port")),
        ({"s_time": math.nan}, {"start": math.nan}, ("sTime", "start")),
        ({"e_time": math.inf}, {"end": math.inf}, ("eTime", "end")),
        ({"s_time": 5.0}, {"start": 5.0}, ("eTime", "end")),
    ])
    def test_session_rejects_what_flow_rejects(self, flow, session, fields):
        for cls, kwargs, changes, field in ((FlowRecord, FLOW_KWARGS, flow, fields[0]),
                                            (SessionRecord, SESSION_KWARGS, session,
                                             fields[1])):
            with pytest.raises(FlowFormatError) as err:
                cls(**{**kwargs, **changes})
            assert err.value.field == field
            assert str(err.value).startswith(field + " ")

    @pytest.mark.parametrize("count", [1.0, True, "2"])
    def test_constituent_count_must_be_an_integer(self, count):
        with pytest.raises(FlowFormatError) as err:
            SessionRecord(**{**SESSION_KWARGS, "constituent_count": count})
        assert (str(err.value), err.value.field) \
            == (f"constituent_count {count!r} is not an integer", "constituent_count")

    def test_constituent_count(self):
        with pytest.raises(FlowFormatError, match="constituent_count"):
            SessionRecord(**{**SESSION_KWARGS, "constituent_count": 0})

    @given(st.text(alphabet="0123456789.x ", max_size=17))
    @settings(max_examples=300, deadline=None)
    def test_memoized_ipv4_check_matches_parser(self, text):
        try:
            ipaddress.IPv4Address(text)
            want = True
        except ipaddress.AddressValueError:
            want = False
        assert _is_ipv4(text) is want




ENDPOINTS = [("10.0.0.1", 51515), ("10.0.0.2", 80), ("10.0.0.2", 51515),
             ("10.0.0.3", 80)]


def random_records(rng, n):
    """Records over few endpoints and a coarse time grid, so equal starts,
    touching intervals (e == s), zero-length records and self-mirrored
    records (source equal to destination) are all common."""
    recs = []
    for _ in range(n):
        src = rng.choice(ENDPOINTS)
        dst = src if rng.random() < 0.15 else rng.choice(ENDPOINTS)
        s = float(rng.randrange(20))
        e = s + rng.choice([0.0, 0.0, 1.0, 2.0, 5.0])
        recs.append(rec(s, e, src[0], dst[0], src[1], dst[1],
                        rng.choice(["S", "PA"])))
    return recs


def chain_records(pairs, t0=0.0, timeout=10.0):
    """One long connection cut into consecutive records in both directions."""
    recs = []
    for i in range(pairs):
        s = t0 + i * timeout
        recs.append(rec(s, s + timeout, "10.0.0.1", "10.0.0.2", 40000, 443, "PA"))
        recs.append(rec(s + 0.05, s + timeout, "10.0.0.2", "10.0.0.1", 443, 40000, "PA"))
    return recs


def exact(sessions):
    """Each session's fields as (type, repr): equal values of another type,
    or zeros of another sign, differ."""
    return [[(type(v), repr(v)) for v in (getattr(s, f.name) for f in fields(s))]
            for s in sessions]


BIG = 2 ** 53  # float64 rounds BIG + 1 to BIG
A, B = ("10.0.0.1", 40000), ("10.0.0.2", 80)


def flow(s, e, src, dst, flags="S"):
    return rec(s, e, src[0], dst[0], src[1], dst[1], flags)


UNUSUAL_INPUTS = [
    # int times above 2**53, where float64 would pair, order or pick the
    # first record wrongly: end BIG does not meet start BIG + 1, in a group
    # of two and in a swept group; BIG comes before BIG + 1; the int BIG
    # record is first because its end is smaller
    [flow(BIG - 1, BIG, A, B), flow(BIG + 1, BIG + 5, B, A)],
    [flow(BIG - 1, BIG, A, B), flow(BIG + 1, BIG + 5, B, A), flow(BIG + 1, BIG + 2, B, A)],
    [flow(BIG + 1, BIG + 1, A, B), flow(BIG, BIG + 3, A, B)],
    [flow(float(BIG), BIG + 1, A, B), flow(BIG, BIG, B, A), flow(3 * BIG, 3 * BIG, B, A)],
    # numpy integer ports, alone and mixed with int ports of the same value
    [rec(1.0, 2.0, A[0], B[0], np.int64(A[1]), np.int64(B[1])),
     rec(1.5, 2.5, B[0], A[0], np.int64(B[1]), np.int64(A[1])),
     rec(2.5, 3.0, B[0], A[0], B[1], A[1]), rec(3.0, 4.0, A[0], B[0], A[1], np.int64(B[1])),
     rec(9.0, 9.0, B[0], A[0], np.int64(B[1]), A[1])],
    # zeros of both signs, and equal int and float ends: a session takes its
    # first record's start and the first of its records with the largest end
    [flow(-0.0, 1.0, A, B), flow(0.0, 1.0, A, B), flow(0.0, 2.0, B, A)],
    [flow(0.0, 2.0, A, B), flow(-0.0, 1.0, A, B), flow(0.5, 0.5, A, B)],
    [flow(0.0, 0.0, B, A), flow(-0.0, -0.0, A, B)],
    [flow(0.0, 0.0, B, A), flow(-0.0, -0.0, A, B), flow(-0.0, 0.0, A, B, "PA")],
    [flow(1.0, 5, A, B), flow(2.0, 5.0, B, A), flow(3.0, 4.0, A, B)],
    # self-mirrored records, two and more to a group, from one endpoint to
    # itself and between two ports of one address
    [flow(1.0, 3.0, A, A), flow(3.0, 4.0, A, A), flow(5.0, 6.0, B, B), flow(6.0, 6.0, B, B),
     flow(6.0, 7.0, B, B), flow(8.0, 9.0, B, B), flow(1.0, 2.0, A, ("10.0.0.1", 80)),
     flow(1.0, 2.0, ("10.0.0.1", 80), A)],
    # simultaneous starts from both ends: the ephemeral port, then the
    # smaller address, then the smaller endpoint is the client
    [flow(0.0, 1.0, B, A), flow(0.0, 2.0, A, B), flow(0.0, 1.0, B, A), flow(0.5, 3.0, B, A)],
    [flow(0.0, 1.0, ("10.0.0.9", 22), ("10.0.0.2", 80)),
     flow(0.0, 1.0, ("10.0.0.2", 80), ("10.0.0.9", 22))],
    [flow(0.0, 1.0, ("10.0.0.3", 50000), ("10.0.0.3", 40000)),
     flow(0.0, 1.0, ("10.0.0.3", 40000), ("10.0.0.3", 50000)),
     flow(0.0, 1.0, ("10.0.0.3", 40000), ("10.0.0.3", 50000))],
]


class TestPairing:
    def test_forward_reverse_merge(self):
        a = rec(100.0, 101.0, "10.0.0.1", "10.0.0.2", 51515, 80)
        b = rec(100.1, 101.0, "10.0.0.2", "10.0.0.1", 80, 51515)
        sessions = pair_bidirectional([a, b])
        assert len(sessions) == 1
        s = sessions[0]
        assert s.client_ip == "10.0.0.1"
        assert s.server_ip == "10.0.0.2"
        assert s.server_port == 80
        assert s.constituent_count == 2
        assert s.start == 100.0

    def test_singleton(self):
        a = rec(5.0, 6.0, "10.0.0.1", "10.0.0.2", 51515, 80)
        sessions = pair_bidirectional([a])
        assert sessions == [SessionRecord("10.0.0.1", "10.0.0.2", 51515, 80,
                                          5.0, 6.0, 1)]

    def test_retransmit_three_records(self):
        # request, response, retransmit: transitively one session of 3
        a = rec(100.0, 102.0, "10.0.0.1", "10.0.0.2", 51515, 80)
        b = rec(100.2, 101.8, "10.0.0.2", "10.0.0.1", 80, 51515)
        c = rec(101.0, 102.5, "10.0.0.1", "10.0.0.2", 51515, 80)
        sessions = pair_bidirectional([a, b, c])
        assert len(sessions) == 1
        assert sessions[0].constituent_count == 3
        assert sessions[0].client_ip == "10.0.0.1"

    def test_three_records_match_exhaustive_grouping(self):
        rng = random.Random(7)
        for _ in range(200):
            recs = []
            for _ in range(3):
                flip = rng.random() < 0.5
                s = rng.choice([100.0, 100.5, 103.0])
                e = s + rng.choice([0.4, 1.0, 2.0])
                if flip:
                    recs.append(rec(s, e, "10.0.0.1", "10.0.0.2", 51515, 80))
                else:
                    recs.append(rec(s, e, "10.0.0.2", "10.0.0.1", 80, 51515))
            got = sorted(s.constituent_count for s in pair_bidirectional(recs))
            assert got == oracle_components(recs)

    def test_never_drops_records(self):
        rng = random.Random(3)
        ips = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        recs = []
        for _ in range(60):
            sip, dip = rng.sample(ips, 2)
            s = rng.uniform(0, 50)
            recs.append(rec(s, s + rng.uniform(0, 5), sip, dip,
                            rng.choice([80, 51515, 2222]), rng.choice([80, 51515, 2222])))
        sessions = pair_bidirectional(recs)
        assert sum(s.constituent_count for s in sessions) == len(recs)

    def test_simultaneous_start_ephemeral_port_wins(self):
        a = rec(100.0, 101.0, "10.0.0.9", "10.0.0.2", 51515, 80)
        b = rec(100.0, 101.0, "10.0.0.2", "10.0.0.9", 80, 51515)
        (s,) = pair_bidirectional([a, b])
        assert s.client_ip == "10.0.0.9"  # port 51515 >= 1024

    def test_simultaneous_start_lexicographic_fallback(self):
        a = rec(100.0, 101.0, "10.0.0.9", "10.0.0.2", 2000, 3000)
        b = rec(100.0, 101.0, "10.0.0.2", "10.0.0.9", 3000, 2000)
        (s,) = pair_bidirectional([a, b])
        assert s.client_ip == "10.0.0.2"

    # simultaneous starts: the client comes from the leading members only
    @pytest.mark.parametrize("records, client, server", [
        # ephemeral-port rule, the later record's end sets the session end
        ([("10.0.0.2", 80, "10.0.0.9", 51515, 5.0), ("10.0.0.9", 51515, "10.0.0.2", 80, 2.0)],
         ("10.0.0.9", 51515), ("10.0.0.2", 80)),
        # IP rule: both ports below 1024
        ([("10.0.0.9", 22, "10.0.0.2", 80, 1.0), ("10.0.0.2", 80, "10.0.0.9", 22, 1.0)],
         ("10.0.0.2", 80), ("10.0.0.9", 22)),
        # self-mirrored records: both ends are one endpoint
        ([("10.0.0.3", 80, "10.0.0.3", 80, 1.0), ("10.0.0.3", 80, "10.0.0.3", 80, 3.0)],
         ("10.0.0.3", 80), ("10.0.0.3", 80)),
        # same address both ways, both ports ephemeral: the smaller endpoint
        ([("10.0.0.3", 50000, "10.0.0.3", 40000, 1.0),
          ("10.0.0.3", 40000, "10.0.0.3", 50000, 1.0)],
         ("10.0.0.3", 40000), ("10.0.0.3", 50000)),
        # three members with the same start, two of them from the server
        ([("10.0.0.2", 443, "10.0.0.1", 40000, 1.0), ("10.0.0.1", 40000, "10.0.0.2", 443, 1.0),
          ("10.0.0.2", 443, "10.0.0.1", 40000, 4.0)],
         ("10.0.0.1", 40000), ("10.0.0.2", 443)),
    ])
    def test_simultaneous_start_rules(self, records, client, server):
        recs = [rec(0.0, duration, sip, dip, sp, dp)
                for sip, sp, dip, dp, duration in records]
        (s,) = pair_bidirectional(recs)
        assert ((s.client_ip, s.client_port), (s.server_ip, s.server_port)) \
            == (client, server)
        assert (s.start, s.end, s.constituent_count) \
            == (0.0, max(r.e_time for r in recs), len(recs))
        assert [s] == oracle_pair_bidirectional(recs)

    def test_only_leading_members_choose_the_client(self):
        # a later record from the server side does not count as a source
        a = rec(1.0, 5.0, "10.0.0.2", "10.0.0.9", 80, 81)
        b = rec(2.0, 3.0, "10.0.0.9", "10.0.0.2", 81, 80)
        (s,) = pair_bidirectional([b, a])
        assert (s.client_ip, s.client_port, s.start) == ("10.0.0.2", 80, 1.0)
        assert [s] == oracle_pair_bidirectional([a, b])

    def test_non_overlapping_do_not_merge(self):
        a = rec(100.0, 101.0, "10.0.0.1", "10.0.0.2", 51515, 80)
        b = rec(200.0, 201.0, "10.0.0.2", "10.0.0.1", 80, 51515)
        assert len(pair_bidirectional([a, b])) == 2

    def test_equals_quadratic_oracle(self):
        rng = random.Random(1234)
        inputs = [random_records(rng, rng.randint(0, 40)) for _ in range(400)]
        for recs in inputs + UNUSUAL_INPUTS:
            sessions = pair_bidirectional(recs)
            assert sessions == oracle_pair_bidirectional(recs)
            assert exact(sessions) == exact(oracle_pair_bidirectional(recs))

    def test_chains_equal_quadratic_oracle(self):
        rng = random.Random(99)
        recs = chain_records(200) + chain_records(50, t0=5000.0)
        recs += random_records(rng, 100)
        rng.shuffle(recs)
        sessions = pair_bidirectional(recs)
        assert sessions == oracle_pair_bidirectional(recs)
        assert [s.constituent_count for s in sessions if s.client_port == 40000] \
            == [400, 100]

    def test_self_mirrored_records_pair_with_each_other(self):
        a = rec(1.0, 3.0, "10.0.0.1", "10.0.0.1", 80, 80)
        b = rec(2.0, 2.0, "10.0.0.1", "10.0.0.1", 80, 80)
        c = rec(3.0, 4.0, "10.0.0.1", "10.0.0.1", 80, 80)
        d = rec(4.5, 5.0, "10.0.0.1", "10.0.0.1", 80, 80)
        sessions = pair_bidirectional([d, c, b, a])
        assert [s.constituent_count for s in sessions] == [3, 1]
        assert sessions == oracle_pair_bidirectional([a, b, c, d])

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS),
                              st.integers(0, 10), st.integers(0, 3)),
                    max_size=30))
    def test_conserves_records_and_equals_oracle(self, rows):
        recs = [rec(float(s), float(s + d), src[0], dst[0], src[1], dst[1])
                for src, dst, s, d in rows]
        sessions = pair_bidirectional(recs)
        assert sum(x.constituent_count for x in sessions) == len(recs)
        assert sessions == oracle_pair_bidirectional(recs)


def sess(start, port=80, client="10.0.0.1", server="10.0.0.2"):
    return SessionRecord(client, server, 51515, port, start, start + 1.0, 1)


# sessions that tie on the session order but differ in end and count, so
# the order within a window must also be stable
SESSIONS = st.lists(st.builds(
    lambda start, length, client, port, count: SessionRecord(
        client, "10.0.0.2", 51515, port, start, start + length, count),
    st.floats(-1000.0, 1000.0), st.sampled_from([0.0, 1.5]),
    st.sampled_from(["10.0.0.1", "10.0.0.3"]), st.sampled_from([22, 80]),
    st.integers(1, 2)), max_size=30)


class TestWindow:
    def test_basic_assignment(self):
        (w,) = window([sess(100.0)], width=300.0)
        assert w.start == 0.0 and w.width == 300.0

    def test_boundary_goes_right(self):
        (w,) = window([sess(300.0)], width=300.0)
        assert w.start == 300.0

    def test_gap_window_emitted(self):
        ws = window([sess(10.0), sess(650.0)], width=300.0)
        assert [w.start for w in ws] == [0.0, 300.0, 600.0]
        assert [len(w.sessions) for w in ws] == [1, 0, 1]

    def test_width_must_be_positive(self):
        for width in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="window width"):
                window([sess(0.0)], width=width)
        for origin in (math.inf, math.nan):
            with pytest.raises(ValueError, match="window origin"):
                window([sess(0.0)], width=300.0, origin=origin)

    def test_partition_property(self):
        rng = random.Random(11)
        sessions = [sess(rng.uniform(0, 5000), port=rng.choice([80, 22]))
                    for _ in range(100)]
        ws = window(sessions, width=300.0)
        rebuilt = [s for w in ws for s in w.sessions]
        assert sorted(rebuilt, key=lambda s: (s.start, s.server_port)) == \
               sorted(sessions, key=lambda s: (s.start, s.server_port))
        for w in ws:
            for s in w.sessions:
                assert w.start <= s.start < w.start + w.width
        # windows tile the timeline with no holes
        for prev, nxt in zip(ws, ws[1:]):
            assert math.isclose(nxt.start, prev.start + prev.width)

    def test_empty_input(self):
        assert window([], width=300.0) == []

    def test_timeline_limit(self):
        # a year of 300-second windows fits; records 3e8 s apart, or a day
        # in epoch milliseconds, are refused before a window is built
        assert 365 * 288 <= MAX_WINDOWS
        last = (MAX_WINDOWS - 1) * 300.0
        assert len(window([sess(0.0), sess(last)], width=300.0)) == MAX_WINDOWS
        for starts, count in (((0.0, last + 300.0), MAX_WINDOWS + 1),
                              ((0.0, 3e8), 1000001),
                              ((1.7e12, 1.7e12 + 86_400_000.0), 288001)):
            message = (f"the timeline spans {count} windows of 300.0 seconds, "
                       f"more than the limit of {MAX_WINDOWS}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                window([sess(t) for t in starts], width=300.0)
            lines = [SESSION_HEADER] + [
                f"{t},10.0.0.1,10.0.0.2,51515,80,{t},{t + 1},1" for t in starts]
            with pytest.raises(ValueError, match=f"^{message}$"):
                parse_windowed_sessions(lines, width=300.0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(SESSIONS, st.floats(10.0, 5000.0), st.floats(-1e4, 1e4))
    def test_timeline_property(self, sessions, width, origin):
        ws = window(sessions, width=width, origin=origin)
        index = [math.floor((s.start - origin) / width) for s in sessions]
        lo = min(index, default=0)
        assert len(ws) == (max(index) - lo + 1 if sessions else 0)
        for k, w in enumerate(ws):
            assert (w.start, w.width) == (origin + (lo + k) * width, width)
            # in session order, and stable: sessions that tie keep input order
            mine = [s for s, i in zip(sessions, index) if i == lo + k]
            assert w.sessions == tuple(sorted(mine, key=_session_order))

    @settings(max_examples=200, deadline=None, database=None)
    @given(SESSIONS, st.integers(10, 5000))
    def test_integer_grid_round_trips(self, sessions, width):
        ws = window(sessions, width=float(width))
        text = serialize_windowed_sessions(ws)
        assert parse_windowed_sessions(text.splitlines(), width=float(width)) == ws


class TestWindowedCsv:
    def test_round_trip_with_gap(self):
        ws = window([sess(10.0), sess(650.0)], width=300.0)
        text = serialize_windowed_sessions(ws)
        back = parse_windowed_sessions(text.splitlines(), width=300.0)
        assert back == ws

    def test_header_present(self):
        text = serialize_windowed_sessions([])
        assert text.startswith("window_start,client_ip")

    @pytest.mark.parametrize("width", [0.0, math.inf, math.nan])
    def test_width_must_be_finite_and_positive(self, width):
        text = serialize_windowed_sessions(window([sess(10.0)], width=300.0))
        with pytest.raises(ValueError, match="window width"):
            parse_windowed_sessions(text.splitlines(), width=width)

    @pytest.mark.parametrize("start", ["inf", "nan", "-inf"])
    def test_non_finite_window_start_names_line(self, start):
        lines = serialize_windowed_sessions(
            window([sess(10.0), sess(650.0)], width=300.0)).splitlines()
        lines[2] = start + lines[2][lines[2].index(","):]
        with pytest.raises(FlowFormatError, match="line 3: window_start") as e:
            parse_windowed_sessions(lines, width=300.0)
        assert e.value.line_number == 3

    def test_off_grid_window_start_names_first_line(self):
        lines = serialize_windowed_sessions(
            window([sess(10.0), sess(20.0), sess(650.0), sess(660.0)],
                   width=300.0)).splitlines()
        for i in (3, 4):
            lines[i] = "150" + lines[i][lines[i].index(","):]
        with pytest.raises(FlowFormatError) as e:
            parse_windowed_sessions(lines, width=300.0)
        assert str(e.value) == ("line 4: window_start 150.0 is not on the "
                                "300.0-second grid from 0.0")
        assert e.value.line_number == 4
        assert e.value.field == "window_start"

    @pytest.mark.parametrize("column, value, message", [
        (5, "nan", "line 3: start nan is not finite"),
        (2, "10.1.0", "line 3: server_ip '10.1.0' is not a dotted-quad IPv4 address"),
        (3, "x", "line 3: field client_port has unparseable value 'x'"),
        (8, "1", "line 3: expected 8 comma-separated fields, got 9"),
    ])
    def test_bad_row_names_line(self, column, value, message):
        lines = serialize_windowed_sessions(
            window([sess(10.0), sess(650.0)], width=300.0)).splitlines()
        parts = lines[2].split(",")
        parts[column:column + 1] = [value]
        lines[2] = ",".join(parts)
        with pytest.raises(FlowFormatError) as e:
            parse_windowed_sessions(lines, width=300.0)
        assert str(e.value) == message
        assert e.value.line_number == 3
