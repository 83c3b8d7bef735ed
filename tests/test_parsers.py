"""Instance and partition parsers against a token-by-token reference.

The reference below converts every token through one checked helper and
builds the instance tables in two passes over a copy of the arcs.  The
package's parsers must agree with it on every text: the same instance
fields or partition, or a ValueError with the same message.  Random texts
are valid files with comments, blank lines and non-canonical integer
spellings; one or two mutations then break them, so the first offending
line in file order decides the message.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ashg import Partition, parse_instance, parse_partition, serialize_instance, serialize_partition

MAX_VERTICES = 10**6
GUARD = sys.maxsize // 4
FIELDS = ("n", "arcs", "out", "neighbors", "max_degree", "max_abs_weight")


# ---------------------------------------------------------------------------
# Reference parsers


def ref_data_lines(text):
    return [f for f in (raw.split() for raw in text.splitlines()) if f and f[0] != "c"]


def ref_int(token, what):
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{what}: not an integer: {token!r}") from None


def ref_instance(n, triples):
    items = list(triples)
    arc_map = {}
    for u, v, w in items:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"arc ({u},{v}) leaves the vertex range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not isinstance(w, int):
            raise ValueError(f"arc ({u},{v}) has non-integer weight {w!r}")
        if (u, v) in arc_map:
            raise ValueError(f"duplicate arc ({u},{v})")
        arc_map[(u, v)] = w
    w_max = max((abs(w) for w in arc_map.values()), default=0)
    if n * w_max > GUARD:
        raise ValueError(f"n*W = {n * w_max} exceeds the arithmetic guard {GUARD}")
    out = [[] for _ in range(n + 1)]
    nbr = [set() for _ in range(n + 1)]
    for (u, v), w in arc_map.items():
        out[u].append((v, w))
        nbr[u].add(v)
        nbr[v].add(u)
    return {
        "n": n,
        "arcs": arc_map,
        "out": tuple(tuple(sorted(row)) for row in out),
        "neighbors": tuple(tuple(sorted(s)) for s in nbr),
        "max_degree": max((len(s) for s in nbr[1:]), default=0),
        "max_abs_weight": w_max,
    }


def ref_parse_instance(text):
    rows = ref_data_lines(text)
    if not rows or rows[0][:2] != ["p", "ashg"] or len(rows[0]) != 4:
        raise ValueError("instance file must start with 'p ashg <n> <arc-count>'")
    n = ref_int(rows[0][2], "vertex count")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    arc_count = ref_int(rows[0][3], "arc count")
    arcs = []
    for fields in rows[1:]:
        if fields[0] != "a" or len(fields) != 4:
            raise ValueError(f"expected 'a <u> <v> <w>', got {' '.join(fields)!r}")
        arcs.append(tuple(ref_int(t, "arc field") for t in fields[1:]))
    if len(arcs) != arc_count:
        raise ValueError(f"header promises {arc_count} arcs, file has {len(arcs)}")
    return ref_instance(n, arcs)


def ref_parse_partition(text):
    rows = ref_data_lines(text)
    if not rows or rows[0][:2] != ["s", "part"] or len(rows[0]) != 4:
        raise ValueError("partition file must start with 's part <n> <class-count>'")
    n = ref_int(rows[0][2], "vertex count")
    k = ref_int(rows[0][3], "class count")
    assign = {}
    for fields in rows[1:]:
        if len(fields) != 2:
            raise ValueError(f"expected '<vertex> <class-id>', got {' '.join(fields)!r}")
        v, cid = ref_int(fields[0], "vertex"), ref_int(fields[1], "class id")
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} outside 1..{n}")
        if v in assign:
            raise ValueError(f"vertex {v} assigned twice")
        assign[v] = cid
    if len(assign) != n:
        raise ValueError(f"{n - len(assign)} vertices have no class assignment")
    if len(set(assign.values())) != k:
        raise ValueError(f"header promises {k} classes, file has {len(set(assign.values()))}")
    return Partition([assign[v] for v in range(1, n + 1)])


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


def instance_outcome(text):
    kind, got = outcome(parse_instance, text)
    return (kind, {f: getattr(got, f) for f in FIELDS}) if kind == "ok" else (kind, got)


# ---------------------------------------------------------------------------
# Text strategies: token lists first, rendered with filler lines afterwards

ARC_LINE = ("a", "1", "2", "0")
VERTEX_LINE = ("1", "1")
FILLER = ("", "c", "c a 1 2 3", "   ", "\t", "c\tnote")
BAD_TOKENS = ("x", "1.5", "--1", "0x1", "1e3", "½", "a")


def spell(rnd, i):
    """An integer token int(., 10) reads as i, canonical or not."""
    if i < 0:
        return rnd.choice((str(i), f"-0{-i}"))
    return rnd.choice((str(i), f"+{i}", f"0{i}"))


def render(rnd, lines):
    out = []
    for fields in lines:
        out.extend(rnd.choices(FILLER, k=rnd.choice((0, 0, 1, 2))))
        out.append(rnd.choice((" ", "  ", "\t")).join(fields))
    out.extend(rnd.choices(FILLER, k=rnd.choice((0, 1, 2))))
    return "\n".join(out) + rnd.choice(("\n", "", "\r\n"))


# Hypothesis draws the structure; a seeded Random it also draws picks the
# cosmetics (spellings, separators, filler lines) and the partition
# labels and line order, which keeps examples cheap.
cosmetics = st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def instance_tokens(draw, rnd):
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    weights = draw(st.lists(st.integers(-5, 5), min_size=len(arcs), max_size=len(arcs)))
    header = ["p", "ashg", spell(rnd, n), spell(rnd, len(arcs))]
    data = [["a", spell(rnd, u), spell(rnd, v), spell(rnd, w)] for (u, v), w in zip(arcs, weights)]
    return n, header, data


@st.composite
def partition_tokens(draw, rnd):
    n = draw(st.integers(0, 30))
    top = draw(st.integers(-3, 8))
    labels = [rnd.randint(-3, top) for _ in range(n)]
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    header = ["s", "part", spell(rnd, n), spell(rnd, len(set(labels)))]
    data = [[spell(rnd, v), spell(rnd, labels[v - 1])] for v in order]
    return n, header, data


def class_count(data):
    ids = set()
    for line in data:
        try:
            ids.add(int(line[-1], 10))
        except ValueError:
            pass
    return len(ids)


def pick_line(draw, data, filler):
    """Index of a data line, adding `filler` first when there is none."""
    if not data:
        data.append(list(filler))
    return draw(st.integers(0, len(data) - 1))


def mutate_instance(draw, n, header, data, kind):
    if kind == "bad token":
        if draw(st.booleans()):
            header[draw(st.integers(2, len(header) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        else:
            data[pick_line(draw, data, ARC_LINE)][draw(st.integers(1, 3))] = (
                draw(st.sampled_from(BAD_TOKENS)))
    elif kind == "tag":
        data[pick_line(draw, data, ARC_LINE)][0] = draw(st.sampled_from(("b", "A", "p", "aa")))
    elif kind == "3 fields":
        line = data[pick_line(draw, data, ARC_LINE)]
        line[:] = line[:3]
    elif kind == "5 fields":
        line = data[pick_line(draw, data, ARC_LINE)]
        line[:] = (line + ["0"] * 5)[:5]
    elif kind == "duplicate arc":
        line = data[pick_line(draw, data, ARC_LINE)]
        data.insert(draw(st.integers(0, len(data))), line[:])
    elif kind == "self-loop":
        line = data[pick_line(draw, data, ARC_LINE)]
        line[2] = line[1]
    elif kind == "out of range":
        line = data[pick_line(draw, data, ARC_LINE)]
        line[draw(st.integers(1, 2))] = str(draw(st.sampled_from((0, -1, n + 1))))
    elif kind == "header count" and len(header) == 4:
        header[3] = str(len(data) + draw(st.sampled_from((-1, 1, 2))))
    elif kind == "header shape":
        choice = draw(st.integers(0, 2))
        if choice == 0:
            header[0] = "s"
        elif choice == 1:
            header[1] = "ash"
        else:
            header.pop()
    elif kind == "too many vertices":
        header[2] = str(MAX_VERTICES + 1)
    elif kind == "n*W guard":
        data[pick_line(draw, data, ARC_LINE)][3] = str(2**62)


def mutate_partition(draw, n, header, data, kind):
    if kind == "bad token":
        if draw(st.booleans()):
            header[draw(st.integers(2, 3))] = draw(st.sampled_from(BAD_TOKENS))
        else:
            data[pick_line(draw, data, VERTEX_LINE)][draw(st.integers(0, 1))] = (
                draw(st.sampled_from(BAD_TOKENS)))
    elif kind == "1 field":
        line = data[pick_line(draw, data, VERTEX_LINE)]
        line[:] = line[:1]
    elif kind == "3 fields":
        line = data[pick_line(draw, data, VERTEX_LINE)]
        line[:] = (line + ["1"] * 3)[:3]
    elif kind == "vertex twice":
        line = data[pick_line(draw, data, VERTEX_LINE)]
        data.insert(draw(st.integers(0, len(data))), [line[0], str(draw(st.integers(-3, 8)))])
    elif kind == "missing vertex":
        if data:
            del data[draw(st.integers(0, len(data) - 1))]
        else:
            header[2] = "1"
    elif kind == "class count":
        header[3] = str(class_count(data) + draw(st.sampled_from((-1, 1, 3))))
    elif kind == "out of range":
        data[pick_line(draw, data, VERTEX_LINE)][0] = str(draw(st.sampled_from((0, -1, n + 1))))
    elif kind == "header shape":
        choice = draw(st.integers(0, 2))
        if choice == 0:
            header[0] = "p"
        elif choice == 1:
            header[1] = "parts"
        else:
            header.append("0")


INSTANCE_MUTATIONS = ("bad token", "tag", "3 fields", "5 fields", "duplicate arc", "self-loop",
                      "out of range", "header count", "header shape", "too many vertices",
                      "n*W guard")
PARTITION_MUTATIONS = ("bad token", "1 field", "3 fields", "vertex twice", "missing vertex",
                       "class count", "out of range", "header shape")


@st.composite
def broken_instance_texts(draw, first):
    rnd = draw(cosmetics)
    n, header, data = draw(instance_tokens(rnd))
    promised = header[3]
    kinds = [first] + draw(st.lists(st.sampled_from(INSTANCE_MUTATIONS), max_size=1))
    for kind in kinds:
        mutate_instance(draw, n, header, data, kind)
    # with the count repaired, a line-level error is not hidden behind it
    if header[3:] == [promised] and draw(st.booleans()):
        header[3] = str(len(data))
    return kinds, render(rnd, [header] + data)


@st.composite
def broken_partition_texts(draw, first):
    rnd = draw(cosmetics)
    n, header, data = draw(partition_tokens(rnd))
    kinds = [first] + draw(st.lists(st.sampled_from(PARTITION_MUTATIONS), max_size=1))
    for kind in kinds:
        mutate_partition(draw, n, header, data, kind)
    return kinds, render(rnd, [header] + data)


# ---------------------------------------------------------------------------
# Tests

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# per mutation kind, each example followed by at most one more mutation
BROKEN_SETTINGS = settings(SETTINGS, max_examples=25)


@SETTINGS
@given(st.data())
def test_instance_texts_parse_like_the_reference_and_round_trip(data):
    rnd = data.draw(cosmetics)
    n, header, lines = data.draw(instance_tokens(rnd))
    text = render(rnd, [header] + lines)
    expected = ref_parse_instance(text)
    assert instance_outcome(text) == ("ok", expected)
    canonical = serialize_instance(parse_instance(text))
    assert canonical == "".join(
        [f"p ashg {n} {len(expected['arcs'])}\n"]
        + [f"a {u} {v} {w}\n" for (u, v), w in sorted(expected["arcs"].items())])
    assert serialize_instance(parse_instance(canonical)) == canonical


@SETTINGS
@given(st.data())
def test_partition_texts_parse_like_the_reference_and_round_trip(data):
    rnd = data.draw(cosmetics)
    _, header, lines = data.draw(partition_tokens(rnd))
    text = render(rnd, [header] + lines)
    expected = ref_parse_partition(text)
    assert parse_partition(text) == expected
    canonical = serialize_partition(expected)
    assert serialize_partition(parse_partition(text)) == canonical
    assert serialize_partition(parse_partition(canonical)) == canonical


@pytest.mark.parametrize("first", INSTANCE_MUTATIONS)
@BROKEN_SETTINGS
@given(st.data())
def test_broken_instance_texts_fail_with_the_reference_message(first, data):
    kinds, text = data.draw(broken_instance_texts(first))
    kind, message = outcome(ref_parse_instance, text)
    assert kind == "error", kinds
    assert instance_outcome(text) == ("error", message)


@pytest.mark.parametrize("first", PARTITION_MUTATIONS)
@BROKEN_SETTINGS
@given(st.data())
def test_broken_partition_texts_fail_with_the_reference_message(first, data):
    kinds, text = data.draw(broken_partition_texts(first))
    kind, message = outcome(ref_parse_partition, text)
    assert kind == "error", kinds
    assert outcome(parse_partition, text) == ("error", message)


def test_first_offending_line_wins():
    # a bad token after a duplicate arc: the parse error of the later line
    # comes first, because the instance checks run after every line is read
    text = "p ashg 3 3\na 1 2 1\na 1 2 2\na 2 3 x\n"
    assert outcome(parse_instance, text) == ("error", "arc field: not an integer: 'x'")
    # of two bad tokens on one line, the leftmost is named
    assert outcome(parse_instance, "p ashg 3 1\na 1 y x\n") == (
        "error", "arc field: not an integer: 'y'")
    assert outcome(parse_partition, "s part 2 1\n1 1\nv k\n") == (
        "error", "vertex: not an integer: 'v'")
    assert outcome(parse_partition, "s part 2 1\n9 k\n") == (
        "error", "class id: not an integer: 'k'")
    assert instance_outcome(text) == outcome(ref_parse_instance, text)
