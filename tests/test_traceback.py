"""The engine's FORGET-only traceback against the label-carrying reference.

`reference_run_nice_dp` is the engine as it was before its traceback
worked only at FORGET nodes: one generator of (signature, back-pointer)
pairs per node, and a traceback that carries coalition ids through every
node's classes.  Both must build the same tables and trace the same
partition on every solve, capped and NONE cases included.
"""

from __future__ import annotations

import random
from operator import attrgetter

import pytest

from ashg import Partition, ResourceLimitError, heuristic_decompose, make_nice
from ashg import coloring, connected
from ashg.decomposition import FORGET, INTRODUCE, JOIN, LEAF, decompose_check_graph, run_nice_dp
from helpers import grid_instance, suite_instance, tree_instance


def reference_run_nice_dp(nodes, table_cap, leaf, introduce, forget, join, classes):
    tables: list[dict] = []
    for idx, nd in enumerate(nodes):
        kind = nd.kind
        if kind == LEAF:
            pairs = ((leaf, None),)
        elif kind == JOIN:
            by_classes: dict[tuple[int, ...], list] = {}
            for right in tables[nd.children[1]]:
                by_classes.setdefault(classes(right), []).append(right)
            pairs = (
                (join(left, right), (left, right))
                for left in tables[nd.children[0]]
                for right in by_classes.get(classes(left), ())
            )
        elif kind == INTRODUCE:
            child = nd.children[0]
            step = introduce(nd, nodes[child].bag)
            pairs = ((sig, old) for old in tables[child] for sig in step(old))
        else:  # FORGET
            child = nd.children[0]
            step = forget(nd, nodes[child].bag)
            pairs = ((step(old), old) for old in tables[child])
        table: dict = {}
        for sig, back in pairs:
            if sig is not None and sig not in table:
                table[sig] = back
                if len(table) > table_cap:
                    raise ResourceLimitError(
                        f"signature table at node {idx} ({kind}) exceeds cap {table_cap}"
                    )
        tables.append(table)

    root = len(nodes) - 1
    root_table = tables[root]
    if not root_table:
        return None
    assign: dict[int, int] = {}
    fresh = 0
    stack = [(root, next(iter(root_table)), [])]
    while stack:
        idx, sig, ids = stack.pop()
        nd = nodes[idx]
        back = tables[idx][sig]
        if nd.kind == LEAF:
            continue
        if nd.kind == JOIN:
            stack.append((nd.children[0], back[0], ids))
            stack.append((nd.children[1], back[1], ids))
            continue
        child = nd.children[0]
        labels = classes(sig)
        child_labels = classes(back)
        # parent label of each child bag position; None for a forgotten vertex
        if nd.kind == INTRODUCE:
            p = nd.bag.index(nd.vertex)
            aligned = labels[:p] + labels[p + 1 :]
        else:
            p = nodes[child].bag.index(nd.vertex)
            aligned = labels[:p] + (None,) + labels[p:]
        child_ids = [0] * (max(child_labels, default=-1) + 1)
        for lab, parent_lab in zip(child_labels, aligned):
            if parent_lab is not None:
                child_ids[lab] = ids[parent_lab]
        if nd.kind == FORGET:
            lab = child_labels[p]
            if not child_ids[lab]:  # no other bag vertex shares the coalition
                fresh += 1
                child_ids[lab] = fresh
            assign[nd.vertex] = child_ids[lab]
        stack.append((child, back, child_ids))
    return Partition([assign[v] for v in range(1, len(assign) + 1)])


def dp_arguments(instance, mode):
    """(nice nodes, leaf, introduce, forget, join, classes) of one solve."""
    if mode == "nash":
        nodes = make_nice(decompose_check_graph(instance))
        return nodes, (), *coloring._transitions(instance), lambda sig: sig
    nodes = make_nice(heuristic_decompose(instance))
    return nodes, connected.EMPTY_SIGNATURE, *connected._transitions(instance), attrgetter("pi1")


def outcome(engine, instance, mode, table_cap):
    nodes, leaf, introduce, forget, join, classes = dp_arguments(instance, mode)
    try:
        return engine(nodes, table_cap, leaf, introduce, forget, join, classes)
    except ResourceLimitError as exc:
        return str(exc)


def corpus():
    """(name, instance, table cap): small trees, 3 x c grids and suite digraphs."""
    rng = random.Random(2024)
    cases = []
    for i in range(30):
        cases.append((f"tree-{i}", tree_instance(rng.randint(2, 14), rng, rng.randint(2, 4)), 10**6))
    for cols in range(2, 6):
        for lo in (-3, 0):
            for i in range(3):
                cases.append((f"grid3x{cols}-{lo}-{i}", grid_instance(3, cols, rng, lo, 3), 10**6))
    for i in range(3):  # capped
        cases.append((f"capped-grid-{i}", grid_instance(3, 5, rng), 40))
    for i in range(80):
        cases.append((f"suite-{i}", suite_instance(rng, i), 10**6))
    return cases


CORPUS = corpus()


@pytest.mark.parametrize("mode", ["nash", "connected-nash"])
def test_forget_only_traceback_matches_reference(mode):
    kinds = set()
    for name, instance, cap in CORPUS:
        got = outcome(run_nice_dp, instance, mode, cap)
        want = outcome(reference_run_nice_dp, instance, mode, cap)
        assert got == want, name
        kinds.add("capped" if isinstance(got, str) else "none" if got is None else "some")
    # the corpus reaches every kind of outcome in both modes
    assert kinds == {"capped", "none", "some"}

