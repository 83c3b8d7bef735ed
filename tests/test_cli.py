"""Command-line behaviour: exit codes, reports, golden files."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import ashg
from ashg import (
    gen_sat_bounded_degree,
    parse_cnf,
    parse_instance,
    parse_partition,
    serialize_instance,
)
from ashg.cli import main
from helpers import grid_instance, two_way_star

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return str(GOLDEN / name)


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestSolve:
    def test_unstable_instance_exits_one(self, capsys):
        assert main(["solve", golden("stalker.ashg")]) == 1
        out = capsys.readouterr().out
        assert "c answer NONE" in out
        assert "c command solve" in out

    def test_stable_instance_writes_partition(self, capsys, tmp_path):
        out_file = tmp_path / "friends.part"
        assert main(["solve", golden("friends.ashg"), "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "c answer SOME" in out and "c width" in out
        assert out_file.read_text(encoding="utf-8") == golden_text("grand2.part")

    def test_stdout_partition_parses(self, capsys):
        assert main(["solve", golden("path3.ashg"), "--mode", "connected-nash"]) == 0
        out = capsys.readouterr().out
        part = parse_partition(out)  # report lines are comments
        assert part.n == 3

    def test_explicit_decomposition_accepted(self, capsys):
        args = ["solve", golden("path5.ashg"), "--mode", "connected-nash",
                "--td", golden("path5.td")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "c answer SOME" in out and "c width 1\n" in out

    def test_mismatched_decomposition_rejected(self, capsys):
        args = ["solve", golden("friends.ashg"), "--mode", "connected-nash",
                "--td", golden("path5.td")]
        assert main(args) == 3
        assert "invalid decomposition: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nash", "dynamics"])
    @pytest.mark.parametrize("flag, name", [("--td", "path5.td")])
    def test_decomposition_refused_outside_connected_mode(self, flag, name, mode, capsys):
        args = ["solve", golden("path5.ashg"), "--mode", mode, flag, golden(name)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert f"{flag} applies to --mode connected-nash only, not {mode}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("game", ["path5", "friends", "grid4x6"])
    def test_decompose_writes_the_connected_solvers_tree(self, game, tmp_path, capsys):
        # `decompose` writes the tree connected mode builds for itself, so
        # solving on that file prints what the solve without --td prints
        if game == "grid4x6":
            instance = tmp_path / "grid4x6.ashg"
            instance.write_text(serialize_instance(grid_instance(4, 6, random.Random(46), 0, 3)),
                                encoding="utf-8")
        else:
            instance = golden(f"{game}.ashg")
        td = tmp_path / "t.td"
        assert main(["decompose", str(instance), "--out", str(td)]) == 0
        args = ["solve", str(instance), "--mode", "connected-nash"]
        capsys.readouterr()
        code = main(args)
        plain = capsys.readouterr().out
        assert main(args + ["--td", str(td)]) == code
        given = capsys.readouterr().out

        def without_wall_time(out):
            return [line for line in out.splitlines() if not line.startswith("c wall-time ")]

        assert "c width " in plain
        assert without_wall_time(given) == without_wall_time(plain)

    def test_nash_mode_reports_width_of_the_square(self, capsys):
        # nash mode decomposes the check graph; path5's arcs are all nonzero
        # and two-way, so that is G^2, where a path has width 2
        assert main(["solve", golden("path5.ashg")]) == 0
        assert "c width 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    @pytest.mark.parametrize("tree", ["1 2\n2 3\n1 3\n", "1 2\n"])
    def test_cyclic_or_disconnected_decomposition_rejected(self, mode, tree, tmp_path):
        # nash mode refuses any --td before reading it (see the test above);
        # connected-nash reads the file and rejects the tree
        td = tmp_path / "bad.td"
        td.write_text("s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 2\n" + tree, encoding="utf-8")
        assert main(["solve", golden("path3.ashg"), "--mode", mode, "--td", str(td)]) == 3

    @pytest.mark.parametrize("mode, expected", [
        # nash mode decomposes the check graph once, from G's arcs, and
        # validates nothing
        ("nash", ["decompose_check_graph"]),
        # validate checks a --td tree once; the solver's own nice form of it
        # is valid by construction
        ("connected-nash", ["validate"]),
        # without --td the solver decomposes G once and validates nothing
        ("connected-nash", ["heuristic_decompose"]),
    ])
    def test_decomposition_validated_once(self, mode, expected, monkeypatch, capsys):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (ashg.cli, ashg.coloring, ashg.connected, ashg.decomposition):
            for name in ("validate", "heuristic_decompose", "decompose_check_graph"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        args = ["solve", golden("path5.ashg"), "--mode", mode]
        if "validate" in expected:
            args += ["--td", golden("path5.td")]
        assert main(args) == 0
        assert calls == expected

    def test_huge_bag_count_exits_three(self, tmp_path, capsys):
        td = tmp_path / "huge.td"
        td.write_text("s td 10000000000 1 1\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["solve", golden("path3.ashg"), "--mode", "connected-nash",
                         "--td", str(td)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "bag ids must be exactly" in capsys.readouterr().err
        assert peak < 10**6  # nothing sized by the header's bag count

    def test_dynamics_converges_on_friends(self, capsys):
        assert main(["solve", golden("friends.ashg"), "--mode", "dynamics"]) == 0
        out = capsys.readouterr().out
        assert "c answer SOME" in out
        assert "c steps 1\n" in out

    def test_dynamics_reports_unknown_when_cycling(self, capsys):
        args = ["solve", golden("stalker.ashg"), "--mode", "dynamics",
                "--max-steps", "7"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "c answer UNKNOWN" in captured.out
        assert "c steps 7\n" in captured.out
        assert "no convergence" in captured.err

    def test_table_cap_reports_unknown(self, capsys):
        args = ["solve", golden("path6.ashg"), "--table-cap", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "c answer UNKNOWN" in captured.out
        assert "resource limit" in captured.err

    @pytest.mark.parametrize("mode", ["nash", "connected-nash", "dynamics"])
    def test_negative_table_cap_is_input_error(self, mode, capsys):
        args = ["solve", golden("path6.ashg"), "--mode", mode, "--table-cap", "-1"]
        assert main(args) == 3
        assert "table cap must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nash", "connected-nash", "dynamics"])
    def test_negative_max_steps_is_input_error(self, mode, tmp_path, capsys):
        # every mode checks both limits, before the instance is read
        for instance in (golden("path6.ashg"), str(tmp_path / "missing.ashg")):
            args = ["solve", instance, "--mode", mode, "--max-steps", "-1"]
            assert main(args) == 3
            assert "max_steps must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    def test_negative_table_cap_refused_before_decomposing(self, mode, monkeypatch, capsys):
        # a 2 000-vertex star would spend minutes decomposing before the DP
        # read the cap, so the solvers check it first, library and CLI alike
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (ashg.cli, ashg.coloring, ashg.connected, ashg.decomposition):
            for name in ("heuristic_decompose", "decompose_check_graph"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        solve = {"nash": ashg.solve_nash_via_coloring,
                 "connected-nash": ashg.solve_connected_nash}[mode]
        with pytest.raises(ValueError, match="table cap must be nonnegative, got -1"):
            solve(parse_instance(golden_text("path6.ashg")), table_cap=-1)
        args = ["solve", golden("path6.ashg"), "--mode", mode, "--table-cap", "-1"]
        assert main(args) == 3
        if mode == "connected-nash":
            assert main(args + ["--td", golden("path5.td")]) == 3
        assert "table cap must be nonnegative, got -1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    def test_zero_table_cap_still_caps(self, mode, capsys):
        # the first INTRODUCE table already exceeds a cap of 0
        args = ["solve", golden("path6.ashg"), "--mode", mode, "--table-cap", "0"]
        assert main(args) == 2
        assert "exceeds cap 0" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    def test_capped_solve_reports_peak_table(self, mode, capsys):
        # the table that crossed the cap is reported next to the width
        args = ["solve", golden("path6.ashg"), "--mode", mode, "--table-cap", "1"]
        assert main(args) == 2
        out = capsys.readouterr().out
        assert "c peak-table 2\n" in out and "c answer UNKNOWN" in out

    @pytest.mark.parametrize("mode, seed, peak", [("nash", 1, 3), ("connected-nash", 2, 20)])
    def test_empty_table_before_the_cap_answers_none(self, mode, seed, peak, tmp_path, capsys):
        # NONE grids whose DP empties a table before a later table would cross
        # a cap of `peak` (tests/test_traceback.py): the solve stops there
        game = tmp_path / "grid.ashg"
        game.write_text(serialize_instance(grid_instance(3, 5, random.Random(seed))), encoding="utf-8")
        args = ["solve", str(game), "--mode", mode, "--table-cap"]
        assert main(args + [str(peak)]) == 1
        out = capsys.readouterr().out
        assert f"c peak-table {peak}\n" in out and "c answer NONE" in out
        assert main(args + [str(peak - 1)]) == 2

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    @pytest.mark.parametrize("text, part", [
        ("p ashg 0 0\n", "s part 0 0\n"),
        # vertices 1 and 4 are isolated
        ("p ashg 4 2\na 2 3 1\na 3 2 1\n", "s part 4 3\n1 1\n2 2\n3 2\n4 3\n"),
    ])
    def test_empty_and_isolated_vertices_solved(self, mode, text, part, tmp_path, capsys):
        inst = tmp_path / "i.ashg"
        inst.write_text(text, encoding="utf-8")
        assert main(["solve", str(inst), "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "c answer SOME\n" in out and out.endswith(part)

    @pytest.mark.parametrize("td, violation", [
        ("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n", "edge {2,3} is in no bag"),
        ("s td 3 2 4\nb 1 2 3\nb 2 1\nb 3 3\n1 2\n1 3\n", "vertex 4 is in no bag"),
    ])
    def test_td_checked_by_validate_nice(self, td, violation, tmp_path, capsys):
        inst = tmp_path / "i.ashg"
        inst.write_text("p ashg 4 2\na 2 3 1\na 3 2 1\n", encoding="utf-8")
        td_file = tmp_path / "i.td"
        td_file.write_text(td, encoding="utf-8")
        args = ["solve", str(inst), "--mode", "connected-nash", "--td", str(td_file)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid decomposition: {violation}\n"
        assert captured.out == ""

    def test_malformed_instance_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.ashg"
        bad.write_text("p ashg 2 9\na 1 2 1\n", encoding="utf-8")
        assert main(["solve", str(bad)]) == 3

    def test_huge_vertex_count_exits_three(self, tmp_path, capsys):
        huge = tmp_path / "huge.ashg"
        huge.write_text("p ashg 10000000000 0\n", encoding="utf-8")
        assert main(["solve", str(huge)]) == 3
        assert "exceeds the limit" in capsys.readouterr().err

    def test_missing_file_exits_three(self, capsys):
        assert main(["solve", golden("no_such_file.ashg")]) == 3


class TestVerify:
    def test_stable_partition(self, capsys):
        args = ["verify", golden("friends.ashg"), golden("grand2.part")]
        assert main(args) == 0
        assert "c answer STABLE" in capsys.readouterr().out

    def test_unstable_partition_names_deviation(self, capsys):
        args = ["verify", golden("stalker.ashg"), golden("grand2.part")]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "c answer UNSTABLE" in out
        assert "vertex 2" in out and "singleton" in out

    def test_connected_flag_catches_disconnected_coalition(self, capsys):
        args = ["verify", golden("path3.ashg"), golden("bridge3.part"),
                "--connected"]
        assert main(args) == 1
        assert "disconnected" in capsys.readouterr().out

    def test_partition_size_mismatch_exits_three(self, capsys):
        args = ["verify", golden("path3.ashg"), golden("grand2.part")]
        assert main(args) == 3

    def test_negative_partition_vertex_count_exits_three(self, tmp_path, capsys):
        part = tmp_path / "negative.part"
        part.write_text("s part -1 0\n", encoding="utf-8")
        assert main(["verify", golden("path3.ashg"), str(part)]) == 3
        assert "vertex count must be nonnegative, got -1" in capsys.readouterr().err


class TestGen:
    def test_three_partition_matches_golden_bytes(self, capsys):
        args = ["gen", "3part", golden("items_3part.txt"), "--target", "16"]
        assert main(args) == 0
        assert capsys.readouterr().out == golden_text("3part.ashg")

    def test_three_partition_witness_flow(self, capsys, tmp_path):
        inst = tmp_path / "i.ashg"
        wit = tmp_path / "w.part"
        args = ["gen", "3part", golden("items_3part.txt"), "--target", "16",
                "--out", str(inst), "--witness", golden("triples.txt"),
                "--witness-out", str(wit)]
        assert main(args) == 0
        assert inst.read_text(encoding="utf-8") == golden_text("3part.ashg")
        assert wit.read_text(encoding="utf-8") == golden_text("3part_witness.part")
        assert main(["verify", str(inst), str(wit)]) == 0

    @pytest.mark.parametrize("index", [99, 0])
    def test_three_partition_bad_triple_index_exits_three(self, index, tmp_path, capsys):
        triples = tmp_path / "t.txt"
        triples.write_text(f"1 2 3\n4 5 {index}\n", encoding="utf-8")
        args = ["gen", "3part", golden("items_3part.txt"), "--target", "16",
                "--out", str(tmp_path / "i.ashg"), "--witness", str(triples),
                "--witness-out", str(tmp_path / "w.part")]
        assert main(args) == 3
        assert f"names item {index}, outside 1..6" in capsys.readouterr().err
        assert not (tmp_path / "w.part").exists()

    @pytest.mark.filterwarnings("ignore::UserWarning")  # sat-hd: degree vs n/log2(n)
    @pytest.mark.parametrize("generator, source, certificate, message", [
        (["sat-hd", "--degree", "2"], "phi.cnf", "0\n",
         "assignment file must hold 2 values from {0,1}, got [0]"),
        (["sat-bd"], "phi.cnf", "0 2\n",
         "assignment file must hold 2 values from {0,1}, got [0, 2]"),
        (["3part", "--target", "16"], "items_3part.txt", "1 2 3\n4 5\n",
         "triple file must hold 3 indices per triple"),
    ], ids=["assignment-count", "assignment-value", "triple-count"])
    def test_malformed_certificate_exits_three(self, generator, source, certificate, message,
                                               tmp_path, capsys):
        cert = tmp_path / "cert.txt"
        cert.write_text(certificate, encoding="utf-8")
        args = ["gen", generator[0], golden(source), *generator[1:],
                "--out", str(tmp_path / "i.ashg"), "--witness", str(cert),
                "--witness-out", str(tmp_path / "w.part")]
        assert main(args) == 3
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "i.ashg").exists() and not (tmp_path / "w.part").exists()

    @pytest.mark.parametrize("generator, source, certificate", [
        (["sat-hd", "--degree", "2"], "phi.cnf", "assign.txt"),
        (["sat-bd"], "phi.cnf", "assign.txt"),
        (["3part", "--target", "16"], "items_3part.txt", "triples.txt"),
        (["binpack", "--capacity", "2", "--bins", "2"], "items_binpack.txt", "packing.txt"),
        (["binpack", "--capacity", "2", "--bins", "2", "--unit-weights"],
         "items_binpack.txt", "packing.txt"),
    ], ids=["sat-hd", "sat-bd", "3part", "binpack", "binpack-unit"])
    def test_witness_reuses_the_generated_layout(self, generator, source, certificate,
                                                 monkeypatch, tmp_path, capsys):
        built = []

        def counted(*args, **kwargs):
            built.append(ashg.AshgInstance(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(ashg.reductions, "AshgInstance", counted)
        args = ["gen", generator[0], golden(source), *generator[1:],
                "--out", str(tmp_path / "i.ashg"), "--witness", golden(certificate),
                "--witness-out", str(tmp_path / "w.part")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) == 0
        assert len(built) == 1
        verify = ["verify", str(tmp_path / "i.ashg"), str(tmp_path / "w.part")]
        assert main(verify + (["--connected"] if generator[0] == "binpack" else [])) == 0

    def test_witness_to_stdout_collision_rejected(self, monkeypatch, capsys):
        # refused before the generator builds anything
        called = []
        monkeypatch.setattr(ashg.reductions, "gen_three_partition_star",
                            lambda *args: called.append(args))
        args = ["gen", "3part", golden("items_3part.txt"), "--target", "16",
                "--witness", golden("triples.txt")]
        assert main(args) == 3
        assert "--witness-out" in capsys.readouterr().err
        assert called == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sat_high_degree_witness_verifies(self, capsys, tmp_path):
        inst = tmp_path / "i.ashg"
        wit = tmp_path / "w.part"
        args = ["gen", "sat-hd", golden("phi.cnf"), "--degree", "2",
                "--out", str(inst), "--witness", golden("assign.txt"),
                "--witness-out", str(wit)]
        assert main(args) == 0
        assert main(["verify", str(inst), str(wit)]) == 0

    def test_sat_high_degree_witness_warns_once(self, capsys, tmp_path):
        args = ["gen", "sat-hd", golden("phi.cnf"), "--degree", "2",
                "--out", str(tmp_path / "i.ashg"), "--witness", golden("assign.txt"),
                "--witness-out", str(tmp_path / "w.part")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 0
        messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        assert len(messages) == 1 and "is not below n/log2(n)" in messages[0]

    @pytest.mark.parametrize("generator", [["sat-hd", "--degree", "2"], ["sat-bd"]])
    def test_huge_variable_count_exits_three(self, generator, tmp_path, capsys):
        cnf = tmp_path / "huge.cnf"
        cnf.write_text("p cnf 10000000000 1\n1 0\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["gen", *generator, str(cnf)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "exceeds the limit" in capsys.readouterr().err
        assert peak < 10**6  # no gadget sized by the header's variable count

    @pytest.mark.parametrize("generator, text, parse", [
        # 1 024 variables and 5 000 clauses (a 74 KB file) need 2.9 million vertices
        (["sat-bd"], "p cnf 1024 5000\n" + "".join(
            f"{k % 1024 + 1} -{(7 * k) % 1024 + 1} {(13 * k) % 1024 + 1} 0\n" for k in range(5000)
        ), parse_cnf),
        # padding to 10**7 items: 10**7 vertices
        (["binpack", "--capacity", "100000", "--bins", "100"], "1\n", ashg.parse_int_list),
        # 10**6 vertices, but 2 * 10**9 arcs
        (["binpack", "--capacity", "998", "--bins", "1000"], "1\n", ashg.parse_int_list),
    ], ids=["sat-bd-vertices", "binpack-vertices", "binpack-arcs"])
    def test_oversized_construction_exits_three(self, generator, text, parse, tmp_path, capsys):
        source = tmp_path / "source.txt"
        source.write_text(text, encoding="utf-8")
        out = tmp_path / "i.ashg"
        main(["gen", "square", str(tmp_path / "missing")])  # builds the cached parser
        tracemalloc.start()
        try:
            parse(text)
            _, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code = main(["gen", generator[0], str(source), *generator[1:], "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "above the limit" in capsys.readouterr().err
        assert peak < parse_peak + 10**6  # nothing built beyond reading the source
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_sat_high_degree_huge_degree_exits_three(self, tmp_path, capsys):
        args = ["gen", "sat-hd", golden("phi.cnf"), "--degree", "1000000000",
                "--out", str(tmp_path / "i.ashg"), "--witness", golden("assign.txt"),
                "--witness-out", str(tmp_path / "w.part")]
        tracemalloc.start()
        try:
            code = main(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "above the limit" in capsys.readouterr().err
        assert peak < 10**6  # no gadget sized by the degree
        assert not (tmp_path / "i.ashg").exists()

    def test_sat_high_degree_bad_degree_exits_three(self, capsys):
        args = ["gen", "sat-hd", golden("phi.cnf"), "--degree", "1"]
        assert main(args) == 3

    def test_sat_bounded_degree_output_parses(self, capsys):
        assert main(["gen", "sat-bd", golden("phi.cnf")]) == 0
        inst = parse_instance(capsys.readouterr().out)
        phi = parse_cnf(golden_text("phi.cnf"))
        assert inst.n == gen_sat_bounded_degree(phi)[0].n

    def test_sat_bounded_degree_game_decided_under_the_cap(self, capsys, tmp_path):
        # 130 vertices; G^2's min-fill tree has width 17 and capped at 3 * 10**5
        # signatures, the check graph's has width 7
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 4 4\n4 2 -3 0\n2 -3 -1 0\n3 -4 -1 0\n3 2 -1 0\n",
                       encoding="utf-8")
        inst, part = tmp_path / "i.ashg", tmp_path / "i.part"
        assert main(["gen", "sat-bd", str(cnf), "--out", str(inst)]) == 0
        args = ["solve", str(inst), "--table-cap", "300000", "--out", str(part)]
        assert main(args) == 0
        assert "c answer SOME\n" in capsys.readouterr().out
        assert main(["verify", str(inst), str(part)]) == 0

    def test_bin_packing_witness_verifies_connected(self, capsys, tmp_path):
        inst = tmp_path / "i.ashg"
        wit = tmp_path / "w.part"
        args = ["gen", "binpack", golden("items_binpack.txt"),
                "--capacity", "2", "--bins", "2", "--out", str(inst),
                "--witness", golden("packing.txt"), "--witness-out", str(wit)]
        assert main(args) == 0
        assert main(["verify", str(inst), str(wit), "--connected"]) == 0

    def test_square_adds_zero_weight_chords(self, capsys):
        assert main(["gen", "square", golden("path3.ashg")]) == 0
        out = capsys.readouterr().out
        assert "a 1 3 0" in out and "a 3 1 0" in out

    def test_oversize_square_exits_three_before_it_is_built(self, tmp_path, capsys):
        # 5 198 arcs (a 55 KB file) whose square would have 6 757 400
        source = tmp_path / "star.ashg"
        source.write_text(serialize_instance(two_way_star(2_600)), encoding="utf-8")
        out = tmp_path / "square.ashg"
        tracemalloc.start()
        try:
            code = main(["gen", "square", str(source), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "above the limit" in capsys.readouterr().err
        assert peak < 50 * 10**6
        assert not out.exists()

    def test_square_output_pinned_on_every_golden_instance(self, capsys):
        # sha256 of the text `gen square` writes for each tests/golden/*.ashg
        pinned = {
            "3part.ashg": "bbe88d7b33e5fa4458c5d73c2dcedd48d0e9df1d82aaa892b6270af79f110e49",
            "big13.ashg": "be55bbf7089fb3825d065e0f521f336c0fbaa98c1e7d295a07fa43abb3177ade",
            "friends.ashg": "12c56485e8b8ed39efbc9267c6f47bba3e73c27c64a92e50333090100b2875bc",
            "path3.ashg": "c3f47fcf80dddced6bc58f04cee63faa829e0d76dd09d613a77e1d1e1c63a5be",
            "path5.ashg": "e92a28f4e56d2706b2d73196febdc2fbe7dc6a189e2842730d39f9cfe6c35006",
            "path6.ashg": "014158c5ec3fcbcdfafd89d4aa0b7a2756970aad2503df89efbe336928fe9076",
            "stalker.ashg": "5a7e0a7d4a1ae25ec961314979b25da04db3426cdf83dff0ba9a94b0bd147ae0",
        }
        assert sorted(p.name for p in GOLDEN.glob("*.ashg")) == sorted(pinned)
        for name, digest in pinned.items():
            assert main(["gen", "square", golden(name)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


class TestOracle:
    def test_stable_path(self, capsys):
        assert main(["oracle", golden("path6.ashg")]) == 0
        out = capsys.readouterr().out
        assert "c answer SOME" in out
        parse_partition(out)

    def test_unstable_instance(self, capsys):
        assert main(["oracle", golden("stalker.ashg")]) == 1

    def test_connected_mode(self, capsys):
        assert main(["oracle", golden("path3.ashg"), "--mode",
                     "connected-nash"]) == 0

    def test_default_cap_refuses_large_instance(self, capsys):
        assert main(["oracle", golden("big13.ashg")]) == 2
        captured = capsys.readouterr()
        assert "c answer UNKNOWN" in captured.out
        assert "oracle cap" in captured.err

    def test_lowered_cap_triggers(self, capsys):
        assert main(["oracle", golden("path6.ashg"), "--cap", "4"]) == 2

    @pytest.mark.parametrize("mode", ["nash", "connected-nash"])
    def test_negative_cap_is_input_error(self, mode, capsys):
        assert main(["oracle", golden("path6.ashg"), "--mode", mode, "--cap", "-1"]) == 3
        assert "oracle cap must be nonnegative, got -1" in capsys.readouterr().err

    def test_zero_cap_answers_only_the_empty_game(self, capsys, tmp_path):
        empty = tmp_path / "empty.ashg"
        empty.write_text("p ashg 0 0\n", encoding="utf-8")
        assert main(["oracle", golden("path6.ashg"), "--cap", "0"]) == 2
        assert main(["oracle", str(empty), "--cap", "0"]) == 0


class TestDecompose:
    def test_path_width_one_and_golden_bytes(self, capsys):
        assert main(["decompose", golden("path5.ashg")]) == 0
        out = capsys.readouterr().out
        assert "c width 1" in out
        assert out.endswith(golden_text("path5.td"))

    def test_output_file_round_trips(self, capsys, tmp_path):
        td_file = tmp_path / "out.td"
        assert main(["decompose", golden("path5.ashg"), "--out", str(td_file)]) == 0
        args = ["solve", golden("path5.ashg"), "--mode", "connected-nash",
                "--td", str(td_file)]
        assert main(args) == 0

    @pytest.mark.parametrize("command", ["decompose", "solve"])
    def test_strategy_is_refused(self, command, capsys):
        # one elimination policy: no command selects another
        assert main([command, golden("path5.ashg"), "--strategy", "min-fill"]) == 3
        assert "unrecognized arguments: --strategy min-fill" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 3

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_unknown_flag(self, capsys):
        assert main(["solve", golden("friends.ashg"), "--nope"]) == 3

    def test_missing_required_option(self, capsys):
        assert main(["gen", "3part", golden("items_3part.txt")]) == 3


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        out = "".join(line for line in out.splitlines(keepends=True)
                      if not line.startswith("c wall-time"))
        return code, out, err

    def test_parser_is_built_once(self):
        assert ashg.cli._parser() is ashg.cli._parser()

    def test_options_do_not_leak_into_the_next_call(self, capsys):
        assert main(["solve", golden("friends.ashg"), "--table-cap", "0"]) == 2
        assert "c answer UNKNOWN" in capsys.readouterr().out
        assert main(["solve", golden("friends.ashg")]) == 0
        assert "c answer SOME" in capsys.readouterr().out

    def test_usage_error_between_good_calls_changes_neither(self, capsys):
        argv = ["solve", golden("path5.ashg"), "--mode", "connected-nash"]
        first = self.run(capsys, argv)
        assert first[0] == 0
        assert self.run(capsys, ["solve", golden("path5.ashg"), "--mode", "bogus"])[0] == 3
        assert self.run(capsys, argv) == first

    def test_help_text_is_identical_twice(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr().out
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("usage: ashg")


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        # the child process imports the same package this test imported
        package_root = str(Path(ashg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ashg.cli", "solve", golden("friends.ashg")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "c answer SOME" in proc.stdout

    def test_module_main_block_in_process(self, monkeypatch, capsys):
        # the `__main__` block, run here so that the in-process line tracer
        # sees it; a loaded ashg.cli would make runpy warn
        monkeypatch.delitem(sys.modules, "ashg.cli")
        monkeypatch.setattr(sys, "argv", ["ashg", "solve", golden("friends.ashg")])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("ashg.cli", run_name="__main__")
        assert exit_info.value.code == 0
        assert "c answer SOME" in capsys.readouterr().out


class TestCollectorPause:
    def test_command_runs_with_collector_paused(self, monkeypatch):
        seen = []
        monkeypatch.setattr(ashg.cli, "cmd_solve",
                            lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["solve", golden("friends.ashg")]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_state_is_restored(self, capsys):
        assert gc.isenabled()
        assert main(["solve", golden("friends.ashg")]) == 0
        assert gc.isenabled()
        assert main(["solve", golden("friends.ashg"), "--nope"]) == 3
        assert gc.isenabled()
        gc.disable()
        try:
            assert main(["solve", golden("friends.ashg")]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_out_of_memory_exits_unknown(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(ashg.cli, "solve_nash_via_coloring", exhausted)
        assert main(["solve", golden("friends.ashg")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert gc.isenabled()

    @pytest.mark.parametrize("mode", ["nash", "connected-nash", "dynamics"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, mode, tmp_path, capsys):
        # pausing the collector during a call is safe only if the call makes
        # no cycles that scale with the instance; once the parser is built
        # (by the first call of the process), a successful call makes none
        def garbage_after_solve(n: int) -> int:
            path = tmp_path / f"path{n}.ashg"
            arcs = [f"a {v} {v + 1} 1\na {v + 1} {v} 1" for v in range(1, n)]
            path.write_text(f"p ashg {n} {2 * (n - 1)}\n" + "\n".join(arcs) + "\n",
                            encoding="utf-8")
            gc.collect()
            gc.disable()
            try:
                assert main(["solve", str(path), "--mode", mode]) == 0
                return gc.collect()
            finally:
                gc.enable()

        assert main(["solve", golden("friends.ashg")]) == 0
        assert garbage_after_solve(8) == garbage_after_solve(300) == 0
