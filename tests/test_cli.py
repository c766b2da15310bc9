"""End-to-end tests of the command-line interface and the SVG renderer.

All expected exit codes and artifact contents below are derived by hand
from the documented contracts (0 clean, 1 violation, 2 usage error,
3 budget exceeded) and from independently constructed fixtures; no
expected value is copied from program output.
"""

import io
import json
import random
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from simembed import planarity
from simembed.cli import GRID_CAP, main, render_svg
from simembed.counterexample import (CellLayout, CounterexampleParams, SequencePlan,
                                     size_report)
from simembed.geom import Point
from simembed.leveltree import (
    LevelTree,
    RegionSystem,
    check_level_drawing,
    dump_level_tree,
    load_level_tree,
    search_level_planar,
)
from simembed.model import (
    Drawing,
    FormatError,
    Instance,
    PathGraph,
    Role,
    RootedTree,
    dump_drawing,
    dump_instance,
    load_drawing,
    load_instance,
)

from test_analyzer import CHAIN_ORDER, CHAIN_PARENT, passage_witness, zigzag_witness

GADGET_PARENT = [None, 0, 0, 0, 1, 2, 3, 1, 2, 3]
# the passage witness's plan with a key that CellLayout does not have
UNKNOWN_KEY_PLAN = passage_witness()[2].to_json().replace(
    '"joint":', '"colour":0,"joint":', 1)


def depth2_instance():
    t = RootedTree.from_parent([None, 0, 0, 1, 1, 2, 2])
    return Instance(t, PathGraph.of([3, 1, 4, 0, 5, 2, 6]))


def as_files(inst, d, plan):
    return {"sge": dump_instance(inst), "sgd": dump_drawing(d),
            "plan": plan.to_json()}


WITNESS_FILES = as_files(*passage_witness())  # the passage witness
# a star on 0..2 drawn without a crossing
CLEAN_SGE = "sge 1 3\ntree - 0 0\npath 1 0 2\n"
CLEAN_SGD = "sgd 1 3\n0 0 0\n1 1 0\n2 0 1\n"


def write_instance(tmp_path, inst, name="a.sge"):
    p = tmp_path / name
    p.write_text(dump_instance(inst))
    return str(p)


class TestLevelTreeFormat:
    def test_round_trip_without_lines(self):
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        lt2, rs2 = load_level_tree(dump_level_tree(lt))
        assert lt2.tree.parent == lt.tree.parent
        assert tuple(lt2.phi) == tuple(lt.phi)
        assert rs2 is None

    def test_round_trip_with_lines(self):
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        lt2, rs2 = load_level_tree(dump_level_tree(lt, rs))
        assert rs2 is not None
        assert rs2.positions() == rs.positions()

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            load_level_tree("nope 1 2 3\n")

    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            load_level_tree("slt 1 3 2\ntree - 0 0\nphi 1 2\n")


class TestEmbedCheck:
    def test_embed_then_check_clean(self, tmp_path):
        sge = write_instance(tmp_path, depth2_instance())
        sgd = str(tmp_path / "a.sgd")
        assert main(["embed-depth2", sge, "--out", sgd]) == 0
        assert main(["check", sge, sgd]) == 0

    def test_check_rejects_crossing_drawing(self, tmp_path):
        # path order 1,0,2,3 with segment (1,0) crossing segment (2,3)
        # at (9/5, 9/5), verified by hand
        t = RootedTree.from_parent([None, 0, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2, 3]))
        d = Drawing({0: Point(2, 2), 1: Point(0, 0),
                     2: Point(3, 0), 3: Point(1, 3)})
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "x.sgd"
        sgd.write_text(dump_drawing(d))
        assert main(["check", sge, str(sgd)]) == 1

    def test_embed_refuses_depth3(self, tmp_path, capsys):
        # the 7-vertex path rooted at an end: radius 3
        t = RootedTree.from_parent([None, 0, 1, 2, 3, 4, 5])
        sge = write_instance(tmp_path, Instance(t, PathGraph.of(range(7))))
        assert main(["embed-depth2", sge]) == 1
        assert "radius 3" in capsys.readouterr().err

    def test_embed_roots_at_a_center(self, tmp_path):
        # the 5-vertex path rooted at an end: depth 4, radius 2
        t = RootedTree.from_parent([None, 0, 1, 2, 3])
        sge = write_instance(tmp_path, Instance(t, PathGraph.of([0, 2, 4, 1, 3])))
        sgd = str(tmp_path / "a.sgd")
        assert main(["embed-depth2", sge, "--out", sgd]) == 0
        assert main(["check", sge, sgd]) == 0

    def test_check_records_format(self, tmp_path, capsys):
        sge = write_instance(tmp_path, depth2_instance())
        sgd = str(tmp_path / "a.sgd")
        main(["embed-depth2", sge, "--out", sgd])
        capsys.readouterr()
        assert main(["check", sge, sgd, "--format", "records"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["clean"] and rec["tree_planar"] and rec["path_planar"]


    def test_check_records_list_witnesses(self, tmp_path, capsys):
        # tree edges 3-1 and 2-4 cross at (8/3, 0); vertex 3 = (2, 0) lies
        # inside path edge 0-1, so the path edges 2-3 and 3-4 touch it
        t = RootedTree.from_parent([None, 3, 0, 2, 2])
        inst = Instance(t, PathGraph.of([0, 1, 2, 3, 4]))
        d = Drawing({0: Point(0, 0), 1: Point(4, 0), 2: Point(2, 2),
                     3: Point(2, 0), 4: Point(3, -1)})
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "x.sgd"
        sgd.write_text(dump_drawing(d))
        assert main(["check", sge, str(sgd)]) == 1
        assert capsys.readouterr().out == (
            "VIOLATIONS: tree planar=False (1 crossings), "
            "path planar=False (2 crossings)\n")
        assert main(["check", sge, str(sgd), "--format", "records"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert (rec["tree_crossings"], rec["tree_vertex_on_edge"]) == (1, 0)
        assert (rec["path_crossings"], rec["path_vertex_on_edge"]) == (2, 1)
        assert rec["tree_crossing_witnesses"] == [
            {"edges": [[3, 1], [2, 4]], "relation": "proper-crossing"}]
        assert rec["tree_vertex_on_edge_witnesses"] == []
        assert rec["path_crossing_witnesses"] == [
            {"edges": [[0, 1], [2, 3]], "relation": "touching"},
            {"edges": [[0, 1], [3, 4]], "relation": "touching"}]
        assert rec["path_vertex_on_edge_witnesses"] == [
            {"vertex": 3, "edge": [0, 1]}]

    def test_check_records_cap_witnesses(self, tmp_path, capsys):
        # a path zigzagging between the two halves of a convex chain
        # crosses itself more than 20 times; the lists stop at 20
        n = 14
        order = [v for k in range(n // 2) for v in (k, k + n // 2)]
        inst = Instance(RootedTree.from_parent([None] + list(range(n - 1))),
                        PathGraph.of(order))
        d = Drawing({v: Point(v, v * v) for v in range(n)})
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "z.sgd"
        sgd.write_text(dump_drawing(d))
        assert main(["check", sge, str(sgd), "--format", "records"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["path_crossings"] > 20
        assert len(rec["path_crossing_witnesses"]) == 20
        assert rec["tree_crossing_witnesses"] == []

class TestSearch:
    def test_found_writes_drawing(self, tmp_path, capsys):
        sge = write_instance(tmp_path, depth2_instance())
        out = tmp_path / "s.sgd"
        assert main(["search", sge, "--grid", "3",
                     "--out", str(out)]) == 0
        d = load_drawing(out.read_text())
        inst = load_instance(open(sge).read())
        assert main(["check", sge, str(out)]) == 0
        assert len(d.pos) == inst.tree.n

    def test_proved_none_small_grid(self, tmp_path):
        # three vertices cannot be placed injectively on a 1x1 grid
        t = RootedTree.from_parent([None, 0, 0])
        sge = write_instance(tmp_path, Instance(t, PathGraph.of([1, 0, 2])))
        assert main(["search", sge, "--grid", "1"]) == 1

    def test_budget_exceeded(self, tmp_path):
        sge = write_instance(tmp_path, depth2_instance())
        assert main(["search", sge, "--grid", "4", "--budget", "1"]) == 3


class TestGridCap:
    # a grid of W² points for n vertices (or regions) is refused before it
    # is built when W² × n exceeds GRID_CAP: 3000² × 3 would be 9 M Points
    def test_search_refuses_a_huge_grid_at_once(self, tmp_path, capsys):
        sge = tmp_path / "s.sge"
        sge.write_text(CLEAN_SGE)
        start = time.perf_counter()
        assert main(["search", str(sge), "--grid", "3000"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid 3000 is too large")
        assert err.count("\n") == 1

    def test_cap_is_on_points_times_takers(self, tmp_path, capsys):
        sge = tmp_path / "s.sge"
        sge.write_text(CLEAN_SGE)
        w = isqrt(GRID_CAP // 3)
        with patch("simembed.cli.search_embedding") as search:
            search.return_value = planarity.SearchResult(
                planarity.SearchStatus.ProvedNone)
            assert main(["search", str(sge), "--grid", str(w)]) == 1
            assert len(search.call_args.args[1]) == w * w
            assert main(["search", str(sge), "--grid", str(w + 1)]) == 2

    def test_region_search_refuses_a_huge_grid(self, tmp_path, capsys):
        slt = tmp_path / "r.slt"
        slt.write_text(dump_level_tree(_GADGET_LEVELS,
                                       RegionSystem.horizontal([0, 1, 2, 3])))
        w = isqrt(GRID_CAP // 10) + 1  # 10 vertices, 4 regions
        assert main(["level-search", str(slt), "--grid", str(w)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --grid {w} is too large")
        assert err.count("\n") == 1


class TestLevelSearch:
    def test_certified_leveling_exhausts(self, tmp_path, capsys):
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        slt = tmp_path / "g.slt"
        slt.write_text(dump_level_tree(lt))
        assert main(["level-search", str(slt), "--grid", "10",
                     "--format", "records"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "ExhaustedNone"

    def test_planar_leveling_found(self, tmp_path):
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 3, 3, 3, 3, 3, 3))
        slt = tmp_path / "g.slt"
        slt.write_text(dump_level_tree(lt))
        assert main(["level-search", str(slt), "--grid", "10"]) == 0

    def test_region_lines_switch_to_region_search(self, tmp_path, capsys):
        # regions are weaker than lines: the leveling certified
        # nonplanar above becomes drawable with interior freedom
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        slt = tmp_path / "r.slt"
        slt.write_text(dump_level_tree(lt, rs))
        assert main(["level-search", str(slt), "--grid", "4",
                     "--budget", "50000000", "--format", "records"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["status"] == "Found"

    def test_region_metadata_records_are_json_values(self, tmp_path, capsys):
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 0]), (1, 2, 2))
        slt = tmp_path / "r.slt"
        slt.write_text(dump_level_tree(lt, RegionSystem.horizontal([0, 1])))
        assert main(["level-search", str(slt), "--grid", "3",
                     "--format", "records"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        # a 3x3 grid per region: mirror symmetric across x only; the two
        # leaves are interchangeable siblings
        assert meta["per_region_candidates"] == [9, 9]
        assert meta["square_symmetries"] == 1
        assert meta["sibling_cuts"] == 1
        assert isinstance(meta["nodes"], int)

    def test_budget_exceeded(self, tmp_path):
        lt = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                          (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
        rs = RegionSystem.horizontal([0, 1, 2, 3])
        slt = tmp_path / "r.slt"
        slt.write_text(dump_level_tree(lt, rs))
        assert main(["level-search", str(slt), "--grid", "4",
                     "--budget", "3"]) == 3

    def test_edge_across_a_huge_level_gap(self, tmp_path, capsys):
        # the ordering oracle subdivides the one edge only at used levels,
        # so the 10^12 levels between its ends cost nothing
        slt = tmp_path / "far.slt"
        slt.write_text("slt 1 2 1000000000000\ntree - 0\nphi 1 1000000000000\n")
        assert main(["level-search", str(slt)]) == 0
        assert capsys.readouterr().out == "Found after 4 nodes\n"
        assert main(["level-search", str(slt), "--method", "combinatorial"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("BudgetExceeded") and "inconclusive" in out

    def test_every_search_record_has_the_same_keys(self, tmp_path, capsys):
        sge = write_instance(tmp_path, depth2_instance())
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 0]), (1, 2, 2))
        slt, rslt = tmp_path / "l.slt", tmp_path / "r.slt"
        slt.write_text(dump_level_tree(lt))
        rslt.write_text(dump_level_tree(lt, RegionSystem.horizontal([0, 1])))
        for argv in (["search", sge, "--grid", "1"], ["level-search", str(slt)],
                     ["level-search", str(rslt), "--grid", "3"]):
            main(argv + ["--format", "records"])
            rec = json.loads(capsys.readouterr().out)
            assert set(rec) == {"status", "nodes", "note", "metadata"}


class TestGenerateParams:
    def test_desk_generate_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["generate", "--s", "2", "--x", "1", "--y", "2",
                     "--out", out]) == 0
        inst = load_instance((tmp_path / "gen.sge").read_text())
        from simembed.counterexample import SequencePlan
        plan = SequencePlan.from_json((tmp_path / "gen.plan").read_text())
        assert inst.tree.n > 0 and plan.cells

    def test_symbolic_records(self, capsys):
        assert main(["generate", "--s", "2", "--x", "1", "--y", "2",
                     "--mode", "symbolic", "--format", "records"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["cells_per_formation"] == 592

    def test_symbolic_records_take_the_repetition_flags(self, capsys):
        assert main(["generate", "--s", "2", "--x", "1", "--y", "2",
                     "--mode", "symbolic", "--sef-reps", "8",
                     "--sef-tuple", "4", "--format", "records"]) == 0
        rec = json.loads(capsys.readouterr().out)
        # 4 EF tuples of 4 joints each
        assert (rec["joints"], rec["vertices_total"]) == (16, 710_529)
        rep = size_report(CounterexampleParams(2, 1, 2, sef_reps=8, sef_tuple=4))
        assert rec == {"joints": rep.joints, "cells_per_joint": rep.cells_per_joint,
                       "cells_per_formation": rep.cells_per_formation,
                       "head": list(rep.cell_head_counts),
                       "tail": list(rep.cell_tail_counts),
                       "stabilizers": rep.cell_stabilizers,
                       "vertices_total": rep.vertices_total}

    def test_params_text_degeneracy(self, capsys):
        assert main(["params", "1", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "yes" in out[1] and "no" in out[2]

    def test_params_records_exact(self, capsys):
        assert main(["params", "2", "--format", "records"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["r"] == 2 ** 7 * 3 * 2
        from math import comb
        assert rec["y"] == comb(rec["r"] + 2, 3)


class TestAnalyze:
    def test_passage_witness_records(self, tmp_path, capsys):
        inst, d, plan = passage_witness()
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "w.sgd"
        sgd.write_text(dump_drawing(d))
        pln = tmp_path / "w.plan"
        pln.write_text(plan.to_json())
        assert main(["analyze", sge, str(pln), str(sgd),
                     "--format", "records"]) == 0
        recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        kinds = {r["kind"] for r in recs}
        assert "passage" in kinds and "door" in kinds
        assert any(r["kind"] == "door" and r["status"] == "closed"
                   for r in recs)

    def test_text_summary(self, tmp_path, capsys):
        inst, d, plan = passage_witness()
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "w.sgd"
        sgd.write_text(dump_drawing(d))
        pln = tmp_path / "w.plan"
        pln.write_text(plan.to_json())
        assert main(["analyze", sge, str(pln), str(sgd)]) == 0
        assert "passages=" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        lambda raw: raw["sef"].update(efs=[99]),
        lambda raw: raw["sef"].pop("efs"),
        lambda raw: raw["formations"][0].pop("joints"),
        lambda raw: raw["efs"][0].pop("defects"),
    ], ids=["sef-efs-out-of-range", "no-sef-efs", "formation-no-joints",
            "ef-no-defects"])
    def test_plan_the_analyzer_would_trip_on(self, tmp_path, capsys, edit):
        files = _channel_scenario()
        for k, doc in files.items():
            (tmp_path / f"a.{k}").write_text(doc)
        argv = ["analyze"] + [str(tmp_path / f"a.{k}") for k in ("sge", "plan", "sgd")]
        assert main(argv) == 0
        capsys.readouterr()
        raw = json.loads(files["plan"])
        edit(raw)
        (tmp_path / "a.plan").write_text(json.dumps(raw))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# the 465-vertex desk instance: generate's output, and a seeded random
# injective drawing of it
DESK_465 = ["--s", "2", "--x", "1", "--y", "2", "--formation-reps", "1",
            "--formation-outer", "1", "--sef-tuple", "2", "--sef-efs", "1",
            "--sef-reps", "2"]


def _swap_heads(raw):
    # the first and last cells (joints 0 and 7) trade head 1-vertices
    first, last = raw["cells"][0], raw["cells"][-1]
    first["head_1vertex"], last["head_1vertex"] = (last["head_1vertex"],
                                                   first["head_1vertex"])


class TestAnalyzeChecksGeneratedPlans:
    def files(self, tmp_path, capsys):
        base = str(tmp_path / "desk")
        assert main(["generate", *DESK_465, "--out", base]) == 0
        n = load_instance(Path(base + ".sge").read_text()).tree.n
        cells = random.Random(1).sample(range((4 * n) ** 2), n)
        Path(base + ".sgd").write_text(dump_drawing(Drawing(
            {v: Point(c // (4 * n), c % (4 * n)) for v, c in enumerate(cells)})))
        capsys.readouterr()
        return [base + ext for ext in (".sge", ".plan", ".sgd")]

    def test_own_plan_is_analyzed(self, tmp_path, capsys):
        assert main(["analyze", *self.files(tmp_path, capsys)]) == 0
        assert capsys.readouterr().out.startswith("passages=")

    @pytest.mark.parametrize("edit, message", [
        (_swap_heads, "cell 0: a member hangs below another joint"),
        (lambda raw: raw["sef"]["defects"].append([1]),
         "sef_reps must be divisible by sef_tuple"),
        (lambda raw: raw["formations"][0]["cells"].clear(),
         "StopIteration"),
        (lambda raw: raw["formations"].append(raw["formations"][0]),
         "formation count is not its program's"),
    ], ids=["head-swap", "odd-schedule", "empty-formation", "extra-formation"])
    def test_plan_that_does_not_fit_exits_2(self, tmp_path, capsys, edit, message):
        sge, plan, sgd = self.files(tmp_path, capsys)
        raw = json.loads(Path(plan).read_text())
        edit(raw)
        Path(plan).write_text(json.dumps(raw))
        assert main(["analyze", sge, plan, sgd]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert message in out.err


class TestRender:
    def small(self):
        t = RootedTree.from_parent([None, 0, 0])
        inst = Instance(t, PathGraph.of([1, 0, 2]))
        d = Drawing({0: Point(0, 0), 1: Point(-1, 1), 2: Point(1, 1)})
        return inst, d

    def test_layering_and_counts(self):
        inst, d = self.small()
        svg = render_svg(inst, d)
        grey = svg.index('stroke="#9e9e9e"')
        black = svg.index('stroke="#000000"')
        assert grey < black  # tree edges are drawn beneath path edges
        assert svg.count("<line") == 4
        assert svg.count("<circle") == 3
        assert black < svg.index("<circle")  # vertices on top
        assert 'version="1.1"' in svg

    def test_deterministic(self, tmp_path, capsys):
        inst, d = self.small()
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "d.sgd"
        sgd.write_text(dump_drawing(d))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", sge, str(sgd), "--out", str(a)]) == 0
        assert main(["render", sge, str(sgd), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_display_precision_is_4_decimals(self):
        inst, d = self.small()
        from fractions import Fraction
        d = Drawing({0: Point(Fraction(1, 3), 0), 1: Point(-1, 1),
                     2: Point(1, 1)})
        svg = render_svg(inst, d)
        import re
        for m in re.finditer(r'[xy][12]?="(-?\d+\.\d+)"', svg):
            assert len(m.group(1).split(".")[1]) == 4


class TestUsageErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.sge", "/nonexistent.sgd"]) == 2

    def test_malformed_instance(self, tmp_path):
        p = tmp_path / "bad.sge"
        p.write_text("not an instance\n")
        assert main(["embed-depth2", str(p)]) == 2

    def test_invalid_generate_params(self):
        assert main(["generate", "--s", "2", "--x", "2", "--y", "3"]) == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def assert_one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_role_code(self, tmp_path, capsys):
        sge = tmp_path / "roles.sge"
        sge.write_text("sge 1 3\ntree - 0 0\npath 1 0 2\nroles RX\n")
        sgd = tmp_path / "d.sgd"
        sgd.write_text("sgd 1 3\n0 0 0\n1 1 0\n2 0 1\n")
        assert main(["check", str(sge), str(sgd)]) == 2
        self.assert_one_error_line(capsys)

    def test_zero_denominator_coordinate(self, tmp_path, capsys):
        sge = tmp_path / "a.sge"
        sge.write_text("sge 1 3\ntree - 0 0\npath 1 0 2\n")
        sgd = tmp_path / "d.sgd"
        sgd.write_text("sgd 1 3\n0 1/0 0\n1 1 0\n2 0 1\n")
        assert main(["check", str(sge), str(sgd)]) == 2
        self.assert_one_error_line(capsys)

    def test_path_vertex_outside_tree(self, tmp_path, capsys):
        sge = tmp_path / "a.sge"
        sge.write_text("sge 1 3\ntree - 0 0\npath 1 0 7\n")
        assert main(["embed-depth2", str(sge)]) == 2
        self.assert_one_error_line(capsys)

    def test_zero_denominator_in_lines(self, tmp_path, capsys):
        slt = tmp_path / "r.slt"
        slt.write_text("slt 1 2 2\ntree - 0\nphi 1 2\nlines 0 1 1/0\n")
        assert main(["level-search", str(slt)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("method", ["auto", "grid", "combinatorial"])
    def test_method_with_region_lines(self, tmp_path, capsys, method):
        # the region search has no method; a given --method is refused
        slt = tmp_path / "r.slt"
        slt.write_text("slt 1 2 2\ntree - 0\nphi 1 2\nlines 0 1 0\nlines 0 1 1\n")
        assert main(["level-search", str(slt), "--grid", "3"]) == 0
        capsys.readouterr()
        assert main(["level-search", str(slt), "--method", method]) == 2
        self.assert_one_error_line(capsys)

    def test_roles_length_mismatch(self, tmp_path, capsys):
        sge = tmp_path / "a.sge"
        sge.write_text("sge 1 3\ntree - 0 0\npath 1 0 2\nroles R\n")
        sgd = tmp_path / "d.sgd"
        sgd.write_text("sgd 1 3\n0 0 0\n1 1 0\n2 0 1\n")
        assert main(["check", str(sge), str(sgd)]) == 2
        self.assert_one_error_line(capsys)

    def test_drawing_vertex_outside_instance(self, tmp_path, capsys):
        sge = tmp_path / "a.sge"
        sge.write_text("sge 1 3\ntree - 0 0\npath 1 0 2\n")
        sgd = tmp_path / "d.sgd"
        sgd.write_text("sgd 1 4\n0 0 0\n1 1 0\n2 0 1\n7 1 1\n")
        assert main(["check", str(sge), str(sgd)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("coord", ["1e200000", "0.5", "+1", "1/-2"])
    def test_coordinate_outside_the_grammar(self, tmp_path, capsys, coord):
        # Fraction would read each of these; 1e200000 is a 200,001-digit
        # integer that makes check run for many seconds
        sge = tmp_path / "a.sge"
        sge.write_text(CLEAN_SGE)
        sgd = tmp_path / "d.sgd"
        sgd.write_text(f"sgd 1 3\n0 0 0\n1 1 0\n2 {coord} 1\n")
        start = time.perf_counter()
        assert main(["check", str(sge), str(sgd)]) == 2
        assert time.perf_counter() - start < 0.5
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["check", "render", "analyze"])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_drawing_vertex_set_differs(self, tmp_path, capsys, command, change):
        # a drawing of the passage witness with a vertex n added, or with
        # vertex 0 left out: every command that reads both refuses it
        inst, d, plan = passage_witness()
        n = inst.tree.n
        pos = dict(d.pos)
        if change == "extra":
            pos[n] = Point(10 ** 6, 10 ** 6 + 1)
        else:
            del pos[0]
        files = as_files(inst, Drawing(pos), plan)
        paths = {}
        for k, text in files.items():
            paths[k] = str(tmp_path / f"w.{k}")
            Path(paths[k]).write_text(text)
        argv = {"check": ["check", paths["sge"], paths["sgd"]],
                "render": ["render", paths["sge"], paths["sgd"]],
                "analyze": ["analyze", paths["sge"], paths["plan"], paths["sgd"]]}
        assert main(argv[command]) == 2
        self.assert_one_error_line(capsys)

    def test_lines_count_differs_from_levels(self, tmp_path, capsys):
        # two levels but one region line: region 2 would have no line
        slt = tmp_path / "r.slt"
        slt.write_text("slt 1 2 2\ntree - 0\nphi 1 2\nlines 0 1 0\n")
        assert main(["level-search", str(slt)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("plan", ['{"cells": 3}', "[]", UNKNOWN_KEY_PLAN],
                             ids=["no-s-key", "list", "unknown-cell-key"])
    def test_malformed_plan(self, tmp_path, capsys, plan):
        inst, d, _ = passage_witness()
        sge = write_instance(tmp_path, inst)
        sgd = tmp_path / "w.sgd"
        sgd.write_text(dump_drawing(d))
        pln = tmp_path / "w.plan"
        pln.write_text(plan)
        assert main(["analyze", sge, str(pln), str(sgd)]) == 2
        self.assert_one_error_line(capsys)

    def test_analyze_drawing_misses_a_vertex(self, tmp_path, capsys):
        # the channel witness with its root drawn under the id 11, so the
        # channel's root-leaf paths cannot be drawn
        files = dict(SCENARIOS["channels"][1])
        files["sgd"] = files["sgd"].replace("\n0 ", "\n11 ", 1)
        paths = []
        for k in ("sge", "plan", "sgd"):
            paths.append(str(tmp_path / f"w.{k}"))
            (tmp_path / f"w.{k}").write_text(files[k])
        assert main(["analyze", *paths]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv, files", [
        (["check", "{sge}", "{sgd}"],
         {"sge": CLEAN_SGE + "tree - 0 0\n", "sgd": CLEAN_SGD}),
        (["check", "{sge}", "{sgd}"],
         {"sge": CLEAN_SGE + "path 1 0 2\n", "sgd": CLEAN_SGD}),
        (["check", "{sge}", "{sgd}"],
         {"sge": CLEAN_SGE + "roles ROO\nroles ROO\n", "sgd": CLEAN_SGD}),
        (["check", "{sge}", "{sgd}"],
         {"sge": CLEAN_SGE, "sgd": "sgd 1 3\n0 0 0\n1 1 0\n1 2 0\n2 0 1\n"}),
        (["level-search", "{slt}"],
         {"slt": "slt 1 2 2\ntree - 0\nphi 1 2\nphi 1 2\n"}),
        (["check", "{sge}", "{sgd}"],
         {"sge": CLEAN_SGE.replace("sge 1 3", "sge 1 3 3"), "sgd": CLEAN_SGD}),
        (["analyze", "{sge}", "{plan}", "{sgd}"],
         dict(WITNESS_FILES, plan=WITNESS_FILES["plan"].replace(
             '{"s":', '{"s":2,"s":', 1))),
    ], ids=["sge-tree", "sge-path", "sge-roles", "sgd-vertex", "slt-phi",
            "sge-header-field", "plan-s-key"])
    def test_repeated_record(self, tmp_path, capsys, argv, files):
        # each document is valid but for one repeated record, key or
        # header field
        paths = {}
        for k, doc in files.items():
            paths[k] = str(tmp_path / f"doc.{k}")
            Path(paths[k]).write_text(doc)
        assert main([a.format(**paths) for a in argv]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("cmd, flag, value", [
        ("level-search", "--budget", "-1"),
        ("level-search", "--grid", "0"),
        ("search", "--budget", "0"),
        ("search", "--grid", "-2"),
    ])
    def test_non_positive_grid_or_budget(self, tmp_path, capsys, cmd, flag, value):
        if cmd == "search":
            path = write_instance(tmp_path, depth2_instance())
        else:
            path = tmp_path / "r.slt"
            path.write_text("slt 1 2 2\ntree - 0\nphi 1 2\n"
                            "lines 0 1 1\nlines 0 1 2\n")
        with pytest.raises(SystemExit) as e:
            main([cmd, str(path), flag, value])
        assert e.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err


# --- malformed-input fuzzing -------------------------------------------------
#
# Small valid documents of all four formats, each mutated by deleting,
# duplicating or replacing one line or one token.  Whatever the mutation,
# the command must return an exit code, and exit 2 must come with exactly
# one "error:" line on stderr.

def _channel_scenario():
    # the zigzag channel witness with roles, so that analyze also computes
    # channels, cuts and connections, and a plan whose one EF owns a cell
    _, d = zigzag_witness()
    roles = [Role.Root, Role.Joint, Role.Joint, Role.Joint] + [Role.Other] * 7
    tree = RootedTree.from_parent(CHAIN_PARENT, roles)
    plan = SequencePlan(2, cells=[CellLayout(joint=2, index=0, head_1vertex=10)],
                        formations=[{"joints": [1, 2, 3, 3], "cells": [0]}],
                        efs=[{"tuples": [], "formations": [0], "defects": []}])
    return {"sge": dump_instance(Instance(tree, PathGraph.of(CHAIN_ORDER))),
            "plan": plan.to_json(), "sgd": dump_drawing(d)}


def _passage_scenario():
    inst, d, plan = passage_witness()
    return {"sge": dump_instance(inst), "plan": plan.to_json(),
            "sgd": dump_drawing(d)}


_GADGET_LEVELS = LevelTree.of(RootedTree.from_parent(GADGET_PARENT),
                              (1, 2, 2, 2, 1, 1, 1, 1, 3, 4))
_LEVEL_ARGS = ["level-search", "{slt}", "--grid", "5", "--budget", "300"]
SCENARIOS = {
    "check": (["check", "{sge}", "{sgd}"],
              {"sge": "sge 1 4\ntree - 0 0 1\npath 3 1 0 2\nroles RJJO\n",
               "sgd": "sgd 1 4\n0 0 0\n1 1 1/2\n2 2 0\n3 -1 3\n"}),
    "passages": (["analyze", "{sge}", "{plan}", "{sgd}"], _passage_scenario()),
    "channels": (["analyze", "{sge}", "{plan}", "{sgd}"], _channel_scenario()),
    "levels": (_LEVEL_ARGS, {"slt": dump_level_tree(_GADGET_LEVELS)}),
    "regions": (_LEVEL_ARGS, {"slt": dump_level_tree(
        _GADGET_LEVELS, RegionSystem.horizontal([0, 1, 2, 3]))}),
}
FILLERS = ("x", "1/0", "-", "-1", str(10 ** 30))
JSON_FILLERS = FILLERS + ('"x"', "null", "[]", "{}")
JSON_TOKEN = re.compile(r'"[^"]*"|[][{}:,]|[^][{}:,"\s]+')


def _mutated(draw, units: list, fillers) -> list:
    i = draw(st.integers(0, len(units) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if op == "delete":
        return units[:i] + units[i + 1:]
    if op == "duplicate":
        return units[:i + 1] + units[i:]
    return units[:i] + [draw(st.sampled_from(fillers))] + units[i + 1:]


@st.composite
def malformed(draw):
    """(scenario, file key, mutated text): one file of one scenario with
    one line or one token deleted, duplicated or replaced."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    files = SCENARIOS[name][1]
    key = draw(st.sampled_from(sorted(files)))
    if key == "plan":
        return name, key, "".join(
            _mutated(draw, JSON_TOKEN.findall(files[key]), JSON_FILLERS))
    lines = files[key].splitlines()
    if draw(st.booleans()):
        return name, key, "\n".join(_mutated(draw, lines, FILLERS)) + "\n"
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = " ".join(_mutated(draw, lines[i].split(), FILLERS))
    return name, key, "\n".join(lines) + "\n"


class TestMalformedInputFuzz:
    @settings(max_examples=600)
    @example(case=("regions", "slt", "slt 1 2 2\ntree - 0\nphi 1 2\nlines 0 1 0\n"))
    @example(case=("passages", "plan", '{"cells": 3}'))
    @example(case=("passages", "plan", "[]"))
    @example(case=("passages", "plan", UNKNOWN_KEY_PLAN))
    @given(case=malformed())
    def test_exit_code_and_one_error_line(self, case):
        name, key, text = case
        argv, files = SCENARIOS[name]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for k, doc in files.items():
                paths[k] = str(Path(tmp) / f"doc.{k}")
                Path(paths[k]).write_text(text if k == key else doc)
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([a.format(**paths) for a in argv])
        assert isinstance(code, int)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


class TestSearchStats:
    def test_every_placement_record_counts_its_cuts(self, tmp_path, capsys):
        sge = write_instance(tmp_path, depth2_instance())
        lt = LevelTree.of(RootedTree.from_parent([None, 0, 0]), (1, 2, 2))
        slt, rslt = tmp_path / "l.slt", tmp_path / "r.slt"
        slt.write_text(dump_level_tree(lt))
        rslt.write_text(dump_level_tree(lt, RegionSystem.horizontal([0, 1])))
        planarity._shared.cache_clear()
        for argv in (["search", sge, "--grid", "3"],
                     ["level-search", str(slt), "--method", "grid"],
                     ["level-search", str(rslt), "--grid", "3"]):
            metas = []
            for _ in range(2):
                assert main(argv + ["--format", "records"]) == 0
                # the record is the first line; search then prints its drawing
                out = capsys.readouterr().out.splitlines()[0]
                metas.append(json.loads(out)["metadata"])
            for meta in metas:
                for key in ("square_symmetries", "sibling_cuts",
                            "masks_filled", "masks_reused"):
                    assert type(meta[key]) is int, (argv, key)
            # every mask lookup is a fill or a reuse, whatever the memo
            # held; a search on one shared list leaves its masks for the next
            looks = [m["masks_filled"] + m["masks_reused"] for m in metas]
            assert looks[0] == looks[1] > 0, argv
            if argv[0] == "search":
                assert metas[0]["masks_filled"] > 0 == metas[1]["masks_filled"]


class TestDeepInput:
    def test_deep_path_is_found(self, tmp_path, capsys):
        # a 3,000-level path: every tree walk is a loop, so no depth cap
        n = 3000
        slt = tmp_path / "deep.slt"
        slt.write_text(f"slt 1 {n} {n}\n"
                       "tree - " + " ".join(map(str, range(n - 1))) + "\n"
                       "phi " + " ".join(map(str, range(1, n + 1))) + "\n")
        for method in ("auto", "combinatorial"):
            argv = ["level-search", str(slt), "--grid", str(n), "--method", method]
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith("Found")
        lt, _ = load_level_tree(slt.read_text())
        res = search_level_planar(lt, n)
        assert check_level_drawing(lt, res.drawing).planar
