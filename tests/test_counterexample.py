import hashlib
import itertools
import json
import tracemalloc
from dataclasses import asdict
from functools import cache

import pytest

from simembed.counterexample import (
    CapExceeded,
    CounterexampleParams,
    InvalidParams,
    PaperParameters,
    SequencePlan,
    SizeReport,
    X_CAP,
    Y_CAP,
    build_instance,
    compute_paper_parameters,
    size_report,
    validate_structure,
)
from simembed.model import (FormatError, PathGraph, Instance, Role,
                            RootedTree, dump_instance, load_instance,
                            validate_instance)


def reduced(s, x, **kw):
    base = dict(s=s, x=x, y=2 * x if x > 1 else 2, formation_reps=2,
                formation_outer=1, sef_tuple=2, sef_efs=2, sef_reps=4,
                cap=500_000)
    base.update(kw)
    return CounterexampleParams(**base)


LATTICE = [(2, 1), (2, 2), (3, 1), (3, 2)]
# all five repetition counts at 1: the SEF skips its one tuple, so no
# cell is visited
ALL_ONES = [(2, 1, 1), (3, 1, 1), (2, 2, 2), (4, 1, 1)]


@cache
def built(s, x):
    """build_instance(reduced(s, x)); callers must not mutate the plan."""
    return build_instance(reduced(s, x))


def visited_cells(plan):
    """The plan's cells in visit order: SEF -> EF -> formation -> cell."""
    return [plan.cells[c] for e in plan.sef["efs"]
            for f in plan.efs[e]["formations"]
            for c in plan.formations[f]["cells"]]


def rethread(inst, plan):
    """inst with its path re-threaded through the plan's visited cells;
    the vertices after them keep their order."""
    prefix = [v for c in visited_cells(plan) for v in c.path_order()]
    seen = set(prefix)
    rest = [v for v in inst.path.order if v not in seen]
    return Instance(inst.tree, PathGraph.of(prefix + rest), True)


class TestParams:
    def test_rejects_small_s(self):
        with pytest.raises(InvalidParams):
            reduced(1, 1).validate()

    def test_rejects_y_not_divisible(self):
        with pytest.raises(InvalidParams):
            reduced(2, 2, y=3).validate()

    def test_rejects_sef_reps_not_multiple_of_tuple(self):
        with pytest.raises(InvalidParams):
            reduced(2, 1, sef_reps=5).validate()

    def test_joint_count(self):
        assert reduced(2, 1).joint_count() == 8
        assert reduced(2, 2).joint_count() == 16

    def test_efs_needed_matches_schedule(self):
        # every tuple is skipped sef_reps/sef_tuple times
        p = reduced(2, 1)
        assert p.efs_needed_per_tuple() == 2
        full = CounterexampleParams(s=2, x=2, y=2)
        assert full.efs_needed_per_tuple() == 110  # 120 - 120/12


class TestPaperParameters:
    def test_y_formula_small(self):
        # independent oracle: C(386, 3) = 386*385*384/6
        assert compute_paper_parameters(1).y == 386 * 385 * 384 // 6
        assert compute_paper_parameters(1).y == 9_511_040

    def test_r_formula(self):
        assert compute_paper_parameters(1).r == 384
        assert compute_paper_parameters(5).r == 1920

    def test_x1_degenerate(self):
        p = compute_paper_parameters(1)
        assert p.degenerate and p.s == 0

    def test_x2_consistency(self):
        p = compute_paper_parameters(2)
        assert p.y == 770 * 769 * 768 // 6
        assert p.s == (p.y - p.y // 2) * 148
        assert not p.degenerate

    def test_caps(self):
        assert X_CAP == 7 * 9 * 2**23
        assert Y_CAP == 49 * 27 * 2**26

    def test_big_x_exact(self):
        # near the cap the values stay exact big integers
        p = compute_paper_parameters(X_CAP)
        r = 384 * X_CAP
        assert p.y == (r + 2) * (r + 1) * r // 6
        assert p.l == (p.s - 1) ** 4 * 9 * X_CAP

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            compute_paper_parameters(0)


class TestSymbolicMode:
    def test_formation_cell_counts_at_paper_constants(self):
        p = CounterexampleParams(s=2, x=1, y=2)
        rep = size_report(p)
        assert isinstance(rep, SizeReport)
        assert rep.cells_per_formation == 592
        assert rep.cells_per_formation_per_joint == 148

    def test_cell_count_formulas(self):
        p = CounterexampleParams(s=3, x=2, y=2)
        rep = size_report(p)
        assert rep.cell_head_counts == (1, 6, 6)
        assert rep.cell_tail_counts == (12, 72, 72)
        assert rep.cell_stabilizers == 144


class TestDeskBuild:
    @pytest.mark.parametrize("s,x", LATTICE)
    def test_instance_and_structure_valid(self, s, x):
        inst, plan = build_instance(reduced(s, x))
        assert validate_instance(inst).valid
        assert validate_structure(inst, reduced(s, x), plan).valid

    @pytest.mark.parametrize("s,x", LATTICE)
    def test_depth_exactly_four(self, s, x):
        inst, _ = build_instance(reduced(s, x))
        assert max(inst.tree.depth) == 4

    @pytest.mark.parametrize("s,x", LATTICE)
    def test_edge_disjoint(self, s, x):
        inst, _ = build_instance(reduced(s, x))
        tree = {frozenset(e) for e in inst.tree.edges()}
        path = {frozenset(e) for e in inst.path.edges()}
        assert not tree & path

    def test_cell_counts_derived_from_path(self):
        p = reduced(3, 1)
        inst, plan = build_instance(p)
        cells = visited_cells(plan)
        assert len(cells) == p.joint_count() * p.cells_needed_per_joint()
        prefix = [v for c in cells for v in c.path_order()]
        assert list(inst.path.order[:len(prefix)]) == prefix
        assert inst.path.order[len(prefix)] == inst.tree.root
        for c in cells:
            assert (1, len(c.head_2vertices), len(c.head_3vertices)) == (1, 6, 6)
            assert (len(c.tail_1vertices), len(c.tail_2vertices),
                    len(c.tail_3vertices)) == (12, 72, 72)
            assert len(c.stabilizers) == 144

    @pytest.mark.parametrize("p", [reduced(s, x) for s, x in LATTICE] + [
        reduced(2, 1, sef_tuple=4, sef_reps=4, sef_efs=2, double_defects=True),
        reduced(3, 1, formation_reps=1),
        # one EF tuple: a double defect skips that one tuple, not two
        reduced(2, 1, sef_tuple=1, sef_reps=2, sef_efs=1, double_defects=True)])
    def test_size_report_counts_the_built_vertices(self, p):
        # the cap check reads size_report's count before building
        assert size_report(p).vertices_total == build_instance(p)[0].tree.n

    def test_schedules_by_hand(self):
        # reduced(2, 2): y = 4 repetitions over x = 2 tuples, defect k mod 2
        # with 0 read as 2; 4 SEF repetitions over 2 EF tuples likewise
        _, plan = built(2, 2)
        assert all(ef["defects"] == [1, 2, 1, 2] for ef in plan.efs)
        assert plan.sef["defects"] == [[1], [2], [1], [2]]

    @pytest.mark.parametrize("s,x,y", ALL_ONES)
    def test_zero_visited_cells_valid(self, s, x, y):
        p = CounterexampleParams(s=s, x=x, y=y, formation_reps=1,
                                 formation_outer=1, sef_tuple=1, sef_efs=1,
                                 sef_reps=1)
        inst, plan = build_instance(p)
        assert visited_cells(plan) == []
        assert validate_instance(inst).valid
        assert validate_structure(inst, p, plan).valid

    def test_deterministic(self):
        a, pa = build_instance(reduced(2, 2))
        b, pb = build_instance(reduced(2, 2))
        assert a.tree == b.tree and a.path == b.path
        assert pa.to_json() == pb.to_json()

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            build_instance(reduced(3, 2, cap=1000))

    def test_double_defects(self):
        p = reduced(2, 1, sef_tuple=4, sef_reps=4, sef_efs=2,
                    double_defects=True)
        inst, plan = build_instance(p)
        assert validate_instance(inst).valid
        assert all(len(d) == 2 for d in plan.sef["defects"])
        assert validate_structure(inst, p, plan).valid

    def test_plan_round_trip(self):
        _, plan = build_instance(reduced(2, 1))
        back = SequencePlan.from_json(plan.to_json())
        assert back.to_json() == plan.to_json()
        assert back == plan

    @pytest.mark.parametrize("p", [reduced(2, 1), reduced(3, 1, formation_reps=1)])
    def test_plan_json_matches_asdict_serialization(self, p):
        _, plan = build_instance(p)
        reference = json.dumps({
            "s": plan.params_s, "cells": [asdict(c) for c in plan.cells],
            "formations": plan.formations, "efs": plan.efs, "sef": plan.sef,
        }, indent=None, separators=(",", ":"))
        assert plan.to_json() == reference
        assert SequencePlan.from_json(plan.to_json()) == plan

    def test_largest_desk_pipeline(self):
        # build, dump, load, plan round trip and both validators at the
        # largest desk parameters the benchmark generates
        p = CounterexampleParams(s=3, x=2, y=4, formation_reps=2,
                                 formation_outer=1, sef_tuple=2, sef_efs=2,
                                 sef_reps=4)
        inst, plan = build_instance(p)
        back = load_instance(dump_instance(inst), edge_disjoint_required=True)
        plan_back = SequencePlan.from_json(plan.to_json())
        assert back == inst and plan_back == plan
        assert validate_structure(back, p, plan_back).valid
        assert validate_instance(back).valid
        assert inst.tree.n == 45_297
        assert len(plan.cells) == 144

    def test_output_bytes_pinned(self):
        # every instance and plan byte over a small parameter grid; the
        # digest was taken from the per-vertex builder, so any rewrite of
        # build_instance must reproduce its output exactly
        h = hashlib.sha256()
        for (s, x, y, reps, outer, sef_tuple, sef_efs, sef_reps,
             double) in itertools.product((2, 3), (1, 2), (2, 4), (1, 2),
                                          (1, 2), (1, 2), (1, 2, 3), (2, 4),
                                          (False, True)):
            p = CounterexampleParams(s, x, y, reps, outer, sef_tuple, sef_efs,
                                     sef_reps, double, cap=20_000)
            try:
                inst, plan = build_instance(p)
            except ValueError as e:
                h.update(type(e).__name__.encode())
                continue
            h.update(dump_instance(inst).encode())
            h.update(plan.to_json().encode())
        assert h.hexdigest() == (
            "3904418ca97a4e3f4d86b770b04959d736f24b645beee564eaffc0c796dc0677")

    def test_largest_build_memory(self):
        # tracemalloc counts are deterministic for one Python version; the
        # bounds are the builder's figures on Python 3.11.7 once it marked
        # its completion pool in a bytearray and handed the tree tuples
        # (4,072,006 bytes peak, 3,517,244 held) plus 3%.  A builder that
        # makes a fresh int per parent entry or cell member instead of
        # sharing the vertex ids holds about 20% more.
        p = CounterexampleParams(s=3, x=2, y=4, formation_reps=2,
                                 formation_outer=1, sef_tuple=2, sef_efs=2,
                                 sef_reps=4)
        tracemalloc.start()
        try:
            inst, plan = build_instance(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.tree.n == 45_297 and len(plan.cells) == 144
        assert peak <= 4_072_006 * 1.03
        assert held <= 3_517_244 * 1.03

    def test_largest_load_memory(self):
        # the loader's figures on Python 3.11.7 once it read records a run
        # of tokens at a time and tested the path with a byte mark
        # (3,701,568 bytes peak, 3,339,760 held) plus 3%; the text is made
        # before tracing starts
        inst, _ = build_instance(CounterexampleParams(
            s=3, x=2, y=4, formation_reps=2, formation_outer=1, sef_tuple=2,
            sef_efs=2, sef_reps=4))
        text = dump_instance(inst)
        tracemalloc.start()
        try:
            back = load_instance(text, edge_disjoint_required=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.tree == inst.tree and back.path == inst.path
        assert peak <= 3_701_568 * 1.03
        assert held <= 3_339_760 * 1.03

    def test_largest_round_trip_memory(self):
        # the desk round trip at 45,297 vertices, every result held to the
        # end as the benchmark's generate operation holds it.  On Python
        # 3.11.7 it peaks at 9,426,000 bytes while holding 9,380,506, since
        # no stage makes a temporary the size of the instance.  The bound
        # is that figure plus 3%.
        p = CounterexampleParams(s=3, x=2, y=4, formation_reps=2,
                                 formation_outer=1, sef_tuple=2, sef_efs=2,
                                 sef_reps=4)
        tracemalloc.start()
        try:
            inst, plan = build_instance(p)
            text = dump_instance(inst)
            back = load_instance(text, edge_disjoint_required=True)
            plan_text = plan.to_json()
            plan_back = SequencePlan.from_json(plan_text)
            structure = validate_structure(back, p, plan_back)
            valid = validate_instance(back)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == inst and plan_back == plan
        assert structure.valid and valid.valid
        assert peak <= 9_426_000 * 1.03


class TestValidatorCatchesMutations:
    def test_detects_swapped_cell_members(self):
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        order = list(inst.path.order)
        # swapping a stabilizer with its preceding tail 2-vertex breaks
        # the interleaving pattern
        cell = plan.cells[0]
        i = order.index(cell.stabilizers[0])
        order[i], order[i - 1] = order[i - 1], order[i]
        bad = Instance(inst.tree, PathGraph.of(order), True)
        assert not validate_structure(bad, p, plan).valid

    def test_detects_dropped_stabilizer(self):
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        order = list(inst.path.order)
        cell = plan.cells[0]
        v = cell.stabilizers[-1]
        order.remove(v)
        order.append(v)
        bad = Instance(inst.tree, PathGraph.of(order), True)
        assert not validate_structure(bad, p, plan).valid

    def test_detects_formation_order_break(self):
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        order = list(inst.path.order)
        # swap the opening vertices of the first two cells: the joint
        # sequence no longer matches ((h1 h2 h3)^R1 h4^R1)^R2
        a = plan.cells[plan.formations[0]["cells"][0]].head_1vertex
        b = plan.cells[plan.formations[0]["cells"][1]].head_1vertex
        ia, ib = order.index(a), order.index(b)
        seg_a_end = ia + 1
        # move the whole first cell after the second by rotating the two
        # cell segments
        la = len(plan.cells[plan.formations[0]["cells"][0]].path_order())
        lb = len(plan.cells[plan.formations[0]["cells"][1]].path_order())
        rot = order[ia:ia + la + lb]
        order[ia:ia + la + lb] = rot[la:] + rot[:la]
        bad = Instance(inst.tree, PathGraph.of(order), True)
        assert not validate_structure(bad, p, plan).valid

    def test_detects_swapped_cells_of_a_formation(self):
        # plan and path agree, but the formation's joints now read
        # h2 h1 h3 ... instead of h1 h2 h3 ...
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        cells = plan.formations[0]["cells"]
        cells[0], cells[1] = cells[1], cells[0]
        bad = rethread(inst, plan)
        assert validate_instance(bad).valid
        assert not validate_structure(bad, p, plan).valid

    def test_detects_changed_ef_defect(self):
        p = reduced(2, 2)
        inst, plan = build_instance(p)
        plan.efs[1]["defects"][2] = 2
        assert not validate_structure(rethread(inst, plan), p, plan).valid

    def test_detects_stabilizer_moved_between_cells_of_a_joint(self):
        # formation cells 0 and 3 both sit on h1; the per-joint total stays
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        a, b = (plan.cells[c] for c in plan.formations[0]["cells"][:4:3])
        assert a.joint == b.joint
        v = a.stabilizers.pop()
        b.stabilizers.append(v)
        # the path moves v with it: out of a's run, to the end of b's
        order = [u for u in inst.path.order if u != v]
        order.insert(order.index(b.stabilizers[-2]) + 1, v)
        bad = Instance(inst.tree, PathGraph.of(order), True)
        assert validate_instance(bad).valid
        assert not validate_structure(bad, p, plan).valid


    def test_detects_changed_sef_defect(self):
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        plan.sef["defects"][0] = [2]
        assert not validate_structure(inst, p, plan).valid

    def test_detects_ef_the_sef_never_visits(self):
        # analyze would assign the cells of a spare EF to it
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        plan.efs.append(dict(plan.efs[0]))
        assert not validate_structure(inst, p, plan).valid

    def test_detects_member_of_another_role(self):
        # a cell's 1-vertex and its first stabilizer trade lists, on the
        # plan and on the path: lengths, joints and totals stay
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        c = visited_cells(plan)[0]
        c.head_1vertex, c.stabilizers[0] = c.stabilizers[0], c.head_1vertex
        assert not validate_structure(rethread(inst, plan), p, plan).valid

    def test_detects_member_below_another_joint(self):
        # the 1-vertices of two cells on different joints trade places
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        a, b = visited_cells(plan)[:2]
        assert a.joint != b.joint
        a.head_1vertex, b.head_1vertex = b.head_1vertex, a.head_1vertex
        assert not validate_structure(rethread(inst, plan), p, plan).valid

    def test_detects_extra_stabilizer_on_a_joint(self):
        # relabel the spare 1-vertex of a joint, which no cell holds, as a
        # stabilizer: the joint now carries one stabilizer too many
        p = reduced(2, 1)
        inst, plan = build_instance(p)
        held = {v for c in plan.cells for v in c.path_order()}
        spare = next(v for v, r in enumerate(inst.tree.labels)
                     if r is Role.B1 and v not in held)
        labels = list(inst.tree.labels)
        labels[spare] = Role.Stabilizer
        tree = RootedTree.from_parent(list(inst.tree.parent), labels)
        bad = Instance(tree, inst.path, True)
        assert not validate_structure(bad, p, plan).valid

class TestForeignPlans:
    @pytest.mark.parametrize("pq", [(p, q) for p in LATTICE for q in LATTICE
                                    if p != q], ids=str)
    def test_plan_of_other_parameters_reported(self, pq):
        # instance p with plan q: read against p the plan does not follow
        # the program; read against q it names joints or vertices that
        # instance p lacks, or vertices of other roles
        (p, q) = pq
        inst, _ = built(*p)
        inst_q, plan = built(*q)
        assert not validate_structure(inst, reduced(*p), plan).valid
        rep = validate_structure(inst, reduced(*q), plan)
        assert not rep.valid
        if inst_q.tree.n > inst.tree.n:
            assert any("outside the instance" in v for v in rep.violations)


def _plan_without(path: tuple) -> str:
    """The reduced(2, 1) plan's JSON with the key at path deleted."""
    raw = json.loads(built(2, 1)[1].to_json())
    d = raw
    for k in path[:-1]:
        d = d[k]
    del d[path[-1]]
    return json.dumps(raw)


class TestPlanLoader:
    @pytest.mark.parametrize("path", [
        ("formations", 0, "joints"), ("formations", 0, "cells"),
        ("efs", 0, "tuples"), ("efs", 0, "formations"), ("efs", 0, "defects"),
        ("sef", "tuples"), ("sef", "efs"), ("sef", "defects"),
        ("sef", "double")], ids=str)
    def test_missing_key_rejected(self, path):
        with pytest.raises(FormatError):
            SequencePlan.from_json(_plan_without(path))

    def test_sef_ef_id_out_of_range_rejected(self):
        raw = json.loads(built(2, 1)[1].to_json())
        raw["sef"]["efs"] = [99]
        with pytest.raises(FormatError):
            SequencePlan.from_json(json.dumps(raw))
