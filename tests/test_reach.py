"""The library is what the command line reaches: a guard that only shrinks.

A static closure over ``src/flowmaplab``, by name. Every top-level
definition of ``cli.py`` is reached. A reached definition reaches every
top-level definition (function, class or assigned name, in any module)
whose name appears in it as a ``Name`` or as an ``Attribute``; imports do
not count. The closure is name-based and therefore approximate: a method or
attribute of the same name anywhere in reached code keeps a top-level
definition alive, and a name used only through ``getattr`` is missed.

``UNREACHED`` lists what the closure leaves out, each entry with the
ROADMAP item that will grade or delete it, or the reason it stays. A change
that adds an unreached name must add it here; a change that grades or
deletes one must drop it. Run this file as a script to print the unreached
names with their line counts, then the unread members.

Members are held the same way. A method or class-body field of any class
the package defines, reached or not (dunder names left out), is read when
some module of the package names it as an ``Attribute``, as a call's
keyword or as an exact string constant; ``UNREAD_MEMBERS`` lists the rest.
The rule is name-based too: a same-named attribute, keyword or string
anywhere in the package keeps a member alive, and a read in tests or demos
does not count.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowmaplab"

_ITEM_7 = "item 7: one of Hankel's vortex theorems, a check on the 3-D abc flow or deleted"
_ITEM_10 = "item 10: becomes a graded check, or leaves src with its tests"
_ITEM_11 = ("item 11: the whole-grid Biot-Savart round trip decides whether it becomes a "
            "check or stays as the biot_savart benchmark's kernel")
_CRITERION_4 = "stays: acceptance criterion 4 calls it; item 10 may make it a graded check"
_CRITERION_6 = "stays: acceptance criterion 6 calls it; item 10 makes it a graded check"
_CRITERION_7 = ("stays: acceptance criterion 7 calls it; item 11 decides whether it also "
                "becomes a check")

UNREACHED = {
    "biotsavart.COMPACT_TOL": _ITEM_11,
    "biotsavart.MIN_DISTANCE_CELLS": _ITEM_11,
    "biotsavart.TILE": _ITEM_11,
    "biotsavart.VorticitySource": _CRITERION_7,
    "biotsavart._carrying": _ITEM_11,
    "biotsavart._carrying_mask": _ITEM_11,
    "biotsavart._divergence_linf": _ITEM_11,
    "biotsavart._source_blocks": _ITEM_11,
    "biotsavart._support_r2min": _ITEM_11,
    "biotsavart._sweep": _ITEM_11,
    "biotsavart._uses_helper": _ITEM_11,
    "biotsavart.gaussian_swirl_blob": _CRITERION_7,
    "biotsavart.velocity_from_vorticity": _CRITERION_7,
    "cauchy.eulerian_vorticity": _ITEM_7,
    "cauchy.vortex_line_function_residual": _ITEM_7,
    "circulation.label_circulation": _ITEM_10,
    "circulation.tube_section_flux": _ITEM_7,
    "clebsch._cut_exclusion_mask": _ITEM_10,
    "clebsch._grid_points": _ITEM_10,
    "clebsch.clebsch_advection_residual": _CRITERION_6,
    "clebsch.clebsch_vorticity_residual": _CRITERION_6,
    "clebsch.incompressibility_residual": _ITEM_10,
    "clebsch.potential_flow_checks": _CRITERION_6,
    "curvilinear.Chart": _ITEM_10,
    "curvilinear.MetricCoefficients": _ITEM_10,
    "curvilinear.SINGULAR_MARGIN": _ITEM_10,
    "curvilinear._chart_jacobian": _ITEM_10,
    "curvilinear._chart_momentum": _ITEM_10,
    "curvilinear._metric_partials": _ITEM_10,
    "curvilinear._trajectory_chart_rates": _ITEM_10,
    "curvilinear.cartesian_chart": _ITEM_10,
    "curvilinear.chart_metrics": _CRITERION_4,
    "curvilinear.curvilinear_density_residual": _ITEM_10,
    "curvilinear.curvilinear_eom_residual": _CRITERION_4,
    "curvilinear.curvilinear_lagrangian_eom_residual": _ITEM_10,
    "curvilinear.cylindrical_chart": _CRITERION_4,
    "curvilinear.elliptical_chart": _CRITERION_4,
    "curvilinear.polar_chart": _CRITERION_4,
    "curvilinear.skewed_chart": _ITEM_10,
    "curvilinear.svanberg_invariant": _CRITERION_4,
    "dynamics.chain_rule_mismatch": "stays: acceptance criterion 3 grades it",
    "dynamics.eulerian_eom_residual": _ITEM_10,
    "dynamics.eulerian_residual_at_points": _ITEM_10,
    "energy.EnergyLedger": _ITEM_10,
    "energy.HELMHOLTZ_TOL": _ITEM_10,
    "energy._boundary_flux": _ITEM_10,
    "energy._box_faces": _ITEM_10,
    "energy.boundary_energy_identity": ("stays: acceptance criterion 8 calls it; item 10 "
                                        "may make it a graded check"),
    "energy.energy_flux_residual": _ITEM_10,
    "energy.momentum_integral": _ITEM_10,
    "flowmap.mass_integral_transform": _ITEM_10,
    "grids.TIME_STEP": _ITEM_10,
    "grids.gradient": ("stays: the public label gradient; the checks reach its slab form, "
                       "grids._slab_gradient, and the modules of items 7 and 10 call it"),
}


UNREAD_MEMBERS = {
    "circulation.MaterialLoop.reversed": "stays: tests build reversed loops with it",
    "circulation.MaterialSurface.boundary_loop": "stays: tests build spanning surfaces' loops",
    "circulation.MaterialSurface.rectangle": "stays: tests and the energy demo build boxes of it",
    "dynamics.ForcePotential.omega_at": ("item 10: energy.flux_balance would read it; tests "
                                         "read the catalog's Omega"),
    "energy.EnergyLedger.K": _ITEM_10,
    "flowmap.SampledFlowMap.error_floor": "item 1: a row records its sampled map's error floor",
}


def _modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _defined(body):
    """(name, node) of each name a module or class body defines; dunder
    names (``__all__``, ``__post_init__``) are left out."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def top_level_definitions():
    """{name: [(module, node), ...]} over every module of the package."""
    defs = {}
    for stem, tree in _modules():
        for name, node in _defined(tree.body):
            defs.setdefault(name, []).append((stem, node))
    return defs


def unread_members():
    """{"module.Class.member"} of the class members no module of the package reads."""
    trees = _modules()
    read = set()
    for _, tree in trees:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.keyword):
                read.add(sub.arg)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.add(sub.value)
    return {f"{stem}.{cls.name}.{name}" for stem, tree in trees
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name, _ in _defined(cls.body) if name not in read}


def unreached():
    """{"module.name": line count} of the definitions no path from cli.py reaches."""
    defs = top_level_definitions()
    todo = ast.parse((SRC / "cli.py").read_text()).body
    reached = {f"cli.{name}" for name, found in defs.items() for mod, _ in found if mod == "cli"}
    visited = set()
    while todo:
        node = todo.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            for mod, d in defs.get(name, ()):
                reached.add(f"{mod}.{name}")
                todo.append(d)
    return {f"{mod}.{name}": d.end_lineno - d.lineno + 1
            for name, found in defs.items() for mod, d in found
            if f"{mod}.{name}" not in reached}


def test_unreached_names_are_the_table():
    found = set(unreached())
    assert found - set(UNREACHED) == set(), "unreached from cli.py and not in UNREACHED"
    assert set(UNREACHED) - found == set(), "in UNREACHED but reached or deleted"


def test_unread_members_are_the_table():
    found = unread_members()
    assert found - set(UNREAD_MEMBERS) == set(), "read nowhere in src and not in UNREAD_MEMBERS"
    assert set(UNREAD_MEMBERS) - found == set(), "in UNREAD_MEMBERS but read or deleted"


def test_every_entry_names_an_item_or_a_reason():
    reasons = list(UNREACHED.values()) + list(UNREAD_MEMBERS.values())
    assert all(why.startswith(("item ", "stays: ")) for why in reasons)


def criterion_calls():
    """{N: the names called in test_criterion_N of tests/test_acceptance.py},
    as a Name or as an Attribute."""
    tree = ast.parse((Path(__file__).resolve().parent / "test_acceptance.py").read_text())
    calls = {}
    for fn in tree.body:
        num = re.fullmatch(r"test_criterion_(\d+)_\w+", getattr(fn, "name", ""))
        if num:
            calls[int(num[1])] = {sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
                                  for sub in ast.walk(fn) if isinstance(sub, ast.Call)
                                  and isinstance(sub.func, (ast.Name, ast.Attribute))}
    return calls


def test_acceptance_entries_name_their_criterion():
    # an entry a criterion calls directly stays for that criterion, and its
    # reason names it: "stays: acceptance criterion N"
    calls = criterion_calls()
    named = {entry: int(num[1]) for entry, why in UNREACHED.items()
             if (num := re.match(r"stays: acceptance criterion (\d+)\b", why))}
    wrong = {entry: num for entry, num in named.items()
             if entry.rsplit(".", 1)[1] not in calls.get(num, ())}
    assert wrong == {}, "not called in the criterion its reason names"
    called = {entry for entry in UNREACHED
              if any(entry.rsplit(".", 1)[1] in names for names in calls.values())}
    assert sorted(called - set(named)) == [], "called by a criterion that its reason does not name"


if __name__ == "__main__":
    lines = unreached()
    for name in sorted(lines):
        print(f"{lines[name]:5d}  {name}")
    for name in sorted(unread_members()):
        print(f"member {name}")
    print(f"{sum(lines.values())} lines in {len(lines)} unreached definitions")
