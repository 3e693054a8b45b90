import ast
import dataclasses
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import rtrees


def test_all_lists_public_objects_not_modules():
    assert len(set(rtrees.__all__)) == len(rtrees.__all__)
    for name in rtrees.__all__:
        obj = getattr(rtrees, name)
        assert not isinstance(obj, types.ModuleType), name


# the public API, sorted: a new public name is added here on purpose, not by accident
PUBLIC_NAMES = """
    CertifiedValue ContextMismatchError EdgePoint FormulaSyntaxError FourPointViolation
    FourPointWitness GeneratorConfig GlueSpec InconsistentDescriptorError
    IndependenceQuery IndependenceVerdict MalformedSpecError Materialization
    MetricMatrix NTypeDescriptor NotIsometricError OneTypeDescriptor PointRef
    RadiusExceededError Rat RtAxiomsReport SkeletonError SpannedSubtree StepFunction
    SubtreeMap TreeSkeleton UnknownPointError ValidationReport Vertex amalgamate
    apply_context_isometry as_rat au_distance au_sample_ball branch_degree_multiset
    build_primitive canonical_base canonicalize caterpillar check_rt_axioms
    combined_matrix dcl_acl degree_family_tree delta_hyperbolicity dist_to_center_ball
    distance endpoints eval_qf eval_quantified extend_nonforking format_point format_rat
    four_point_check free_vars glue_family gromov_product interpolate is_between
    is_nonforking_extension is_principal is_star_independent k_star lipschitz_bound
    materialize median normalize_point one_type_distance parse_formula
    piecewise_segment_check point_on_edge point_on_segment project_to_subtree psi_at
    psi_grid_oracle random_point random_tree rb_deficiency rb_extend realize_tree
    realize_type restrict_descriptor same_context segment spanned_subtree star_amalgam
    transfer_point tree_to_matrix tripod type_distance_exact type_distance_search
    type_of types_equal types_equal_transferred validate validate_descriptor
""".split()


def test_public_names_are_pinned():
    assert sorted(rtrees.__all__) == PUBLIC_NAMES


def test_every_public_dataclass_is_frozen():
    # public values are immutable after construction, so a check or a cache
    # made on one cannot go stale
    mutable = [
        name for name in rtrees.__all__
        if isinstance(obj := getattr(rtrees, name), type)
        and dataclasses.is_dataclass(obj)
        and not obj.__dataclass_params__.frozen
    ]
    assert mutable == []


def test_package_imports_only_the_standard_library():
    paths = sorted(Path(rtrees.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_modules_use_every_name_they_import():
    paths = sorted(Path(rtrees.__file__).parent.glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":  # imports there are the public API
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name


def _module_level_names(stmt):
    """The names a top-level statement defines (imports only refer)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_every_private_module_name_is_used():
    # a private helper that nothing in the package refers to, outside its
    # own definition, is dead code
    defined, used = {}, set()
    for path in sorted(Path(rtrees.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = {
                name for name in _module_level_names(stmt)
                if name.startswith("_") and not name.endswith("__")
            }
            defined.update((name, path.name) for name in own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs = {node.id}
                elif isinstance(node, ast.Attribute):
                    refs = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    refs = {alias.name for alias in node.names}
                else:
                    continue
                used |= refs - own
    assert defined
    assert sorted(f"{module}:{name}" for name, module in defined.items() if name not in used) == []


def test_every_private_class_method_is_used():
    # a method of a module-level private class that nothing in the package
    # reaches as an attribute, outside its own definition, is dead code
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(rtrees.__file__).parent.glob("*.py"))
    }
    refs: dict[str, set[int]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
    methods = [
        (module, cls.name, fn)
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]
    assert {cls for _, cls, _ in methods} >= {"_TreeBuilder", "_Parser"}
    unused = [
        f"{module}:{cls}.{fn.name}"
        for module, cls, fn in methods
        if not refs.get(fn.name, set()) - {id(node) for node in ast.walk(fn)}
    ]
    assert unused == []


def _own_nodes(fn):
    """The nodes of a function's body, outside the functions, lambdas and
    classes nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_local_is_read():
    # a name a function assigns and nothing in it, or in a function nested
    # in it, reads is a dead local; a leading "_" marks one unpacked on purpose
    dead = []
    for path in sorted(Path(rtrees.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared = {
                name for node in _own_nodes(fn)
                if isinstance(node, (ast.Nonlocal, ast.Global)) for name in node.names
            }
            assigned = {
                node.id for node in _own_nodes(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            read = {
                node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            dead += [
                f"{path.name}:{fn.name}:{name}"
                for name in sorted(assigned - read - declared)
                if not name.startswith("_")
            ]
    assert dead == []


_CONNECTIVES = {"Add", "TruncSub", "Max", "Min", "AbsDiff"}


def _branches_on_connectives(node) -> bool:
    """Whether ``node`` is an ``isinstance`` call or a comparison that names
    a binary connective class of ``rtrees.formulas``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        named = node.args[1:]
    elif isinstance(node, ast.Compare):
        named = [node.left, *node.comparators]
    else:
        return False
    return any(
        isinstance(n, ast.Name) and n.id in _CONNECTIVES for arg in named for n in ast.walk(arg)
    )


def test_only_the_formula_fold_branches_on_the_connectives():
    # formulas._fold is the one walk of the formula tree; a second function
    # with its own test of the connective classes regrows a walker
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split(':')[0]}:{node.name}"
        if _branches_on_connectives(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(rtrees.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.name}:<module>")
    assert found == {"formulas.py:_fold"}


def test_the_psi_layer_reads_directions_only_off_the_table():
    # one owner of directions in the psi layer: deficiency.py reads them off
    # the skeleton's direction table, not off neighbors() or the reach table,
    # whose order and units it would have to settle again
    path = Path(rtrees.__file__).parent / "deficiency.py"
    called = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    assert "_directions" in called
    assert not called & {"neighbors", "_reach_num", "reaches_at", "directional_reach"}


def test_gromov_products_and_medians_read_no_distances():
    # gromov_product, median and is_between read their three points once,
    # through geometry._three, and interpolate its two through one _meet; a
    # distance or point_on_segment call in one of them reads them again
    path = Path(rtrees.__file__).parent / "geometry.py"
    called = {}
    for fn in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(fn, ast.FunctionDef):
            called[fn.name] = {
                getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)
            }
    for name in ("gromov_product", "median", "is_between"):
        assert "_three" in called[name], name
    assert "_meet" in called["interpolate"]
    for name in ("gromov_product", "median", "is_between", "interpolate"):
        assert not called[name] & {"distance", "point_on_segment"}, name


_ROOTED_CALLS = {"_search", "_root_data", "_spanning_data"}


def test_only_the_search_and_the_walk_read_the_ancestor_index():
    # the rooted data's third field is the ancestor index (depth, jump):
    # skeleton._search builds it and skeleton._common_ancestor reads it, so
    # the choice between the parent walk and the jump walk has one owner;
    # any other function may only bind it to a name that it passes to that
    # walk or packs again as the third field of a tuple
    owners = {"skeleton.py:_search", "skeleton.py:_common_ancestor"}
    found, passing = set(), set()
    for path in sorted(Path(rtrees.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))

        def rooted_call(node):
            return isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _ROOTED_CALLS

        # names bound to the whole rooted data, as deficiency.py's ``root``
        held = {
            t.id for node in ast.walk(module) if isinstance(node, ast.Assign) and rooted_call(node.value)
            for t in node.targets if isinstance(t, ast.Name)
        }

        def rooted(node):
            return rooted_call(node) or isinstance(node, ast.Name) and node.id in held

        for fn in ast.walk(module):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.name}:{fn.name}"
            if where in owners:
                continue
            bound, handed = set(), set()
            for node in _own_nodes(fn):
                if any(getattr(node, key, None) == "jump" for key in ("id", "attr", "arg")):
                    found.add(where)
                if isinstance(node, ast.Subscript) and rooted(node.value):
                    index = node.slice
                    if not (isinstance(index, ast.Constant) and type(index.value) is int
                            and index.value >= 0 and index.value != 2):
                        found.add(where)
                if isinstance(node, ast.Assign) and rooted(node.value):
                    for target in node.targets:
                        if not isinstance(target, ast.Tuple):
                            continue
                        head = target.elts[:3]
                        if len(head) < 3 or not all(isinstance(e, ast.Name) for e in head):
                            found.add(where)
                        elif not head[2].id.startswith("_"):
                            bound.add(head[2].id)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_common_ancestor":
                    handed.update(id(arg) for arg in node.args[1:2])
                if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load) and len(node.elts) > 2:
                    handed.add(id(node.elts[2]))
            for node in _own_nodes(fn):
                if (isinstance(node, ast.Name) and node.id in bound
                        and isinstance(node.ctx, ast.Load) and id(node) not in handed):
                    found.add(where)
            if bound:
                passing.add(where)
    assert found == set()
    assert passing == {
        "skeleton.py:_root_data", "skeleton.py:vertex_distance", "skeleton.py:_meet",
        "geometry.py:_three", "geometry.py:_span_top",
    }


def test_a_failing_property_leaves_the_rest_of_the_run_reported(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # the suite's warnings-as-errors setting that must not stop the run
    pytest.importorskip("hypothesis")
    (tmp_path / "test_one.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "PASSED test_one.py::test_passes" in run.stdout
    assert "FAILED test_one.py::test_fails" in run.stdout
