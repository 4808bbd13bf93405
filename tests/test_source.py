"""Checks on the library source itself."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import artinmark
from artinmark import errors

# modules whose invariants are still assert statements; python -O strips
# those, so every other module raises domain errors instead
ASSERTS_ALLOWED: set[str] = set()


def source_trees():
    root = Path(artinmark.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))]


def test_no_assert_statements_outside_allowed_modules():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in source_trees()
        if name not in ASSERTS_ALLOWED
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floating_point():
    # exact arithmetic only: no float literal, no math module, no true
    # division (floor division // stays exact)
    found = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{name}:{node.lineno} float constant")
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] in ("math", "cmath") for a in node.names
            ):
                found.append(f"{name}:{node.lineno} math import")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in (
                "math", "cmath"
            ):
                found.append(f"{name}:{node.lineno} math import")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{name}:{node.lineno} true division")
    assert found == []


def test_no_dataclasses():
    # a dataclass generates and compiles its methods when its module runs,
    # on every cold start; value types are NamedTuples or __slots__ classes
    found = [
        f"{name}:{node.lineno}"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # importing the CLI loads only what it runs: no dataclasses, and so not
    # the inspect module that dataclasses imports
    repo = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import artinmark.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_no_unicode_digit_parsing():
    # str.isdigit and a regex \d accept every Unicode digit (a superscript
    # two, an Arabic-Indic three), and int() reads some of them, so such a
    # digit either escaped the CLI as a ValueError or parsed as its ASCII
    # twin; numbers in the input syntax are ASCII 0-9 only, matched as [0-9]
    # (an argparse type=int option is int() on the raw argument)
    found = []
    for name, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") in (
                "isdigit", "isdecimal", "isnumeric"
            ):
                found.append(f"{name}:{node.lineno} {node.func.attr}")
            elif isinstance(node, ast.Call) and any(
                k.arg == "type" and getattr(k.value, "id", "") == "int" for k in node.keywords
            ):
                found.append(f"{name}:{node.lineno} type=int")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "\\d" in node.value
            ):
                found.append(f"{name}:{node.lineno} \\d regex")
    assert found == []


def test_every_raise_names_a_domain_error():
    # the CLI maps ArtinMarkError to exit codes; any other exception escapes
    # it as a traceback, so the library raises domain errors only
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", "<bare>"))

    def is_domain_error(name):
        cls = getattr(errors, name, None)
        return isinstance(cls, type) and issubclass(cls, errors.ArtinMarkError)

    found = [
        f"{name}:{node.lineno} {raised_name(node)}"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and not is_domain_error(raised_name(node))
    ]
    assert found == []


def test_every_domain_error_is_raised_under_src():
    # an error class that no library path raises is dead weight in the
    # hierarchy the CLI maps to exit codes
    raised = {
        getattr(exc, "id", getattr(exc, "attr", None))
        for _name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
    }
    declared = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type)
        and issubclass(cls, errors.ArtinMarkError)
        and cls is not errors.ArtinMarkError
    }
    assert declared - raised == set()


def test_no_catch_all_error_handlers_outside_the_cli():
    # cli.py is the one place where domain errors become exit codes; anywhere
    # else a handler that swallows every domain error hides a fault
    broad = {"ArtinMarkError", "Exception", "BaseException"}

    def names(node):
        if node is None:
            return ["<bare>"]
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return [getattr(node, "id", "")]

    found = [
        f"{name}:{node.lineno}"
        for name, tree in source_trees()
        if name != "cli.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and any(n == "<bare>" or n in broad for n in names(node.type))
    ]
    assert found == []


def test_no_indented_json_dumps():
    # json.dump/json.dumps with indent set runs Python's pure-Python
    # encoder; indented output goes through graph.json_text instead, and any
    # indent argument is flagged, so the check needs no value analysis
    found = [
        f"{name}:{node.lineno}"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", "")) in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert found == []


def test_the_export_is_written_with_no_bytes_round_trip():
    # graph.export_graph yields str pieces and cli writes them to sys.stdout
    # as they come: neither module encodes or decodes text
    found = [
        f"{name}:{node.lineno}"
        for name, tree in source_trees()
        if name in ("cli.py", "graph.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("encode", "decode")
    ]
    assert found == []


def test_commutes_with_only_in_the_framed_adjacency_helper():
    # adjacency has one implementation: z's compared in the first vertex's
    # frame by parabolic.nonadjacent_pair; any other commutes_with is a
    # second path through the long z-products of conjugated vertices
    found = [
        f"{name}:{func.name}"
        for name, tree in source_trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "commutes_with"
    ]
    assert found == ["parabolic.py:nonadjacent_pair"]


def test_member_of_standard_only_in_the_ribbon_peel():
    # a conjugate is recognised as standard by its z-element alone
    # (parabolic._standard_target); membership tests serve only the peel of
    # Delta powers off a ribbon, so any other call is a second path
    found = [
        f"{name}:{func.name}"
        for name, tree in source_trees()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "member_of_standard"
    ]
    assert found == ["ribbons.py:peel_delta_powers"]


# every memo in the library: a dict set to {} on an instance in __init__ or
# __new__, or an lru_cache'd function; a new cache must be listed here
MEMOS = {
    "coxeter.py:RootSystem._elements",
    "coxeter.py:RootSystem._w0",
    "coxeter.py:build_defining_graph",
    "coxeter.py:root_reflection_table",
    "garside.py:GarsideContext._delta_of",
    "garside.py:GarsideContext._slide",
    "garside.py:GarsideContext._tau",
    "garside.py:GarsideContext.delta_involutions",
    "garside.py:GarsideContext.flip_frames",
    "garside.py:GarsideContext.parabolics",
    "garside.py:GarsideContext.simplex_canonical",
    "garside.py:GarsideContext.standardizer_strips",
    "garside.py:GarsideContext.transversal_decompositions",
    "garside.py:GarsideContext.transversal_subsets",
    "garside.py:context",
    "marking.py:FlipFrame._candidates",
    "cli.py:_parser",
    "rings.py:cos_minpoly",
    "rings.py:cyclotomic",
}


def init_assignments():
    """(module:Class.attr, value node) of every attribute assigned in an
    __init__ or __new__ under src/."""
    for name, tree in source_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not (isinstance(func, ast.FunctionDef) and func.name in ("__init__", "__new__")):
                    continue
                for node in ast.walk(func):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target] if isinstance(node, ast.AnnAssign)
                        else []
                    )
                    for t in targets:
                        if isinstance(t, ast.Attribute):
                            yield f"{name}:{cls.name}.{t.attr}", node.value


def test_memo_inventory():
    def is_lru_cache(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", "")) == "lru_cache"

    found = {
        attr
        for attr, value in init_assignments()
        if isinstance(value, ast.Dict) and not value.keys
    }
    for name, tree in source_trees():
        found.update(
            f"{name}:{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and any(map(is_lru_cache, func.decorator_list))
        )
    assert found == MEMOS


# every memo held in a slot on a value: an underscore attribute set to None
# (or to ()) in __init__ or __new__ and filled on first use; a new slot memo
# must be listed here
SLOT_MEMOS = {
    "coxeter.py:CoxeterElement._inverse",
    "coxeter.py:CoxeterElement._length",
    "coxeter.py:CoxeterElement._supp",
    "coxeter.py:CoxeterElement._word",
    "garside.py:ArtinElement._hash",
    "garside.py:GarsideContext._connected_proper",
    "marking.py:Marking._base",
    "marking.py:Marking._cert",
    "marking.py:Marking._key",
    "parabolic.py:ParabolicSubgroup._canonical",
    "parabolic.py:ParabolicSubgroup._key",
    "parabolic.py:ParabolicSubgroup._z",
}


def test_slot_memo_inventory():
    def is_placeholder(value):
        return (isinstance(value, ast.Constant) and value.value is None) or (
            isinstance(value, ast.Tuple) and not value.elts
        )

    found = {
        attr
        for attr, value in init_assignments()
        if attr.rpartition(".")[2].startswith("_") and is_placeholder(value)
    }
    assert found == SLOT_MEMOS


# the public API: artinmark.__all__, the package's submodules included; a
# name added or dropped must be listed or unlisted here
EXPORTS = {
    "ArtinElement", "ArtinMarkError", "ArtinType", "CoxeterElement",
    "CparabSimplex", "DefiningGraph", "ExploredGraph", "GarsideContext",
    "LevelDecomposition", "Marking", "ParabolicSubgroup", "Ribbon", "RootSystem",
    "StandardizedSimplex", "TransversalData",
    "all_standard_markings", "bfs", "build_defining_graph",
    "canonical_positive_standardizer", "central_generator_z", "context",
    "delta_permutation", "elementary_ribbon", "enumerate_flip_moves",
    "enumerate_maximal_standard", "export_graph", "is_flip_edge", "is_twist_edge",
    "longest_element", "marking_stabilizer", "member_of_standard",
    "minimal_standardizer", "neighbors", "normalize", "parse_element", "parse_word",
    "projection", "ribbon_delta_form", "root_reflection_table",
    "simultaneous_standardizer", "standard_conjugate", "standard_marking_connectivity",
    "standard_transversals", "standardize_marking", "transversal_decomposition",
    "twist_move", "validate_marking", "z_exponent",
    "coxeter", "errors", "garside", "graph", "marking", "parabolic", "ribbons",
    "rings", "simplex",
}


def test_export_inventory():
    assert set(artinmark.__all__) == EXPORTS


def test_every_function_under_src_is_named_elsewhere():
    # a function or method that nothing in src/ names outside its own
    # definition, and that bench/ does not name either, has no program
    # caller: it is either dead or test-only, and test helpers live in
    # tests/oracles.py; dunders are called by the language.  A method
    # defined in a class is named only by an attribute reference (.name):
    # a local variable or a function of the same name calls no method
    repo = Path(__file__).resolve().parents[1]
    bench = "\n".join(path.read_text() for path in sorted((repo / "bench").glob("*.py")))

    def names(node) -> tuple[Counter, Counter]:
        """Every name under node, and the attribute references (.name)."""
        named, attributes = Counter(), Counter()
        for part in ast.walk(node):
            if isinstance(part, ast.Name):
                named[part.id] += 1
            elif isinstance(part, ast.alias):
                named[part.name] += 1
            elif isinstance(part, ast.Attribute):
                named[part.attr] += 1
                attributes[part.attr] += 1
        return named, attributes

    trees = source_trees()
    named, attributes = (sum(counts, Counter()) for counts in zip(*(names(t) for _n, t in trees)))
    found = []
    for name, tree in trees:
        classes = {
            id(item): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                func.name.startswith("__") and func.name.endswith("__")
            ):
                continue
            own_named, own_attributes = names(func)
            if id(func) in classes:
                label = f"{name}:{classes[id(func)]}.{func.name}"
                dead = attributes[func.name] <= own_attributes[func.name]
            else:
                label = f"{name}:{func.name}"
                dead = named[func.name] <= own_named[func.name]
            if dead and not re.search(rf"\b{func.name}\b", bench):
                found.append(label)
    assert found == []


def test_no_program_path_enumerates_the_monoid():
    # the stabilizer of a standard marking is <Delta^d>, read off the
    # involution of Delta on its certified subsets
    # (marking.marking_stabilizer); the search over
    # Delta^e w, w in the monoid up to a length, is the tests' oracle
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("positive_elements", "marking_stabilizer_probe")
    ]
    assert found == []


def test_graph_reads_the_frame_off_the_certificate():
    # a marking's frame (ghat, X_i, k_i, Y_i by pair index) is its
    # certificate: graph reads no simplex internals, and no map from pair
    # index to simplex vertex is kept; the connectivity universe and its
    # flip indices are read off certified twists, so graph decomposes no
    # transversal again (projections) and reads no canonical form
    found = [
        f"{name}:{node.lineno} {word}"
        for name, tree in source_trees()
        for node in ast.walk(tree)
        for word in [getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))]
        if word == "vertex_of_pair"
        or (
            name == "graph.py"
            and word in ("base_simplex", "canonical_data", "projections", "canonical")
        )
    ]
    assert found == []


def test_standard_forms_are_read_off_the_certificate():
    # a simplex is standard exactly when its canonical standardizer is 1,
    # and a marking when that is 1 and every certified twist is 0, so no
    # all_standard is defined under src/; marking.py reads a canonical form
    # only to check a standardizer given from outside
    # (transversal_decomposition), and every other standard form there is
    # read off a certificate or a base simplex
    trees = dict(source_trees())
    checked = {
        id(node)
        for func in ast.walk(trees["marking.py"])
        if isinstance(func, ast.FunctionDef) and func.name == "transversal_decomposition"
        for node in ast.walk(func)
    }
    found = [
        f"{name}:{node.lineno} all_standard"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "all_standard"
    ] + [
        f"marking.py:{node.lineno} canonical"
        for node in ast.walk(trees["marking.py"])
        if isinstance(node, ast.Attribute) and node.attr == "canonical" and id(node) not in checked
    ]
    assert checked and found == []


def test_graph_decides_flips_by_frame_offsets():
    # the bfs closure decides a flip by certified twists and one set of
    # offsets per flip frame (marking.FlipFrame.offsets, read by
    # marking.flip_frame once per pair of buckets of the boundary, on the
    # side whose frame is in the context's flip_frames memo); is_flip_edge
    # and ordered_key stay the edge oracle of the tests and the bench
    trees = dict(source_trees())
    found = [
        f"graph.py:{node.lineno} {word}"
        for node in ast.walk(trees["graph.py"])
        for word in [getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))]
        if word in ("is_flip_edge", "ordered_key")
    ]
    assert found == []


def test_graph_names_no_flip_frame_internal():
    # graph lists flips by marking.frame_flips and builds them by
    # marking.frame_flip, and reads nothing of a frame but its offsets: how
    # a frame builds, memoizes and certifies its candidates stays in marking
    trees = dict(source_trees())
    found = [
        f"graph.py:{node.lineno} {word}"
        for node in ast.walk(trees["graph.py"])
        for word in [getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))]
        if word in ("certified", "transversal", "recipe", "swapped", "_candidate")
    ]
    assert found == []


def test_bench_lib_chains_resolve():
    # the benchmark reaches the library through `lib.<name>` chains on a fresh
    # import of the package and artinmark.cli; each chain must resolve
    repo = Path(__file__).resolve().parents[1]
    chains = sorted({
        chain
        for path in (repo / "bench").glob("*.py")
        for chain in re.findall(r"(?<![\w.])lib\.(\w+(?:\.\w+)*)", path.read_text())
    })
    assert {"cli.run_command", "Marking.from_json", "is_twist_edge"} <= set(chains)
    script = (
        "import functools, importlib, sys\n"
        "lib = importlib.import_module('artinmark')\n"
        "importlib.import_module('artinmark.cli')\n"
        "for chain in sys.argv[1:]:\n"
        "    try:\n"
        "        functools.reduce(getattr, chain.split('.'), lib)\n"
        "    except AttributeError:\n"
        "        print(chain)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *chains], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
