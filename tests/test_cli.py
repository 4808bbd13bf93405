import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from artinmark import parabolic
from artinmark.cli import parse_payload, run_command
from artinmark.errors import NotMaximal, ParseError
from artinmark.garside import context, normalize, parse_element
from artinmark.marking import Marking, projection, standard_transversals, twist_move
from artinmark.parabolic import ParabolicSubgroup
from artinmark.simplex import CparabSimplex, enumerate_maximal_standard

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def a3_marking_json():
    a3 = context("A3")
    simplex = CparabSimplex(
        a3,
        [
            ParabolicSubgroup.standard(a3, frozenset({0})),
            ParabolicSubgroup.standard(a3, frozenset({2})),
        ],
    )
    return json.dumps(standard_transversals(simplex).to_json())


def non_markings():
    """Two A3 payloads that are not markings: no pairs, and the one pair
    (A_s1, A_s1); neither base is maximal."""
    a3 = context("A3")
    s1 = ParabolicSubgroup.standard(a3, frozenset({0}))
    return json.dumps({"pairs": []}), json.dumps(Marking(a3, [(s1, s1)]).to_json())


def b3_conjugated_simplex_json():
    """A maximal B3 simplex conjugated by s3^-1 s3^-1 s1 s2^-1 (13-atom
    canonical standardizer)."""
    b3 = context("B3")
    simplex = CparabSimplex(
        b3,
        [
            ParabolicSubgroup.standard(b3, frozenset({0})),
            ParabolicSubgroup.standard(b3, frozenset({2})),
        ],
    )
    x = normalize(b3, "s3^-1 s3^-1 s1 s2^-1")
    return json.dumps(simplex.conjugated_by(x).to_json())


def test_nf_delta(capsys):
    code, out, _ = run(capsys, "--type", "A2", "nf", "s1 s2 s1")
    assert code == 0 and out.strip() == "DELTA^1 |"
    # the only generator of A1 is Delta itself
    for word, expected in (("s1", "DELTA^1 |"), ("s1^-1", "DELTA^-1 |")):
        code, out, _ = run(capsys, "--type", "A1", "nf", word)
        assert code == 0 and out.strip() == expected


def test_nf_json_format(capsys):
    code, out, _ = run(capsys, "--type", "A2", "--format", "json", "nf", "s1 s2 s1")
    assert code == 0 and json.loads(out) == {"normal_form": "DELTA^1 |"}


def test_conj_graph_e8_query(capsys):
    code, out, _ = run(
        capsys,
        "--type",
        "E8",
        "conj-graph",
        "--query",
        "s1,s2,s3,s4",
        "s5,s6,s7,s8",
    )
    assert code == 0 and out.strip() == "true"


def test_conj_graph_size_mismatch(capsys):
    code, out, _ = run(
        capsys, "--type", "E8", "conj-graph", "--query", "s1,s2", "s5,s6,s7"
    )
    assert code == 0 and out.strip() == "false"


def test_conj_graph_unknown_generator_is_malformed(capsys):
    code, out, err = run(capsys, "--type", "A3", "conj-graph", "--query", "s1,s9", "s2")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": "unknown generator 's9'",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "A3", "--radius", "x", "bfs", "{}"], "--radius 'x' is not an integer"),
        (
            ["--type", "A3", "twist", "{}"],
            "artinmark twist: the following arguments are required: --index",
        ),
        (["--type", "A3", "nf", "s1 t3"], "bad generator token 't3' (at offset 3)"),
        (
            ["--type", "A3", "parabolic-eq", "{", "{}"],
            "bad JSON payload: Expecting property name enclosed in double quotes (at offset 1)",
        ),
    ],
)
def test_parse_errors_give_an_offset_only_into_parsed_text(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message": message}


def test_enum_max_simplices_a3(capsys):
    code, out, _ = run(capsys, "--type", "A3", "--format", "json", "enum-max-simplices")
    assert code == 0
    assert len(json.loads(out)) == 5


def test_parabolic_eq(capsys):
    first = json.dumps({"conj": "DELTA^1 |", "gens": ["s1"]})
    second = json.dumps({"conj": "DELTA^0 |", "gens": ["s2"]})
    code, out, _ = run(capsys, "--type", "A2", "parabolic-eq", first, second)
    assert code == 0 and out.strip() == "true"


def test_min_std(capsys):
    payload = json.dumps({"conj": "DELTA^0 | s1", "gens": ["s2"]})
    code, out, _ = run(capsys, "--type", "A2", "--format", "json", "min-std", payload)
    assert code == 0
    data = json.loads(out)
    assert data == {"standardizer": "DELTA^0 | s1", "gens": ["s2"]}


def test_validate_and_projection_and_twist(capsys):
    payload = a3_marking_json()
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "validate-marking", payload
    )
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(
        capsys, "--type", "A3", "projection", payload, "--index", "0"
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "twist", payload, "--index", "0"
    )
    assert code == 0
    twisted = json.loads(out)
    code, out, _ = run(
        capsys,
        "--type",
        "A3",
        "projection",
        json.dumps(twisted),
        "--index",
        "0",
    )
    assert code == 0 and out.strip() == "1"
    # a non-maximal base has no projection
    a3 = context("A3")
    s1, s2, s3 = (ParabolicSubgroup.standard(a3, frozenset({i})) for i in range(3))
    lonely = Marking(a3, [(s1, s2)])
    with pytest.raises(NotMaximal):
        projection(lonely, 0)
    code, _out, err = run(
        capsys, "--type", "A3", "projection", json.dumps(lonely.to_json()), "--index", "0"
    )
    assert code == 1 and json.loads(err)["error"] == "NotMaximal"
    # projection does not validate: this marking breaks the pattern at (1, 0)
    invalid = Marking(a3, [(s1, s2), (s3, s2)])
    code, out, _ = run(
        capsys, "--type", "A3", "projection", json.dumps(invalid.to_json()), "--index", "0"
    )
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("command", ["projection", "twist", "flip"])
@pytest.mark.parametrize("index", ["-1", "2"])
def test_index_outside_the_pairs_is_malformed(capsys, command, index):
    # the marking has two pairs, so -1 and 2 lie outside 0..1
    code, out, err = run(capsys, "--type", "A3", command, a3_marking_json(), "--index", index)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A3", "--radius", "-1", "bfs"],
        ["--type", "A3", "--proj-bound", "-1", "std-connectivity"],
        ["--type", "A3", "--bound-k", "-3", "stabilizer-probe"],
    ],
)
def test_negative_bound_is_malformed(capsys, argv):
    # a marking payload follows the command where it takes one
    if argv[-1] != "std-connectivity":
        argv = argv + [a3_marking_json()]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_zero_bounds_are_accepted(capsys):
    payload = a3_marking_json()
    code, out, _ = run(capsys, "--type", "A3", "--radius", "0", "--format", "json", "bfs", payload)
    assert code == 0 and len(json.loads(out)["nodes"]) == 1
    code, out, _ = run(
        capsys, "--type", "A3", "--bound-k", "0", "--format", "json", "stabilizer-probe", payload
    )
    assert code == 0 and json.loads(out) == ["DELTA^0 |"]


def test_twist_direction_is_one_or_minus_one(capsys):
    payload = a3_marking_json()
    for bad in ("0", "5"):
        code, out, _ = run(
            capsys, "--type", "A3", "twist", payload, "--index", "0", "--direction", bad
        )
        assert code == 2 and out == ""
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "twist", payload, "--index", "0",
        "--direction", "-1",
    )
    assert code == 0
    twisted = Marking.from_json(context("A3"), json.loads(out))
    assert projection(twisted, 0) == -1
    # a non-marking is rejected with its validation error, not moved; the
    # empty one has no index 0 to move at
    empty, one_pair = non_markings()
    code, out, err = run(capsys, "--type", "A3", "twist", one_pair, "--index", "0")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BaseNotMaximal"
    code, out, err = run(capsys, "--type", "A3", "twist", empty, "--index", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_flip_and_standardize(capsys):
    payload = a3_marking_json()
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "flip", payload, "--index", "0"
    )
    assert code == 0 and len(json.loads(out)) >= 1
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "standardize-marking", payload
    )
    assert code == 0
    data = json.loads(out)
    assert data["conjugator"] == "DELTA^0 |"


def test_stabilizer_probe_cli(capsys):
    a2 = context("A2")
    simplex = CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    payload = json.dumps(standard_transversals(simplex).to_json())
    code, out, _ = run(
        capsys,
        "--type",
        "A2",
        "--bound-k",
        "3",
        "--format",
        "json",
        "stabilizer-probe",
        payload,
    )
    assert code == 0
    hits = json.loads(out)
    assert "DELTA^2 |" in hits and "DELTA^0 | s1" not in hits
    # a non-marking is rejected with its validation error, not probed
    for bad in non_markings():
        code, out, err = run(capsys, "--type", "A3", "stabilizer-probe", bad)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BaseNotMaximal"


def respelled(payload: str, conj: str) -> str:
    """The payload with every conj written as the given element text."""
    data = json.loads(payload)
    parabolics = data["vertices"] if "vertices" in data else [
        pair[side] for pair in data["pairs"] for side in ("base", "transverse")
    ]
    for parabolic in parabolics:
        parabolic["conj"] = conj
    return json.dumps(data)


def test_stabilizer_probe_needs_a_standard_marking(capsys):
    payload = respelled(a3_marking_json(), "s3")
    code, out, err = run(capsys, "--type", "A3", "stabilizer-probe", payload)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NotStandard"


def test_standard_reads_the_subgroup_not_its_spelling(capsys):
    # Delta^2 is central, so a marking written with it is the plain marking
    plain = a3_marking_json()
    for fmt in ("text", "json"):
        outs = [
            run(capsys, "--type", "A3", "--format", fmt, "stabilizer-probe", payload)
            for payload in (plain, respelled(plain, "DELTA^2 |"))
        ]
        assert outs[0][0] == 0 and outs[1] == outs[0]
    simplex = json.dumps({"vertices": [pair["base"] for pair in json.loads(plain)["pairs"]]})
    keys = []
    for payload in (simplex, respelled(simplex, "DELTA^2 |")):
        code, out, _ = run(capsys, "--type", "A3", "--format", "json", "std-transversals", payload)
        assert code == 0
        keys.append(Marking.from_json(context("A3"), json.loads(out)).key())
    assert keys[0] == keys[1]


def test_std_transversals_of_a_delta_spelled_simplex(capsys):
    # Delta A_X Delta^-1 = A_{tau(X)}: written Delta^1 on {s1,s2}, the A3
    # vertex is the standard A_{s2,s3}, and the marking is its twin's
    a3 = context("A3")
    for simplex in enumerate_maximal_standard(a3):
        twin = CparabSimplex(a3, [
            ParabolicSubgroup.standard(a3, frozenset(2 - s for s in v.gens))
            for v in simplex.vertices
        ])
        spelled = respelled(json.dumps(simplex.to_json()), "DELTA^1 |")
        keys = []
        for payload in (spelled, json.dumps(twin.to_json())):
            code, out, _ = run(
                capsys, "--type", "A3", "--format", "json", "std-transversals", payload
            )
            assert code == 0
            keys.append(Marking.from_json(a3, json.loads(out)).key())
        assert keys[0] == keys[1]


def test_bfs_deterministic(capsys):
    a2 = context("A2")
    simplex = CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    payload = json.dumps(standard_transversals(simplex).to_json())
    code, out1, _ = run(
        capsys, "--type", "A2", "--radius", "1", "--format", "json", "bfs", payload
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "--type", "A2", "--radius", "1", "--format", "json", "bfs", payload
    )
    assert out1 == out2
    graph = json.loads(out1)
    assert graph["nodes"] and graph["edges"]


def test_std_connectivity_cli(capsys):
    code, out, _ = run(capsys, "--type", "I2(5)", "--format", "json", "std-connectivity")
    assert code == 0
    data = json.loads(out)
    assert data["connected"] is True and data["diameter"] == 1


def test_a1_has_no_maximal_simplex(capsys):
    # A1 has no proper irreducible parabolic subgroup: no simplex, no marking
    code, out, _ = run(capsys, "--type", "A1", "enum-max-simplices")
    assert code == 0 and out == "\n"
    code, out, _ = run(capsys, "--type", "A1", "std-connectivity")
    assert code == 0
    assert out == "A1: 0 standard markings, connected=True, diameter=0 (bound 1)\n"


def test_std_transversals_roundtrip(capsys):
    a3 = context("A3")
    simplex = CparabSimplex(
        a3,
        [
            ParabolicSubgroup.standard(a3, frozenset({0})),
            ParabolicSubgroup.standard(a3, frozenset({2})),
        ],
    )
    payload = json.dumps(simplex.to_json())
    code, out, _ = run(
        capsys, "--type", "A3", "--format", "json", "std-transversals", payload
    )
    assert code == 0
    from artinmark.marking import Marking

    marking = Marking.from_json(a3, json.loads(out))
    assert marking == standard_transversals(simplex)


def test_malformed_input_exit_2(capsys):
    code, _out, err = run(capsys, "--type", "A3", "nf", "t3 s1")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_bad_type_exit_2(capsys):
    code, _out, err = run(capsys, "--type", "Q7", "nf", "s1")
    assert code == 2


# a superscript two, which int() rejects, and an Arabic-Indic three, which
# int() reads as 3: neither is a digit of the input syntax
@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A3", "nf", "s1 s\u00b2"],
        ["--type", "A3", "min-std", json.dumps({"conj": "s\u00b2", "gens": ["s1"]})],
        ["--type", "A3", "min-std", json.dumps({"conj": "DELTA^1_0 | s1", "gens": ["s1"]})],
        ["--type", "A\u0663", "nf", "s1"],
        ["--type", "A3", "nf", "s\u0663"],
    ],
)
def test_non_ascii_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def integer_option_argv(option, value):
    payload = a3_marking_json()
    if option == "--index":
        return ["--type", "A3", "projection", payload, "--index", value]
    if option == "--direction":
        return ["--type", "A3", "twist", payload, "--index", "0", "--direction", value]
    if option == "--proj-bound":
        return ["--type", "A3", option, value, "std-connectivity"]
    command = {"--radius": "bfs", "--bound-k": "stabilizer-probe"}[option]
    return ["--type", "A3", option, value, command, payload]


# int() reads an Arabic-Indic zero or one as 0 or 1, so before the options
# were read as ASCII these ran (the radius 0 ones exited 0)
@pytest.mark.parametrize(
    "option", ["--radius", "--proj-bound", "--bound-k", "--index", "--direction"]
)
@pytest.mark.parametrize("value", ["\u0660", "\u0661", "\u00b2", "1\u0660", " 1", "1.0", ""])
def test_integer_options_read_ascii_digits_only(capsys, option, value):
    code, out, err = run(capsys, *integer_option_argv(option, value))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "option,value", [("--radius", "+0"), ("--index", "00"), ("--direction", "+1")]
)
def test_integer_options_take_signs_and_leading_zeros(capsys, option, value):
    code, out, _ = run(capsys, *integer_option_argv(option, value))
    assert code == 0 and out


def test_domain_error_exit_1(capsys):
    # a marking whose pattern is broken: domain error, JSON on stderr
    a3 = context("A3")
    bad = {
        "pairs": [
            {"base": {"conj": "DELTA^0 |", "gens": ["s1"]},
             "transverse": {"conj": "DELTA^0 |", "gens": ["s3"]}},
            {"base": {"conj": "DELTA^0 |", "gens": ["s3"]},
             "transverse": {"conj": "DELTA^0 |", "gens": ["s1", "s2"]}},
        ]
    }
    code, _out, err = run(
        capsys, "--type", "A3", "validate-marking", json.dumps(bad)
    )
    assert code == 1
    assert json.loads(err)["error"] == "TransversalityPatternBroken"


def test_bfs_from_an_invalid_seed_writes_nothing(capsys):
    # the seed is validated and the ball built before the export streams,
    # so a domain error leaves stdout empty in either format
    bad = {
        "pairs": [
            {"base": {"conj": "DELTA^0 |", "gens": ["s1"]},
             "transverse": {"conj": "DELTA^0 |", "gens": ["s3"]}},
            {"base": {"conj": "DELTA^0 |", "gens": ["s3"]},
             "transverse": {"conj": "DELTA^0 |", "gens": ["s1", "s2"]}},
        ]
    }
    for fmt in ("json", "text"):
        code, out, err = run(capsys, "--type", "A3", "--format", fmt, "bfs", json.dumps(bad))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "TransversalityPatternBroken"


def test_parse_payload_errors():
    a3 = context("A3")
    with pytest.raises(ParseError):
        parse_payload(a3, "{not json", "marking")
    for payload in (
        {"wrong": 1},
        [1],
        "s1",
        {"conj": 5, "gens": ["s1"]},
        {"conj": ["s1"], "gens": ["s1"]},
        {"conj": "DELTA^0 |", "gens": ["s9"]},
        {"conj": "DELTA^0 |", "gens": "s1"},
        {"conj": "DELTA^0 |", "gens": [1]},
    ):
        with pytest.raises(ParseError):
            parse_payload(a3, json.dumps(payload), "parabolic")
    for conj in (5, ["s1"]):
        vertex = {"conj": conj, "gens": ["s1"]}
        for kind, payload in (
            ("parabolic", vertex),
            ("simplex", {"vertices": [vertex]}),
            ("marking", {"pairs": [{"base": vertex, "transverse": vertex}]}),
        ):
            with pytest.raises(ParseError, match="conj must be an element string"):
                parse_payload(a3, json.dumps(payload), kind)
    element = parse_payload(a3, "s1 s2^-1", "element")
    assert element == normalize(a3, "s1 s2^-1")


def test_payload_parses_each_conjugator_text_once(monkeypatch):
    a4 = context("A4")
    simplex = enumerate_maximal_standard(a4)[0]
    assert len(simplex.vertices) == 3
    g = normalize(a4, "s1 s2^-1 s4 s3")
    payload = standard_transversals(simplex).conjugated_by(g).to_json()
    assert {q["conj"] for pair in payload["pairs"] for q in pair.values()} == {g.to_text()}
    calls = []

    def spy(ctx, text):
        calls.append(text)
        return parse_element(ctx, text)

    monkeypatch.setattr(parabolic, "parse_element", spy)
    marking = parse_payload(a4, json.dumps(payload), "marking")
    assert calls == [g.to_text()]
    assert all(q.conj == g for pair in marking.pairs for q in pair)


def test_seed_file_payload(tmp_path, capsys):
    payload = a3_marking_json()
    seed = tmp_path / "marking.json"
    seed.write_text(payload)
    code, out, _ = run(
        capsys,
        "--type",
        "A3",
        "--seed-file",
        str(seed),
        "projection",
        "--index",
        "0",
    )
    assert code == 0 and out.strip() == "0"


def test_unreadable_seed_file_is_malformed(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe")
    for seed in (tmp_path / "missing.json", undecodable):
        code, out, err = run(
            capsys, "--type", "A3", "--seed-file", str(seed), "projection", "--index", "0"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"


def test_one_parser_carries_no_state_between_calls(tmp_path):
    # each call after another with other options must read as in a fresh
    # process: defaults come back, --seed-file does not stick, and usage,
    # errors and help go to the streams of the call that prints them
    a3_marking = a3_marking_json()
    a2 = context("A2")
    a2_marking = json.dumps(
        standard_transversals(
            CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
        ).to_json()
    )
    seed = tmp_path / "marking.json"
    seed.write_text(a3_marking)
    # the one call without a payload reads this from stdin: projection 1, not 0
    twisted = twist_move(Marking.from_json(context("A3"), json.loads(a3_marking)), 0, 1)
    stdin = json.dumps(twisted.to_json())
    sequence = [
        ["--type", "A3", "twist", a3_marking, "--index", "0", "--direction", "-1"],
        ["--type", "A3", "twist", a3_marking, "--index", "0"],
        ["--type", "A2", "--radius", "2", "--format", "json", "bfs", a2_marking],
        ["--type", "A2", "--format", "json", "bfs", a2_marking],
        ["--type", "A3", "--seed-file", str(seed), "projection", "--index", "0"],
        ["--type", "A3", "projection", "--index", "0"],
        ["--type", "A3", "twist", a3_marking],
        ["--type", "A3", "--help"],
        ["--type", "A3", "nf", "s1 s2"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from artinmark import cli\n"
        "built = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: built.append(1) or build()\n"
        "calls = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.run_command(argv)\n"
        "    calls.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps({'built': len(built), 'calls': calls}))\n"
    )
    fresh = (
        "import sys\n"
        "from artinmark.cli import run_command\n"
        "sys.exit(run_command(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def python(*args):
        return subprocess.run(
            [sys.executable, "-c", *args],
            env=env,
            input=stdin,
            capture_output=True,
            text=True,
            check=False,
            timeout=300,
        )

    together = json.loads(python(script, json.dumps(sequence)).stdout)
    assert together["built"] == 1
    alone = []
    for argv in sequence:
        done = python(fresh, *argv)
        alone.append([done.returncode, done.stdout, done.stderr])
    assert together["calls"] == alone
    codes = [code for code, _out, _err in alone]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 0]
    assert alone[4][1] == "0\n" and alone[5][1] == "1\n"
    assert alone[6][1] == "" and json.loads(alone[6][2])["error"] == "ParseError"
    assert alone[7][1].startswith("usage: artinmark") and alone[7][2] == ""
    assert len(json.loads(alone[2][1])["nodes"]) > len(json.loads(alone[3][1])["nodes"])


@pytest.mark.parametrize(
    "argv, fault",
    [
        (["--type", "A3", "--bogus", "nf", "s1"], "unrecognized arguments: --bogus"),
        (["--type", "A3", "twist", "{}"], "required: --index"),
        (["--type", "A3", "--format", "xml", "nf", "s1"], "invalid choice: 'xml'"),
        (["--type", "A3"], "required: command"),
    ],
)
def test_parser_rejections_are_json_parse_errors(capsys, argv, fault):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "ParseError" and fault in error["message"]


def test_readme_commands_match_parser(capsys):
    listed = re.search(r"^Commands:([^.]*)\.", README.read_text(), re.M)
    assert listed, "README has no 'Commands:' list"
    documented = re.findall(r"`([^`]+)`", listed.group(1))
    code, out, _ = run(capsys, "--type", "A3", "--help")
    assert code == 0
    commands = re.search(r"^positional arguments:\n +\{([^}]*)\}$", out, re.M).group(1)
    assert documented == commands.split(",")
    for name in documented:
        assert re.search(rf"^ +{re.escape(name)}( |$)", out, re.M), name


def test_stdout_identical_across_hash_seeds():
    script = (
        "import sys\n"
        "from artinmark.cli import run_command\n"
        "sys.exit(max(run_command(argv) for argv in %r))\n"
    ) % [
        ["--type", "E8", "nf", "s1 s3^-1 s2 s8 s4^-1 s1 s7 s5^-1 s6 s2^-1"],
        ["--type", "A3", "--radius", "1", "--format", "json", "bfs", a3_marking_json()],
        ["--type", "B3", "--format", "json", "conj-graph"],
        [
            "--type", "D4", "min-std",
            json.dumps({"conj": "DELTA^-1 | s1 s2 s4 . s2 s3", "gens": ["s1", "s2"]}),
        ],
        ["--type", "B3", "--format", "json", "canon-std", b3_conjugated_simplex_json()],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed, flags in (("0", []), ("1", []), ("2", []), ("0", ["-O"])):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=env,
            capture_output=True,
            check=True,
            timeout=300,
        )
        outputs.append(done.stdout)
    assert outputs[0].startswith(b"DELTA^") and b'"edges"' in outputs[0]
    assert b"  ->  s" in outputs[0] and b'"subsets"' in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_stdout_does_not_depend_on_uids():
    # CoxeterElement.uid is the interning order; the second run interns a few
    # thousand unrelated products first, so every later uid is shifted
    script = (
        "import random, sys\n"
        "from artinmark.cli import run_command\n"
        "from artinmark.coxeter import root_reflection_table\n"
        "if sys.argv[1] == 'shifted':\n"
        "    for spec in ('E8', 'A3', 'B3', 'D4'):\n"
        "        system, rng = root_reflection_table(spec), random.Random(spec)\n"
        "        w = system.identity\n"
        "        for _ in range(3000):\n"
        "            w = w * system.generators[rng.randrange(system.graph.rank)]\n"
        "sys.exit(max(run_command(argv) for argv in %r))\n"
    ) % [
        ["--type", "E8", "nf", "s1 s3^-1 s2 s8 s4^-1 s1 s7 s5^-1 s6 s2^-1"],
        ["--type", "A3", "--radius", "1", "--format", "json", "bfs", a3_marking_json()],
        ["--type", "B3", "--format", "json", "conj-graph"],
        [
            "--type", "D4", "min-std",
            json.dumps({"conj": "DELTA^-1 | s1 s2 s4 . s2 s3", "gens": ["s1", "s2"]}),
        ],
        ["--type", "A3", "--format", "json", "std-connectivity"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script, mode],
            env=env,
            capture_output=True,
            check=True,
            timeout=300,
        ).stdout
        for mode in ("plain", "shifted")
    ]
    assert outputs[0].startswith(b"DELTA^") and b'"standard_markings"' in outputs[0]
    assert outputs[0] == outputs[1]


def golden_calls():
    """(label, argv) pairs of the golden CLI transcript: the marking commands
    on every maximal simplex of A3, B3 and D4 conjugated by
    s2^-1 s1 s3^-1 s2, an A3 bfs, A3 std-connectivity and E6 enumeration."""
    calls = []
    for spec in ("A3", "B3", "D4"):
        ctx = context(spec)
        x = normalize(ctx, "s2^-1 s1 s3^-1 s2")
        head = ["--type", spec, "--format", "json"]
        for i, simplex in enumerate(enumerate_maximal_standard(ctx)):
            simplex_json = json.dumps(simplex.conjugated_by(x).to_json())
            marking_json = json.dumps(standard_transversals(simplex).conjugated_by(x).to_json())
            calls.append((f"{spec} simplex {i} canon-std", head + ["canon-std", simplex_json]))
            for command in (
                ["validate-marking"],
                ["standardize-marking"],
                ["projection", "--index", "1"],
                ["flip", "--index", "0"],
            ):
                calls.append(
                    (f"{spec} marking {i} {' '.join(command)}", head + command + [marking_json])
                )
    calls.append(
        ("A3 bfs --radius 1", ["--type", "A3", "--format", "json", "bfs", a3_marking_json()])
    )
    calls.append(("A3 std-connectivity", ["--type", "A3", "--format", "json", "std-connectivity"]))
    calls.append(("E6 enum-max-simplices", ["--type", "E6", "--format", "json", "enum-max-simplices"]))
    return calls


def golden_transcript() -> str:
    """Exit code and stdout of every golden call, run in-process.

    To record the file again after an intended change of output:
    python -c "import sys; sys.path[:0] = ['src', 'tests']; import test_cli;
    open('tests/golden/cli.txt', 'w').write(test_cli.golden_transcript())"
    """
    out = []
    for label, argv in golden_calls():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_command(argv)
        out.append(f"### {label} (exit {code})\n{stdout.getvalue()}")
    return "".join(out)


def test_golden_transcript():
    assert golden_transcript() == GOLDEN.read_text()
