import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow import serialize as ser
from boolpow.cantor import PointContext
from boolpow.cli import COMMANDS, build_parser, main
from boolpow.rand import cell_swap, random_point_fixing_homeo, tail_shift


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_inspect_reduct(capsys):
    code, rep = run(
        capsys, "inspect-algebra", "--builtin", "gf2-idempotent-reduct"
    )
    assert code == 0
    assert rep["simple"] is True
    assert rep["abelian"] is False
    assert rep["idempotents"] == [0, 1]
    assert rep["automorphism_count"] == 1
    assert rep["proper_subalgebras"] == [[0], [1]]


def test_build_power_roundtrip(capsys):
    code, rep = run(
        capsys,
        "build-power",
        "--builtin",
        "gf2-ring",
        "--filters",
        "0",
        "--depth",
        "2",
    )
    assert code == 0
    assert rep["element_count"] == 8
    assert rep["round_trip"] is True


def test_amalgamate_identity(capsys):
    code, rep = run(capsys, "amalgamate", "--builtin", "gf2-idempotent-reduct")
    assert code == 0
    assert rep["m"] == 1
    assert rep["commutes"] and rep["exhaustive"]


def test_amalgamate_from_files(tmp_path, capsys):
    a = alg.gf2_ring()
    import boolpow.fraisse as fr

    phi = fr.PowerEmbedding.make(
        a, 1, [("aut", (0, 1), 0), ("aut", (0, 1), 0)]
    )
    psi = fr.PowerEmbedding.make(a, 1, [("aut", (0, 1), 0), ("idem", 0)])
    p1 = tmp_path / "phi.json"
    p2 = tmp_path / "psi.json"
    p1.write_text(json.dumps(ser.embedding_to_obj(phi)))
    p2.write_text(json.dumps(ser.embedding_to_obj(psi)))
    code, rep = run(
        capsys,
        "amalgamate",
        "--builtin",
        "gf2-ring",
        "--emb1",
        str(p1),
        "--emb2",
        str(p2),
    )
    assert code == 0 and rep["m"] == 3


def test_extend_homogeneity(capsys):
    code, rep = run(
        capsys,
        "extend-homogeneity",
        "--builtin",
        "gf2-idempotent-reduct",
        "--seed",
        "5",
    )
    assert code == 0 and rep["verified"]


# (Z2, x - y + z, x + 1) has no idempotent, and so no filter point
NO_IDEMPOTENT = {
    "carrier": 2,
    "ops": [
        {"name": "mal", "arity": 3, "table": [0, 1, 1, 0, 1, 0, 0, 1]},
        {"name": "succ", "arity": 1, "table": [1, 0]},
    ],
}


@pytest.mark.parametrize("seed", ["0", "2", "4"])
def test_extend_homogeneity_without_idempotents(tmp_path, capsys, seed):
    # these seeds draw an idempotent coordinate where an algebra has one
    f = tmp_path / "alg.json"
    f.write_text(json.dumps(NO_IDEMPOTENT))
    start = time.process_time()
    code, rep = run(capsys, "extend-homogeneity", "--alg", str(f), "--seed", seed)
    assert time.process_time() - start < 5.0
    assert code == 0 and rep["verified"]


def test_fraisse_chain(capsys):
    code, rep = run(
        capsys,
        "fraisse-chain",
        "--builtin",
        "gf2-idempotent-reduct",
        "--depth",
        "4",
    )
    assert code == 0
    assert rep["squares_commute"] and rep["coverage_verified"]


def test_free_algebra_report(capsys):
    code, rep = run(
        capsys, "free-algebra", "--builtin", "gf2-ring", "--rank", "2"
    )
    assert code == 0
    assert rep["factorization"]["both_inclusions"]
    assert rep["free_algebra_size"] == 8


@pytest.mark.parametrize(
    "name, size",
    [("gf2-ring", 1), ("cyclic-group 3", 1), ("zero-ring 3", 1), ("gf2-idempotent-reduct", 0)],
)
def test_free_algebra_rank_0_is_the_constants(capsys, name, size):
    # the rank-0 free algebra is the subuniverse of the constants: {0} for
    # the three algebras with a constant, empty for the one without
    code, rep = run(capsys, "free-algebra", "--builtin", name, "--rank", "0")
    assert code == 0
    assert rep["free_algebra_size"] == size
    assert rep["kernel_class_sizes"] == ({"0": 1} if size else {})


def test_reduce_idempotents(capsys):
    code, rep = run(
        capsys,
        "reduce-idempotents",
        "--builtin",
        "gf2-ring",
        "--filters",
        "0,0",
    )
    assert code == 0
    assert rep["reduced_filters"] == [0]
    assert rep["verified"]


@pytest.mark.parametrize("n", [11, 16, 40])
def test_reduce_idempotents_many_equal_filters(capsys, n):
    # the chained merges of the earlier reduction built words of 2^(n-1) + 1
    # letters and ran out of recursion from n = 11 on
    start = time.process_time()
    code, rep = run(
        capsys,
        "reduce-idempotents",
        "--builtin",
        "gf2-ring",
        "--filters",
        ",".join(["0"] * n),
    )
    assert time.process_time() - start < 5.0
    assert code == 0
    assert rep["reduced_filters"] == [0]
    assert rep["round_trip_on_depth"] == 2
    assert rep["verified"] is True


def test_reduce_idempotents_refuses_long_words(capsys):
    code, rep = run(
        capsys,
        "reduce-idempotents",
        "--builtin",
        "gf2-ring",
        "--filters",
        ",".join(["0"] * 2000),
    )
    assert code == 1
    assert rep["error"] == (
        "SizeBudgetExceeded: the round trip at depth 2 builds words of up to "
        "2001 letters, over the ceiling 512"
    )


def test_reduce_idempotents_checks_a_depth_with_elements(capsys):
    # points 3 and 4 force the cell 11 to 0 and to 1: depth 2 has no
    # element, and a round trip over none verified nothing
    code, rep = run(
        capsys,
        "reduce-idempotents",
        "--builtin",
        "gf4-idempotent-reduct",
        "--filters",
        "0,1,0,1",
    )
    assert code == 0
    assert rep["reduced_filters"] == [0, 1]
    assert rep["round_trip_on_depth"] == 3
    assert rep["verified"] is True
    ctx = bp.make_context(alg.builtin("gf4-idempotent-reduct"), (0, 1, 0, 1))
    assert bp.element_count(ctx, 2) == 0 < bp.element_count(ctx, 3)


def test_demo_nonextendable(capsys):
    code, rep = run(capsys, "demo-example-2-3", "--depth", "6")
    assert code == 0
    assert rep["extends_to_X"] is False
    assert rep["is_involution"] is True
    assert rep["meets_both_neighbourhoods"] is True


def test_factor_homeo_seeded(capsys):
    code, rep = run(
        capsys, "factor-homeo", "--points", "1", "--seed", "11"
    )
    assert code == 0
    assert rep["recomposes"] and rep["stabilizers_verified"]


def test_factor_homeo_from_file(tmp_path, capsys):
    pctx = PointContext(1)
    sigma = tail_shift(pctx, 1, 2)
    f = tmp_path / "sigma.json"
    f.write_text(json.dumps(ser.homeo_to_obj(sigma)))
    code, rep = run(
        capsys, "factor-homeo", "--points", "1", "--sigma", str(f)
    )
    assert code == 0 and rep["recomposes"]


def test_bergman_growth(capsys):
    code, rep = run(
        capsys,
        "bergman-growth",
        "--builtin",
        "gf2-ring",
        "--filters",
        "0",
        "--depth",
        "2",
        "--steps",
        "6",
    )
    assert code == 0
    assert rep["monotone"]


@pytest.mark.parametrize("source", ["builtin", "alg"])
def test_bergman_growth_on_no_points_swaps_the_first_bit(tmp_path, capsys, source):
    f = tmp_path / "alg.json"
    f.write_text(json.dumps(NO_IDEMPOTENT))
    algebra = ["--builtin", "gf2-ring", "--filters", ""] if source == "builtin" else ["--alg", str(f)]
    start = time.process_time()
    code, rep = run(capsys, "bergman-growth", *algebra, "--depth", "2")
    assert time.process_time() - start < 5.0
    assert code == 0
    assert rep["sizes"] == [2, 2] and rep["stabilized_at"] == 1


def test_bergman_growth_refuses_generator_not_acting(tmp_path, capsys):
    # the swap of 0010 and 0100 carries a depth-2 element off depth 2
    ctx = bp.make_context(alg.gf2_idempotent_reduct(), (0, 1))
    swap = cell_swap(ctx.points, "0010", "0100")
    f = tmp_path / "gens.json"
    f.write_text(json.dumps([ser.homeo_to_obj(swap)]))
    start = time.process_time()
    code, rep = run(
        capsys,
        "bergman-growth",
        "--builtin",
        "gf2-idempotent-reduct",
        "--filters",
        "0,1",
        "--depth",
        "2",
        "--gens",
        str(f),
    )
    assert time.process_time() - start < 5.0
    assert code == 1
    assert rep["error"] == (
        "GeneratorNotActing: generator does not act on the depth-2 approximation"
    )


def test_factor_homeo_refuses_after_its_tail_draws(capsys):
    # a good tail clopen over 8 points takes about 4^8 draws; seed 3 asks
    # for one and used to run for 40 s
    start = time.process_time()
    code, rep = run(capsys, "factor-homeo", "--points", "8", "--seed", "3")
    assert time.process_time() - start < 5.0
    assert code == 1
    assert rep["error"] == (
        "SizeBudgetExceeded: no good tail clopen over n = 8 points in 4096 draws"
    )


def test_seed_determinism(capsys):
    c1, rep1 = run(capsys, "factor-homeo", "--points", "1", "--seed", "3")
    c2, rep2 = run(capsys, "factor-homeo", "--points", "1", "--seed", "3")
    assert rep1 == rep2


def test_error_exit_code(capsys):
    code, rep = run(capsys, "inspect-algebra", "--builtin", "does-not-exist")
    assert code == 1 or "error" in rep


def test_homeo_json_roundtrip():
    import random

    pctx = PointContext(2)
    rng = random.Random(9)
    h = random_point_fixing_homeo(pctx, rng, moves=2)
    assert ser.homeo_from_obj(pctx, ser.homeo_to_obj(h)) == h


# a homeomorphism whose cell map lists the source cell "0" twice
OVERLAPPING_CELLMAP = json.dumps(
    {
        "pairs": [["1", "1"]],
        "tails": [
            {
                "branch": 1,
                "target": 1,
                "modulus": 1,
                "affine": [1, 1, 1],
                "cellmaps": [["0", "0"], ["0", "1"]],
            }
        ],
    }
)


def _identity_tail(branch):
    return {"branch": branch, "target": branch, "modulus": 1, "affine": [1, 1, 1], "cellmaps": [["", ""]]}


# homeomorphisms whose tabular part lists the source cell 1^n twice
OVERLAPPING_PAIRS = json.dumps({"pairs": [["1", "1"], ["1", "0"]], "tails": [_identity_tail(1)]})
OVERLAPPING_PAIRS_GEN = json.dumps(
    [{"pairs": [["11", "11"], ["11", "10"]], "tails": [_identity_tail(1), _identity_tail(2)]}]
)


@pytest.mark.parametrize(
    "argv, files",
    [
        (["build-power", "--builtin", "gf2-ring", "--depth", "-3"], {}),
        (["build-power", "--builtin", "gf2-ring", "--filters", "0,abc"], {}),
        (["factor-homeo", "--points", "-1"], {}),
        (["factor-homeo", "--points", "17"], {}),
        (["inspect-algebra"], {"--alg": '{"carrier": "x"}'}),
        (["inspect-algebra"], {"--alg": "not json {"}),
        (["factor-homeo"], {"--sigma": "not json {"}),
        (["factor-homeo"], {"--sigma": "{}"}),
        (["factor-homeo"], {"--sigma": OVERLAPPING_CELLMAP}),
        (["factor-homeo"], {"--sigma": OVERLAPPING_PAIRS}),
        (
            ["bergman-growth", "--builtin", "gf2-idempotent-reduct"],
            {"--gens": OVERLAPPING_PAIRS_GEN},
        ),
        (
            ["bergman-growth", "--builtin", "gf2-idempotent-reduct"],
            {"--gens": '[{"pairs": []}]'},
        ),
        (["amalgamate", "--builtin", "gf2-ring"], {"--emb1": "{}", "--emb2": "{}"}),
        (["inspect-algebra", "--builtin", "cyclic-group x"], {}),
        (["inspect-algebra", "--builtin", "zero-ring y"], {}),
        (["inspect-algebra", "--builtin", "cyclic-group 1000000000"], {}),
        (["build-power", "--builtin", "zero-ring 1000000000"], {}),
    ],
    ids=[
        "negative-depth",
        "bad-filters",
        "negative-points",
        "points-over-ceiling",
        "no-ops",
        "not-json",
        "sigma-not-json",
        "sigma-no-tails",
        "sigma-overlapping-cellmap",
        "sigma-overlapping-pairs",
        "gens-overlapping-pairs",
        "gens-entry-no-tails",
        "embedding-no-coords",
        "builtin-parameter-not-int",
        "builtin-zero-ring-parameter-not-int",
        "builtin-cyclic-group-over-ceiling",
        "builtin-zero-ring-over-ceiling",
    ],
)
def test_bad_input_is_parse_error(tmp_path, capsys, argv, files):
    for flag, text in files.items():
        f = tmp_path / f"{flag.strip('-')}.json"
        f.write_text(text)
        argv = argv + [flag, str(f)]
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["ok"] is False
    assert rep["error"].startswith("ParseError: ")
    if files:
        assert str(tmp_path) in rep["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["demo-example-2-3", "--partition", "x"],
        ["demo-example-2-3", "--seed", "1"],
        ["factor-homeo", "--builtin", "gf2-ring"],
    ],
)
def test_unread_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [ln.split() for ln in readme.splitlines() if ln.startswith("boolpow ")]
    assert len(lines) == len(COMMANDS)
    for words in lines:
        build_parser().parse_args(words[1:])


@pytest.mark.parametrize("depth", ["6", "1000000"])
def test_build_power_budget_checked_first(capsys, depth):
    code, rep = run(
        capsys,
        "build-power",
        "--builtin",
        "gf2-ring",
        "--filters",
        "0",
        "--depth",
        depth,
    )
    assert code == 1
    assert rep["error"].startswith("SizeBudgetExceeded: ")


@pytest.mark.parametrize(
    "argv,count",
    [
        # two of the four level-2 cells hold a point: 2^2 elements
        (["reduce-idempotents", "--builtin", "gf2-ring", "--filters", "0,0"], 4),
        # cover depth min(3, 2 + 2) = 3, two points: 2^(8 - 2) elements
        (["fraisse-chain", "--builtin", "gf2-idempotent-reduct", "--depth", "3"], 64),
        (["bergman-growth", "--builtin", "gf2-idempotent-reduct", "--depth", "3"], 64),
    ],
    ids=["reduce-idempotents", "fraisse-chain", "bergman-growth"],
)
def test_enumerating_commands_check_budget(capsys, argv, count):
    code, rep = run(capsys, *argv, "--budget", str(count))
    assert code == 0
    code, rep = run(capsys, *argv, "--budget", str(count - 1))
    assert code == 1
    assert rep["error"].startswith("SizeBudgetExceeded: ")


def test_bergman_growth_budget_checked_first(capsys):
    # 2^(2^1000000 - 1) elements: only a check made before enumerating ends
    code, rep = run(
        capsys, "bergman-growth", "--builtin", "gf2-ring", "--depth", "1000000"
    )
    assert code == 1
    assert rep["error"].startswith("SizeBudgetExceeded: ")


@pytest.mark.parametrize(
    "argv",
    [
        # 2^21 - 2 stage cells, and 2^31 - 2
        ["fraisse-chain", "--builtin", "gf2-idempotent-reduct", "--depth", "20"],
        ["extend-homogeneity", "--builtin", "gf2-idempotent-reduct", "--depth", "30"],
        ["fraisse-chain", "--builtin", "gf2-idempotent-reduct", "--depth", "1000000000"],
        ["demo-example-2-3", "--depth", "201"],
        ["demo-example-2-3", "--depth", "1000000000"],
    ],
    ids=["chain-d20", "homogeneity-d30", "chain-d1e9", "demo-d201", "demo-d1e9"],
)
def test_unbounded_inputs_stop_before_work(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["error"].startswith("SizeBudgetExceeded: ")


FORTY_ZEROS = ",".join(["0"] * 40)


@pytest.mark.parametrize(
    "argv",
    [
        ["fraisse-chain", "--builtin", "gf2-ring", "--filters", FORTY_ZEROS],
        ["extend-homogeneity", "--builtin", "gf2-ring", "--filters", FORTY_ZEROS],
        ["build-power", "--builtin", "gf2-ring", "--filters", FORTY_ZEROS, "--depth", "40"],
    ],
    ids=["fraisse-chain", "extend-homogeneity", "build-power-d40"],
)
def test_long_filter_list_stops_before_work(capsys, argv):
    # the budget checks themselves take no time exponential in the points
    start = time.process_time()
    code, rep = run(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert code == 1
    assert rep["error"].startswith("SizeBudgetExceeded: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["fraisse-chain", "--builtin", "gf2-ring", "--filters", FORTY_ZEROS],
            "depth 39, the first stage for 40 points, has more than --budget"
            " 200000 elements",
        ),
        (
            ["extend-homogeneity", "--builtin", "gf2-ring", "--filters", FORTY_ZEROS],
            "the first stage, at depth 39 for 40 points, has more than 200000"
            " stage cells",
        ),
        (
            ["fraisse-chain", "--builtin", "gf2-ring", "--filters", "0,0,0", "--depth", "6"],
            "the coverage depth 5 (2 + 3 points) has more than --budget 200000 elements",
        ),
        (
            ["fraisse-chain", "--builtin", "gf2-ring", "--depth", "40"],
            "a chain to depth 40 has more than 200000 stage cells",
        ),
    ],
    ids=["chain-first-stage", "homogeneity-first-stage", "chain-coverage", "chain-asked"],
)
def test_refusals_name_the_depth_checked(capsys, argv, message):
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["error"] == f"SizeBudgetExceeded: {message}"


@pytest.mark.parametrize("n,u", [(4, 4), (5, 11)])
def test_extend_homogeneity_within_the_tuple_budget(capsys, n, u):
    filters = ",".join(["0"] * n)
    code, rep = run(capsys, "extend-homogeneity", "--builtin", "gf2-ring", "--filters", filters)
    assert code == 0 and rep["source_arity"] == u and rep["verified"]


def test_extend_homogeneity_stops_at_the_tuple_budget(capsys):
    # the second stage of 6 zero filters has u = 26 source coordinates
    start = time.process_time()
    code, rep = run(
        capsys, "extend-homogeneity", "--builtin", "gf2-ring", "--filters", "0,0,0,0,0,0"
    )
    assert time.process_time() - start < 1.0
    assert code == 1
    assert rep["error"] == (
        "SizeBudgetExceeded: |A|^u source tuples, with |A| = 2 and u = 26, "
        "are more than 200000"
    )


@pytest.mark.parametrize("u,ok", [(17, True), (18, False), (30, False), (10_000, False)])
def test_amalgamate_stops_at_the_tuple_budget(tmp_path, capsys, u, ok):
    # identity embeddings A^u -> A^u; 2^17 tuples are within the budget
    emb = {"u": u, "coords": [{"aut": [0, 1], "src": j} for j in range(u)]}
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(emb))
    argv = ["amalgamate", "--builtin", "gf2-ring", "--emb1", str(path), "--emb2", str(path)]
    if ok:
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["exhaustive"]
        return
    start = time.process_time()
    code, rep = run(capsys, *argv)
    assert time.process_time() - start < 1.0
    assert code == 1
    assert rep["error"] == (
        f"SizeBudgetExceeded: |A|^u source tuples, with |A| = 2 and u = {u}, "
        "are more than 200000"
    )


def _child(*argv):
    """Run python on argv with the package on its path, within 5 CPU
    seconds of its own."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}

    def set_limit():  # in the child only, before it runs the script
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        preexec_fn=set_limit,
        timeout=120,
    )


def test_bergman_experiment_refuses_over_the_element_budget():
    """At depth 4 the gf4 context has 4^14 elements: the script refuses
    before its first run, within 5 CPU seconds of its own."""
    proc = _child("scripts/bergman_experiment.py", "--depth", "4", "--steps", "4")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        "error: --depth 4 gives the gf4-idempotent-reduct power more than "
        "200000 elements to enumerate\n"
    )


# one ternary operation: one dequeued vector of the Mal'cev search meets a
# pool of thousands of vectors, so a budget checked only between dequeues
# is passed by far
TERNARY = {
    "carrier": 3,
    "ops": [
        {
            "name": "f",
            "arity": 3,
            "table": [0, 2, 0, 1, 0, 1, 1, 1, 2, 1, 0, 0, 1, 0, 1, 1, 2, 0, 2, 1, 1, 2, 0, 2, 0, 1, 0],
        }
    ],
}


@pytest.mark.parametrize(
    "path,budget", [(None, 5000), ("tests/data/s3-group.json", 3)], ids=["ternary", "s3"]
)
def test_malcev_search_stops_at_its_budget(tmp_path, path, budget):
    if path is None:
        path = tmp_path / "ternary.json"
        path.write_text(json.dumps(TERNARY))
    proc = _child(
        "-m", "boolpow.cli", "inspect-algebra", "--alg", path, "--budget", budget
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == (
        f"SearchBudgetExceeded: Mal'cev search passed {budget} vectors"
    )
