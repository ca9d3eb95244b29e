import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import robinopt
from robinopt import Domain, fem, generate_mesh, optimizer
from robinopt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_optimize_disk(capsys):
    code, out, err = run(capsys, "optimize", "--domain", "disk:1",
                         "--mu", "-10", "--h", "0.05")
    assert code == 0
    assert "lambda_mu" in out
    assert "consistency" in out and "ok" in out


def test_optimize_json_digits(capsys):
    code, out, _ = run(capsys, "optimize", "--domain", "disk:1",
                       "--mu", "-10", "--h", "0.05", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == -10.0
    assert payload["consistency"] == "ok"
    # 12 significant digits round-trip
    assert abs(payload["lambda_mu"] - payload["independent_lambda"]) < 1e-6


def test_optimize_mu_zero(capsys):
    code, out, _ = run(capsys, "optimize", "--domain", "disk:1",
                       "--mu", "0", "--h", "0.08", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_mu"] == 0.0
    assert payload["sigma_min"] == 0.0 and payload["sigma_max"] == 0.0


def test_optimize_resolution_cap_is_clean_error(capsys):
    code, out, err = run(capsys, "optimize", "--domain", "disk:1",
                         "--mu", "-1e9", "--h", "0.05")
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("mu,reason", [
    ("-1e300", "resolution cap"),
    ("1e300", "Dirichlet ground energy"),
])
def test_optimize_huge_mu_is_clean_error(capsys, mu, reason):
    # the boundary-layer rule squares mu / perimeter; it must not overflow
    code, out, err = run(capsys, "optimize", "--mu", mu, "--domain",
                         "disk:1", "--h", "0.1")
    assert code == 1
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err
    assert out == ""


def test_unforeseen_exception_is_clean_error(monkeypatch, capsys):
    def broken(mesh, mu, tol=None):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(optimizer, "optimize", broken)
    code, out, err = run(capsys, "optimize", "--mu", "-1", "--h", "0.1")
    assert code == 1
    assert err == "error: ZeroDivisionError: float division by zero\n"
    assert out == ""


def test_optimize_dump_sigma(tmp_path, capsys):
    path = tmp_path / "sigma.csv"
    code, _, _ = run(capsys, "optimize", "--domain", "disk:1", "--mu", "-6",
                     "--h", "0.06", "--dump-sigma", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "arc_length,sigma"
    arcs = [float(l.split(",")[0]) for l in lines[1:]]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert arcs == sorted(arcs)
    assert arcs[-1] < 2 * math.pi
    assert all(v < 0 for v in vals)


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--domain", "disk:1",
                       "--mu-from", "-30", "--mu-to", "-10",
                       "--mu-count", "3", "--h", "0.06")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("mu,s_mu,predicted_two_term,remainder,")
    assert len(lines) == 4
    mus = [float(l.split(",")[0]) for l in lines[1:]]
    assert mus == [-30.0, -20.0, -10.0]
    remainders = [abs(float(l.split(",")[3])) for l in lines[1:]]
    assert max(remainders) < 4.0
    # wall-clock column stays empty by default
    assert all(l.endswith(",") for l in lines[1:])


def test_sweep_eigen_cross_check_factorizes_nothing(monkeypatch, capsys):
    # each point's u_mu is already the ground state of its sigma_mu, so the
    # cross-check only confirms it
    in_eigen = []
    lus_in_eigen = []
    factorize, eigen = fem._factorize, fem.robin_principal_eigenvalue

    def counting_factorize(*args, **kwargs):
        if in_eigen:
            lus_in_eigen.append(1)
        return factorize(*args, **kwargs)

    def marked_eigen(*args, **kwargs):
        in_eigen.append(1)
        try:
            return eigen(*args, **kwargs)
        finally:
            in_eigen.pop()

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    monkeypatch.setattr(fem, "robin_principal_eigenvalue", marked_eigen)
    code, out, _ = run(capsys, "sweep", "--domain", "disk:1", "--h", "0.1",
                       "--mu-from", "-10", "--mu-to", "4", "--mu-count", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert lus_in_eigen == []


def test_sweep_factorizes_once_per_mesh(monkeypatch, capsys):
    # the one pole, 0, of the mesh's resolvent model; every root's resolvent
    # solve is the model's certified Galerkin solution, and E1 comes with
    # the model
    calls = []
    factorize = fem._factorize

    def counting_factorize(*args, **kwargs):
        calls.append(1)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting_factorize)
    code, out, _ = run(capsys, "sweep", "--domain", "disk:1", "--h", "0.1",
                       "--mu-from", "-20", "--mu-to", "8", "--mu-count", "8")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert len(calls) == 1


def test_sweep_partial_grid_exit_3(capsys):
    code, out, err = run(capsys, "sweep", "--domain", "disk:1",
                         "--mu-from", "-1e6", "--mu-to", "-5",
                         "--mu-count", "3", "--h", "0.07")
    assert code == 3
    assert "skipped" in err
    assert len(out.strip().splitlines()) >= 2


def test_sweep_empty_grid_exit_1(capsys):
    code, _, err = run(capsys, "sweep", "--domain", "disk:1",
                       "--mu-from", "-1e9", "--mu-to", "-1e8",
                       "--mu-count", "2", "--h", "0.07")
    assert code == 1
    assert "error:" in err


def test_heat_content_csv(capsys):
    code, out, _ = run(capsys, "heat-content", "--domain", "rect:1,1",
                       "--h", "0.05", "--t-count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,Q"
    qs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert qs[0] < 1.0


def test_heat_content_refused_factorization_is_one_error_line(
        monkeypatch, capsys):
    # a band Cholesky that reports a system not positive definite is a
    # SolverError: no SuperLU fallback and no traceback
    monkeypatch.setattr(fem, "dpbtrf", lambda band, **kwargs: (band, 1))
    code, out, err = run(capsys, "heat-content", "--domain", "disk:1",
                         "--h", "0.1")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "positive definite" in lines[0]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 1
    assert "optimality" in err and "blowup" in err


def test_verify_optimality_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "optimality",
                       "--domain", "disk:1", "--mu", "-10",
                       "--samples", "8", "--seed", "7", "--h", "0.06",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["runtime_s"] is None


def test_verify_blowup_table(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "blowup",
                       "--domain", "disk:1", "--format", "table")
    assert code == 0
    assert "pass" in out


def test_verify_mesh_domain_rejected(capsys):
    code, _, err = run(capsys, "verify", "--suite", "optimality",
                       "--domain", "mesh:/nonexistent")
    assert code == 1


def test_corner_coeff_value_and_refusal(capsys):
    code, out, _ = run(capsys, "corner-coeff", "--alpha",
                       str(math.pi / 2))
    assert code == 0
    assert float(out) == pytest.approx(4 / math.pi, abs=1e-10)
    code, _, err = run(capsys, "corner-coeff", "--alpha", "0.01")
    assert code == 1
    assert "refused" in err


def test_corner_coeff_grid(capsys):
    code, out, _ = run(capsys, "corner-coeff", "--grid", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,c"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_oracle_disk(capsys):
    code, out, _ = run(capsys, "oracle", "--domain", "disk:1", "--s", "-1",
                       "--sigma", "-5", "--mu", "-10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["F"] == pytest.approx(-2.804750874993502, rel=1e-11)
    assert payload["lambda_const_sigma"] < 0
    assert payload["lambda_mu"] < 0


def test_oracle_square_prediction_only(capsys):
    code, out, _ = run(capsys, "oracle", "--domain", "rect:1,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["leading_coefficient"] == pytest.approx(-1 / 16)
    code, _, err = run(capsys, "oracle", "--domain", "rect:1,1", "--s", "-1")
    assert code == 1


def test_mesh_path_domain(tmp_path, capsys):
    mesh = generate_mesh(Domain.disk(1.0), 0.08, boundary_layer_width=0.2)
    path = tmp_path / "disk.mesh"
    mesh.save(path)
    code, out, _ = run(capsys, "optimize", "--domain", f"mesh:{path}",
                       "--mu", "-5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistency"] == "ok"


def test_output_file_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "verify", "--suite", "blowup",
                         "--domain", "disk:1",
                         "--format", "json", "--output", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_usage_error_exit_code(capsys):
    assert main(["optimize", "--no-such-flag"]) == 1


@pytest.mark.parametrize("argv", [
    # options the subcommand would ignore, or print another format for
    ("sweep", "--mu-from", "-10", "--mu-to", "-5", "--format", "json"),
    ("heat-content", "--format", "json"),
    ("verify", "--suite", "blowup", "--format", "csv"),
    ("oracle", "--format", "csv"),
    ("oracle", "--h", "7"),
    # times that are not positive, never replaced by the defaults
    ("heat-content", "--t-from", "0"),
    ("heat-content", "--t-to", "0"),
    ("heat-content", "--t-from", "-1"),
])
def test_option_the_command_cannot_honour_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "usage:" in err and "error:" in err
    assert out == ""


def test_each_suite_alone_matches_its_report_in_all(capsys):
    argv = ("verify", "--h", "0.1", "--format", "json")
    samples = ("--samples", "2")  # the optimality suite's alone
    _, out, _ = run(capsys, *argv, *samples, "--suite", "all")
    reports = json.loads(out)["reports"]
    suites = ("optimality", "asymptotic", "heat", "blowup")
    assert len(reports) == len(suites)
    for suite, report in zip(suites, reports):
        extra = samples if suite == "optimality" else ()
        code, out, _ = run(capsys, *argv, *extra, "--suite", suite)
        assert code == (0 if report["pass"] else 2), suite
        assert json.loads(out) == report, suite


@pytest.mark.parametrize("suite", ["asymptotic", "heat", "blowup"])
@pytest.mark.parametrize("option", [("--mu", "-10"), ("--samples", "100"),
                                    ("--seed", "0")])
def test_suite_refuses_an_option_it_ignores(monkeypatch, capsys, suite,
                                            option):
    # even at its default value, and before any mesh is built
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(robinopt.geometry, "generate_mesh", no_mesh)
    code, out, err = run(capsys, "verify", "--suite", suite, *option)
    assert code == 1
    assert f"error: --suite {suite} takes no {option[0]}" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("optimize", "--mu", "nan"),
    ("optimize", "--h", "nan"),
    ("optimize", "--h", "inf"),
    ("optimize", "--tol", "nan"),
    ("sweep", "--mu-from", "-10", "--mu-to", "nan"),
    ("sweep", "--mu-from", "inf", "--mu-to", "-5"),
    ("heat-content", "--t-from", "nan"),
    ("heat-content", "--t-to", "inf"),
    ("verify", "--suite", "blowup", "--mu", "nan"),
    ("corner-coeff", "--alpha", "nan"),
    ("oracle", "--s", "inf"),
    ("oracle", "--sigma", "nan"),
    ("oracle", "--mu", "inf"),
    # domain specs: the factory names the parameter it rejects
    ("optimize", "--mu", "-1", "--domain", "disk:nan"),
    ("optimize", "--mu", "-1", "--domain", "disk:inf"),
    ("optimize", "--mu", "-1", "--domain", "disk:1e300"),
    ("optimize", "--mu", "-1", "--domain", "rect:1e-300,1"),
])
def test_non_finite_option_is_clean_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    expected = ("not a finite number" if "--domain" not in argv
                else "must be a finite positive length")
    assert "error:" in err and expected in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("value", ["0", "-1", str(10**9)])
@pytest.mark.parametrize("argv", [
    ("heat-content", "--t-count"),
    ("sweep", "--mu-from", "-10", "--mu-to", "-5", "--mu-count"),
    ("corner-coeff", "--grid"),
    ("verify", "--suite", "optimality", "--samples"),
])
def test_count_option_out_of_range_is_clean_error(capsys, argv, value):
    # refused while parsing, before any array is sized by the count
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"{argv[-1]}: '{value}' is not an integer from 1 to 10000" in err
    assert "Traceback" not in err and "ValueError" not in err
    assert out == ""
    assert peak < 1 << 20


@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_seed_out_of_range_is_clean_error(monkeypatch, capsys, value):
    # refused while parsing, before any mesh is built
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(robinopt.geometry, "generate_mesh", no_mesh)
    code, out, err = run(capsys, "verify", "--suite", "optimality",
                         "--seed", value, "--h", "0.1", "--samples", "2")
    assert code == 1
    assert f"--seed: '{value}' is not a non-negative integer" in err
    assert "Traceback" not in err and "ValueError" not in err
    assert out == ""


@pytest.mark.parametrize("spec,expected", [
    ("ngon:1e9,1", "side count n"),
    ("ngon:inf,1", "side count n"),
    ("ngon:nan,1", "side count n"),
    ("ngon:3.7,1", "side count n"),
    ("disk:,1", "empty or non-numeric"),
    ("rect:1,,1", "empty or non-numeric"),
])
def test_malformed_domain_spec_is_clean_error(capsys, spec, expected):
    code, out, err = run(capsys, "optimize", "--mu", "-1", "--domain", spec,
                         "--h", "0.1")
    assert code == 1
    assert "error:" in err and expected in err
    assert "Traceback" not in err
    assert out == ""


# unit square split into four triangles around its centre node
_SQUARE_MESH = ("5 4 4\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
                "0 1 4\n1 2 4\n2 3 4\n3 0 4\n0 1\n1 2\n2 3\n3 0\n")


@pytest.mark.parametrize("good,bad", [
    ("5 4 4", "5.5 4 4"),
    ("3 0 4\n", "3 0 5\n"),
    ("3 0 4\n", "3 -5 4\n"),
    ("0.5 0.5", "0.5 nan"),
    # the same square split into two triangles: every node on the boundary
    (_SQUARE_MESH[:_SQUARE_MESH.index("0 1\n")],
     "4 2 4\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"),
    # boundary edge 3-0 declared as the diagonal 3-1
    ("2 3\n3 0\n", "2 3\n3 1\n"),
    # boundary edge 3-0 dropped, with its count
    (_SQUARE_MESH, _SQUARE_MESH.replace("5 4 4", "5 4 3")[:-len("3 0\n")]),
    ("0 1 4\n", "99999999999999999999 1 4\n"),
    # the centre node moved onto node 1: triangle 0 has zero area
    ("0.5 0.5", "1 0"),
    # triangle 0 listed clockwise
    ("0 1 4\n", "1 0 4\n"),
    # a triangle index that is not an integer
    ("0 1 4\n", "0 1 4.5\n"),
    # the header declares no triangles and the body lists none
    ("5 4 4\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n0 1 4\n1 2 4\n2 3 4\n3 0 4\n",
     "5 0 4\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"),
], ids=["non-integer header", "index >= N", "negative index",
        "NaN coordinate", "no interior node", "wrong boundary edge",
        "dropped boundary edge", "index beyond int64", "zero-area triangle",
        "reversed triangle", "fractional index", "no triangles"])
def test_malformed_mesh_file_is_clean_error(tmp_path, capsys, good, bad):
    assert good in _SQUARE_MESH
    path = tmp_path / "bad.mesh"
    path.write_text(_SQUARE_MESH.replace(good, bad, 1))
    code, out, err = run(capsys, "optimize", "--domain", f"mesh:{path}",
                         "--mu", "-0.1")
    assert code == 1
    assert "error: mesh file" in err
    assert "Traceback" not in out + err


def test_cli_import_leaves_integrate_and_optimize_unloaded():
    # scipy.integrate and scipy.optimize are imported lazily, inside the
    # corner coefficient and the disk root-finds; a sweep on the disk needs
    # neither, and scipy.optimize alone adds about 12 MB of resident memory
    code = ("import os, sys, robinopt.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in ('scipy.integrate', 'scipy.optimize')"
            " if m in sys.modules)\n"
            "print(loaded())\n"
            "code = robinopt.cli.main(['sweep', '--domain', 'disk:1', '--h', "
            "'0.1', '--mu-from', '-5', '--mu-to', '3', '--mu-count', '3', "
            "'--output', os.devnull])\n"
            "print(code, loaded())\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(robinopt.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "0 []"]


@pytest.mark.parametrize("threads", [None, "3"])
def test_import_leaves_the_callers_openblas_setting(threads):
    # robinopt loads scipy's OpenBLAS single-threaded only when the caller
    # set no thread count, and leaves the environment as it found it
    code = ("import os, robinopt\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(robinopt.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(threads)


def test_import_warns_when_scipy_linalg_came_first():
    # scipy.linalg loaded first with no thread count of 1 for OpenBLAS
    # (OPENBLAS_NUM_THREADS, else its fallback OMP_NUM_THREADS) leaves
    # scipy's OpenBLAS multi-threaded: importing robinopt then warns on
    # stderr, and only then; the CLI's stdout is the same in every case
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(robinopt.__file__)))
    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    for name in names:
        env.pop(name, None)
    outs = set()
    for first in ("scipy.linalg", "robinopt"):
        code = (f"import {first}, robinopt.cli, scipy.linalg\n"
                "robinopt.cli.main(['optimize', '--domain', 'disk:1', "
                "'--mu', '-4', '--h', '0.2'])\n")
        for setting, multi in (({}, True),
                               ({"OPENBLAS_NUM_THREADS": "1"}, False),
                               ({"OMP_NUM_THREADS": "1"}, False),
                               ({"OMP_NUM_THREADS": "2"}, True)):
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=dict(env, **setting), check=True,
                                  capture_output=True, text=True)
            warned = first == "scipy.linalg" and multi
            assert ("RuntimeWarning" in proc.stderr) == warned, setting
            if warned:
                assert "OPENBLAS_NUM_THREADS=1" in proc.stderr
            outs.add(proc.stdout)
    assert len(outs) == 1 and "lambda_mu" in outs.pop()


# runs main on each argv of argv[1] (JSON) in one interpreter, counting the
# calls of build_parser from before robinopt.cli is imported
_IN_ONE_PROCESS = """
import contextlib, io, json, sys
builds = []
sys.setprofile(lambda frame, event, arg: builds.append(1) if (
    event == "call" and frame.f_code.co_name == "build_parser") else None)
import robinopt.cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = robinopt.cli.main(argv)
    results.append([code, out.getvalue()])
sys.setprofile(None)
print(json.dumps({"builds": len(builds), "results": results}))
"""


def test_main_reuses_one_parser_across_calls():
    # the parser is built once, at import; every later call parses with it
    # and prints what a fresh interpreter prints for the same arguments
    sweep = ["sweep", "--domain", "disk:1", "--h", "0.2", "--mu-from", "-2",
             "--mu-to", "1", "--mu-count", "3"]
    calls = [sweep, ["sweep", "--domain", "disk:1"],
             ["oracle", "--domain", "disk:1", "--s", "-1", "--sigma", "-5",
              "--format", "json"], sweep]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(robinopt.__file__)))
    one = subprocess.run([sys.executable, "-c", _IN_ONE_PROCESS,
                          json.dumps(calls)], env=env, check=True,
                         capture_output=True, text=True)
    report = json.loads(one.stdout.splitlines()[-1])
    assert report["builds"] == 1
    codes = []
    for argv, (code, out) in zip(calls, report["results"]):
        fresh = subprocess.run([sys.executable, "-m", "robinopt.cli", *argv],
                               env=env, capture_output=True)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [0, 1, 0, 0]
    assert report["results"][0] == report["results"][3]
