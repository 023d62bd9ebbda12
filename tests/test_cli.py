"""Command-line interface: summaries, exit codes, artifacts."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ljlayer import geometry, pipelines
from ljlayer.analysis import distance_score
from ljlayer.cli import build_parser, main
from ljlayer.core import LjParams, Schedule
from ljlayer.geometry import (MeshProjector, icosphere, load_obj, noise_score, normalize_mesh,
                              save_obj)
from ljlayer.pipelines import (Boundary, EmbedConfig, RefineWindow, bluenoise_2d, embed_compare,
                               redistribute_on_mesh, sigma_prime)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def summary_of(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    lines = [ln for ln in out.strip().split("\n") if ln]
    assert len(lines) == 1  # exactly one summary line on stdout
    return json.loads(lines[0])


@pytest.fixture()
def sphere_obj(tmp_path):
    path = tmp_path / "sphere.obj"
    save_obj(icosphere(1), path)
    return str(path)


# ---------------------------------------------------------------- summaries

def test_score_two_point_cloud(tmp_path, capsys):
    cloud = tmp_path / "pts.xyz"
    cloud.write_text("0 0\n0.25 0\n")
    s = summary_of(capsys, "score", "--cloud", str(cloud))
    assert s["command"] == "score"
    assert s["distance_score"] == pytest.approx(0.25)
    assert s["n"] == 2 and s["metric"] == "euclidean"


def test_score_periodic_metric(tmp_path, capsys):
    cloud = tmp_path / "pts.xyz"
    cloud.write_text("0.05 0.5\n0.95 0.5\n")
    s = summary_of(capsys, "score", "--cloud", str(cloud), "--metric", "periodic")
    assert s["distance_score"] == pytest.approx(0.1)


def test_score_with_mesh_reports_noise(tmp_path, capsys, sphere_obj):
    cloud = tmp_path / "pts.xyz"
    cloud.write_text("0 0 2\n0 0 -2\n")
    s = summary_of(capsys, "score", "--cloud", str(cloud), "--mesh", sphere_obj)
    assert 0.9 < s["noise_score"] < 1.1  # roughly one radius off the sphere


def test_bluenoise_summary_echoes_config(tmp_path, capsys):
    out = tmp_path / "pts.xyz"
    rep = tmp_path / "rep.json"
    s = summary_of(capsys, "bluenoise", "--n", "32", "--max-iter", "20",
                   "--out", str(out), "--report", str(rep))
    for key in ("n", "seed", "boundary", "epsilon", "sigma", "sigma_mult",
                "alpha", "beta", "k", "tol", "max_iter", "iterations",
                "final_max_disp", "distance_score"):
        assert key in s, key
    assert s["boundary"] == "periodic" and s["seed"] == 0
    assert s["iterations"] == 20
    report = json.loads(rep.read_text())
    assert len(report["trace"]["distance_score"]) == 20
    assert report["stop_reason"] == "max_iter"
    assert 1 <= report["knn_rebuilds"] <= 21
    pts = np.loadtxt(out)
    assert pts.shape == (32, 2)


def test_bluenoise_accepts_initial_cloud(tmp_path, capsys):
    src = tmp_path / "init.xyz"
    src.write_text("\n".join(f"{x} {y}" for x, y in
                             np.random.default_rng(0).random((12, 2))))
    s = summary_of(capsys, "bluenoise", "--cloud", str(src), "--max-iter", "5")
    assert s["n"] == 12 and s["cloud"] == str(src)


def test_embed_compare_summary(capsys):
    s = summary_of(capsys, "embed", "--n", "40", "--t", "30", "--ss", "18",
                   "--tprime", "28", "--compare")
    for key in ("t", "ss", "tprime", "alpha", "beta", "pull", "noise0",
                "noise_decay", "distance_increment", "noise_increment", "ratio",
                "distance_score_base", "noise_score_base"):
        assert key in s, key
    assert s["compare"] is True
    assert s["iterations"] == 30


def test_embed_mesh_compare_equals_embed_compare_on_the_normalized_mesh(tmp_path, capsys,
                                                                       sphere_obj):
    out = tmp_path / "cli.xyz"
    s = summary_of(capsys, "embed", "--mesh", sphere_obj, "--n", "30", "--t", "20", "--seed", "2",
                   "--compare", "--out", str(out))
    window = RefineWindow.default_window(20)
    config = EmbedConfig(n=30, total=20, start=window.start, stop=window.stop, seed=2)
    report, _, (cloud, run) = embed_compare(
        config, surface=MeshProjector(normalize_mesh(load_obj(sphere_obj))))
    scores = {k.removesuffix("_ljl"): v for k, v in asdict(report).items()}
    assert {k: s[k] for k in scores} == scores
    assert s["iterations"] == run.iterations
    geometry.write_xyz(cloud, tmp_path / "lib.xyz")
    assert out.read_bytes() == (tmp_path / "lib.xyz").read_bytes()


def test_embed_zero_steps_reports_the_noise_score(capsys):
    s = summary_of(capsys, "embed", "--t", "0")
    c = summary_of(capsys, "embed", "--t", "0", "--compare")
    assert s["iterations"] == 0
    assert s["noise_score"] is not None and s["noise_score"] > 0
    assert (s["distance_score"], s["noise_score"]) == (c["distance_score"], c["noise_score"])


def test_embed_stdout_does_not_depend_on_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    for extra in (["--compare"], []):
        argv = ["embed", "--n", "40", "--t", "30", "--seed", "3", *extra]
        _, plain = run_cli(capsys, *argv, "--out", str(tmp_path / "a.xyz"))
        _, traced = run_cli(capsys, *argv, "--out", str(tmp_path / "b.xyz"), "--report", str(rep))
        assert traced.replace(json.dumps(str(rep)), "null").replace("b.xyz", "a.xyz") == plain
        assert (tmp_path / "a.xyz").read_bytes() == (tmp_path / "b.xyz").read_bytes()
        report = json.loads(rep.read_text())
        assert len(report["trace"]["distance_score"]) == len(report["trace"]["noise_score"]) == 30
        assert report["knn_rebuilds"] >= 1


def test_embed_default_window_from_t(capsys):
    s = summary_of(capsys, "embed", "--n", "30", "--t", "40")
    assert (s["ss"], s["tprime"]) == (24, 38)  # 0.6*t and 0.95*t


def test_redistribute_summary(tmp_path, capsys, sphere_obj):
    out = tmp_path / "out.xyz"
    s = summary_of(capsys, "redistribute", "--mesh", sphere_obj, "--n", "50",
                   "--max-iter", "40", "--out", str(out))
    assert s["noise_score"] < 1e-6
    assert s["iterations"] >= 1
    assert np.loadtxt(out).shape == (50, 3)


def test_redistribute_zero_steps_reports_the_projected_scores(capsys, sphere_obj):
    s = summary_of(capsys, "redistribute", "--mesh", sphere_obj, "--n", "30", "--seed", "4",
                   "--max-iter", "0")
    assert s["iterations"] == 0
    mesh = normalize_mesh(load_obj(sphere_obj))
    cloud0 = np.random.default_rng(4).uniform(-1.0, 1.0, (30, 3))
    cloud, _ = redistribute_on_mesh(cloud0, mesh, max_iter=0)
    assert s["distance_score"] == distance_score(cloud)
    assert s["noise_score"] == noise_score(cloud, mesh) < 1e-9


@pytest.mark.parametrize("k", [1, 3])
def test_relax_summaries_score_the_final_cloud(capsys, sphere_obj, k):
    for boundary in ("periodic", "fixed"):
        s = summary_of(capsys, "bluenoise", "--n", "120", "--seed", "5", "--k", str(k),
                       "--boundary", boundary, "--max-iter", "30")
        assert s["iterations"] == 30
        params = LjParams(epsilon=2.0, sigma=sigma_prime(120), k=k)
        b = Boundary(boundary)
        cloud, _ = bluenoise_2d(120, b, params, Schedule(alpha=0.5, beta=0.01), max_iter=30, seed=5)
        assert s["distance_score"] == distance_score(cloud, b.metric)
    s = summary_of(capsys, "redistribute", "--mesh", sphere_obj, "--n", "60", "--seed", "2",
                   "--k", str(k), "--max-iter", "25")
    assert s["iterations"] == 25
    mesh = normalize_mesh(load_obj(sphere_obj))
    cloud0 = np.random.default_rng(2).uniform(-1.0, 1.0, (60, 3))
    params = LjParams(epsilon=2.0, sigma=sigma_prime(60) * 5.0, k=k)
    cloud, _ = redistribute_on_mesh(cloud0, mesh, params, max_iter=25, seed=2)
    assert s["distance_score"] == distance_score(cloud)
    assert s["noise_score"] == noise_score(cloud, mesh)


def test_analyze_summary_and_artifacts(tmp_path, capsys):
    clouds = []
    for seed in (0, 1):
        p = tmp_path / f"c{seed}.xyz"
        np.savetxt(p, np.random.default_rng(seed).random((64, 2)))
        clouds.append(str(p))
    csv = tmp_path / "profile.csv"
    pgm = tmp_path / "spec.pgm"
    s = summary_of(capsys, "analyze", "--cloud", clouds[0], "--cloud", clouds[1],
                   "--fmax", "8", "--csv", str(csv), "--pgm", str(pgm))
    assert s["runs"] == 2 and s["fmax"] == 8
    assert 1 <= s["r_peak"] <= 8
    assert csv.read_text().startswith("radius,radial_power,anisotropy_db\n")
    assert pgm.read_text().startswith("P2\n17 17\n255\n")


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    s = summary_of(capsys, "sweep", "--axis", "alpha", "--values", "0.0,2.5",
                   "--seeds", "2", "--n", "20", "--t", "20", "--out", str(out))
    assert s["rows"] == 4
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("value,seed,")


def test_alpha_denoise_sweep_reports_the_preset_it_runs(tmp_path, capsys):
    # the axis runs EmbedConfig.denoising(), whatever the window and refiner flags say
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    s = summary_of(capsys, "sweep", "--axis", "alpha_denoise", "--values", "0.3", "--seeds", "1",
                   "--n", "20", "--t", "20", "--out", str(a))
    t = summary_of(capsys, "sweep", "--axis", "alpha_denoise", "--values", "0.3", "--seeds", "1",
                   "--n", "100", "--t", "60", "--beta", "0.5", "--noise-decay", "0.5",
                   "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    preset = EmbedConfig.denoising()
    for summary in (s, t):
        assert ([summary[key] for key in ("n", "t", "ss", "tprime", "beta", "noise_decay")]
                == [100, 60, 36, 57, preset.beta, preset.noise_decay])


@pytest.mark.parametrize("axis, values, swept", [
    ("ss", "14,16", "ss"), ("alpha", "0.5,2.5", "alpha"), ("beta", "0.02", "beta"),
    ("alpha_denoise", "0.5", "alpha")])
def test_sweep_summary_nulls_the_swept_flag(tmp_path, capsys, axis, values, swept):
    # each row ran its own value, listed in values; the flag's own value ran in none
    s = summary_of(capsys, "sweep", "--axis", axis, "--values", values, "--seeds", "1",
                   "--n", "20", "--t", "20", "--out", str(tmp_path / "s.csv"))
    assert s[swept] is None
    assert s["values"] == [float(v) for v in values.split(",")]
    assert [key for key in ("ss", "tprime", "alpha", "beta") if s[key] is None] == [swept]


@pytest.mark.parametrize("command", ["bluenoise", "redistribute", "embed", "analyze", "score",
                                     "sweep"])
def test_summary_holds_every_parsed_flag(tmp_path, capsys, sphere_obj, command):
    cloud = tmp_path / "c.xyz"
    np.savetxt(cloud, np.random.default_rng(0).random((24, 2)))
    argv = {
        "bluenoise": ["--n", "32", "--max-iter", "5"],
        "redistribute": ["--mesh", sphere_obj, "--n", "20", "--max-iter", "5"],
        "embed": ["--n", "20", "--t", "10", "--compare"],
        "analyze": ["--cloud", str(cloud), "--fmax", "4"],
        "score": ["--cloud", str(cloud)],
        "sweep": ["--axis", "alpha", "--values", "1", "--seeds", "1", "--n", "20", "--t", "10",
                  "--out", str(tmp_path / "s.csv")],
    }[command]
    parsed = vars(build_parser().parse_args([command, *argv]))
    s = summary_of(capsys, command, *argv)
    assert sorted(set(parsed) - {"func"} - set(s)) == []


def test_the_parser_is_built_at_the_first_main_call():
    probe = ("from ljlayer import cli; sizes = [cli._parser.cache_info().currsize]; "
             "cli.main(['polish']); cli.main(['polish']); "
             "print(sizes + [cli._parser.cache_info().currsize, cli._parser.cache_info().misses])")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert run.stdout == "[0, 1, 1]\n"


def test_parsed_flags_do_not_leak_between_calls(capsys):
    # the parser is built once per process; a resolved value must not stick to it
    first = run_cli(capsys, "embed", "--t", "40")
    second = run_cli(capsys, "embed", "--t", "40", "--ss", "30")
    third = run_cli(capsys, "embed", "--t", "40")
    assert first == third
    assert json.loads(first[1])["ss"] == 24 and json.loads(second[1])["ss"] == 30


# -------------------------------------------------------------- exit codes

def test_unknown_command_exits_2(capsys):
    assert main(["polish"]) == 2


def test_invalid_flag_value_exits_2(capsys):
    assert main(["bluenoise", "--boundary", "spherical"]) == 2


def test_non_finite_parameters_exit_2(capsys):
    # rejected up front, not after a run that turns the cloud non-finite
    assert main(["bluenoise", "--n", "16", "--beta", "inf"]) == 2
    assert "beta must be a finite number" in capsys.readouterr().err
    assert main(["bluenoise", "--n", "16", "--tol", "nan"]) == 2
    assert "tol must be a finite number" in capsys.readouterr().err


def test_negative_max_iter_exits_2(capsys, sphere_obj):
    for argv in (["bluenoise", "--n", "16"], ["redistribute", "--mesh", sphere_obj, "--n", "20"]):
        assert main(argv + ["--max-iter", "-1"]) == 2
        assert "max_iter must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bluenoise", "redistribute", "embed"])
def test_negative_seed_exits_2_naming_the_flag_and_value(capsys, sphere_obj, command):
    mesh = ["--mesh", sphere_obj] if command == "redistribute" else []
    assert main([command, *mesh, "--n", "20", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "got -1" in err and "Traceback" not in err, err


def test_invalid_window_exits_2(capsys):
    assert main(["embed", "--t", "100", "--ss", "101", "--tprime", "101"]) == 2


def test_empty_sweep_values_exit_2(tmp_path, capsys):
    code = main(["sweep", "--axis", "alpha", "--values", ",",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_sweep_without_seeds_exits_2(tmp_path, capsys):
    code = main(["sweep", "--axis", "alpha", "--values", "1", "--seeds", "0",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "at least one seed" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv, message", [
    ("--axis beta --values 0.01,-1 --seeds 2", "beta must be a finite number >= 0, got -1.0"),
    # the axis overrides --alpha in every row, yet the flag is checked too
    ("--axis alpha --values 0.5 --seeds 1 --alpha -1",
     "alpha must be a finite number >= 0, got -1.0"),
], ids=["beta-values", "alpha-flag"])
def test_bad_sweep_step_size_exits_2_before_any_refiner_step(tmp_path, capsys, refiner_steps,
                                                             argv, message):
    code = main(["sweep", *argv.split(), "--out", str(tmp_path / "s.csv")])
    assert code == 2 and refiner_steps == []
    assert capsys.readouterr().err == f"ljlayer: invalid configuration: {message}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("values, names", [("inf", ("ss", "inf")), ("nan", ("ss", "nan")),
                                           ("1e400", ("ss", "inf")),    # parses to inf
                                           ("1,abc", ("--values", "'abc'"))])
def test_bad_sweep_values_exit_2_naming_the_flag_and_value(tmp_path, capsys, values, names):
    code = main(["sweep", "--axis", "ss", "--values", values, "--seeds", "1",
                 "--n", "20", "--t", "20", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert all(name in err for name in names), err
    assert not (tmp_path / "s.csv").exists()


@pytest.fixture(scope="module")
def fuzz_argv(tmp_path_factory):
    """Per command, a fast valid argv: a mesh and a 2D cloud on disk, 20 points, few steps."""
    root = tmp_path_factory.mktemp("fuzz")
    save_obj(icosphere(1), root / "sphere.obj")
    geometry.write_xyz(np.random.default_rng(0).random((20, 2)), root / "c.xyz")
    relax = ["--n", "20", "--max-iter", "3"]
    return {"bluenoise": relax, "redistribute": ["--mesh", str(root / "sphere.obj"), *relax],
            "embed": ["--n", "20", "--t", "10"], "analyze": ["--cloud", str(root / "c.xyz")],
            "sweep": ["--axis", "alpha", "--values", "1", "--seeds", "1", "--n", "20", "--t", "10",
                      "--out", str(root / "s.csv")]}


def _numeric_flags():
    """(command, flag) for every flag parsed by a type, and sweep's --values list."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0]) for command, p in sub.choices.items()
            for action in p._actions if action.type is not None or action.dest == "values"]


_FUZZ_TOKENS = ["nan", "inf", "-inf", "1e400", "0", "-1", "2.5", "abc", ""]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(flag=st.sampled_from(_numeric_flags()), token=st.sampled_from(_FUZZ_TOKENS))
def test_any_value_of_a_numeric_flag_exits_0_or_2_without_a_traceback(fuzz_argv, flag, token):
    # no large integers: --n and --fmax allocate in proportion to their value
    command, name = flag
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *fuzz_argv[command], name, token])
    assert code in (0, 2) and "Traceback" not in err.getvalue(), (code, err.getvalue())
    if name == "--sigma-mult" and code:     # named as given, not as the sigma it scales
        assert "sigma-mult" in err.getvalue() or "sigma_multiplier" in err.getvalue()


def test_fmax_beyond_memory_exits_2_naming_fmax_the_value_and_the_limit(tmp_path, capsys):
    geometry.write_xyz(np.random.default_rng(0).random((8, 2)), tmp_path / "c.xyz")
    assert main(["analyze", "--cloud", str(tmp_path / "c.xyz"),
                 "--fmax", "99999999999999999999"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"ljlayer: invalid configuration: fmax must be an integer "
                                      r"in \[1, \d+\], got 99999999999999999999\n", err), err


@pytest.mark.parametrize("command", ["bluenoise", "redistribute", "embed"])
def test_nonpositive_sigma_mult_exits_2_naming_the_flag_and_value(capsys, sphere_obj, command):
    mesh = ["--mesh", sphere_obj] if command == "redistribute" else []
    for value in ("-1", "0"):
        assert main([command, *mesh, "--n", "20", "--sigma-mult", value]) == 2
        err = capsys.readouterr().err
        name = "sigma_multiplier" if command == "embed" else "--sigma-mult"
        assert f"{name} must be a finite number > 0, got {float(value)}" in err, err


def test_memory_error_exits_2_with_one_line_and_no_traceback(monkeypatch, capsys):
    # stands in for an allocation too large for the machine, such as --n 100000000000
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape (100000000000, 2)")

    monkeypatch.setattr(pipelines, "bluenoise_2d", exhausted)
    assert main(["bluenoise", "--n", "100000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("ljlayer: out of memory: Unable to allocate 1.46 TiB for an "
                                 "array with shape (100000000000, 2)\n")


def test_wrong_dimension_cloud_exits_2(tmp_path, capsys):
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0\n1 1 1\n")
    assert main(["analyze", "--cloud", str(cloud)]) == 2  # needs 2D points


@pytest.mark.parametrize("command, rows, message", [
    ("score", "0 0\n", "nearest-neighbor query needs at least 2 points, got 1"),
    ("analyze", "0 0 0\n1 1 1\n", "cloud points must have shape (n, 2) with n >= 1, got (2, 3)"),
    ("bluenoise", "0 0 0\n1 1 1\n",
     "initial cloud points must have shape (n, 2) with n >= 1, got (2, 3)"),
    ("redistribute", "0 0\n1 1\n",
     "initial cloud points must have shape (n, 3) with n >= 1, got (2, 2)"),
], ids=["score", "analyze", "bluenoise", "redistribute"])
def test_bad_cloud_files_exit_2_naming_the_cloud(tmp_path, capsys, sphere_obj, command, rows,
                                                 message):
    cloud = tmp_path / "c.xyz"
    cloud.write_text(rows)
    mesh = ["--mesh", sphere_obj] if command == "redistribute" else []
    assert main([command, "--cloud", str(cloud), *mesh]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err, err


def test_extreme_cloud_coordinates_exit_2(tmp_path, capsys, sphere_obj):
    cloud = tmp_path / "far.xyz"
    cloud.write_text("0 0 1\n1e160 0 0\n0 1 0\n")
    assert main(["redistribute", "--mesh", sphere_obj, "--cloud", str(cloud)]) == 2
    assert "coordinates are too extreme" in capsys.readouterr().err


def test_malformed_number_exits_2_and_names_the_line(tmp_path, capsys):
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0\n1 zz\n")
    assert main(["score", "--cloud", str(cloud)]) == 2
    assert f"{cloud}:2: could not convert string to float: 'zz'" in capsys.readouterr().err
    mesh = tmp_path / "m.obj"
    for value in ("nan", "inf", "-inf"):
        cloud.write_text(f"0 0 0\n1 {value} 0\n")
        assert main(["score", "--cloud", str(cloud)]) == 2
        assert f"{cloud}:2: non-finite value '{value}'" in capsys.readouterr().err
        mesh.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 {value}\nf 1 2 3\n")
        cloud.write_text("0 0 0\n1 1 0\n")
        assert main(["score", "--cloud", str(cloud), "--mesh", str(mesh)]) == 2
        assert f"{mesh}:3: non-finite value '{value}'" in capsys.readouterr().err


def test_invalid_thread_cap_exits_2_from_every_command(tmp_path):
    # LJL_THREADS is read when ljlayer is imported, so each run is a fresh process
    geometry.write_xyz(np.random.default_rng(0).random((200, 2)), tmp_path / "c.xyz")
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    for argv in (["analyze", "--cloud", "c.xyz"], ["bluenoise", "--n", "100"],
                 ["score", "--cloud", "c.xyz"]):
        run = subprocess.run(
            [sys.executable, "-c", "import os, sys; from ljlayer.cli import main; "
             "print(os.environ.get('OMP_NUM_THREADS')); sys.exit(main(sys.argv[1:]))", *argv],
            cwd=tmp_path, env={**env, "LJL_THREADS": "zero"}, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (2, "None\n"), argv
        assert "LJL_THREADS must be a positive integer, got 'zero'" in run.stderr


def test_missing_file_exits_1(capsys, tmp_path):
    assert main(["score", "--cloud", str(tmp_path / "absent.xyz")]) == 1


def test_unwritable_output_exits_1(tmp_path, capsys):
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0\n0.5 0.5\n")
    code = main(["bluenoise", "--cloud", str(cloud), "--max-iter", "1",
                 "--out", str(tmp_path / "no" / "dir" / "out.xyz")])
    assert code == 1


# ------------------------------------------------------------- determinism

def test_bluenoise_rerun_is_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a.xyz", "b.xyz"):
        path = tmp_path / name
        code, stdout = run_cli(capsys, "bluenoise", "--n", "48", "--seed", "7",
                               "--max-iter", "25", "--out", str(path))
        assert code == 0
        outs.append((path.read_bytes(), stdout.replace(name, "")))
    assert outs[0][0] == outs[1][0]


def test_summary_is_sorted_json(capsys):
    _, out = run_cli(capsys, "embed", "--n", "20", "--t", "10", "--ss", "6",
                     "--tprime", "9")
    keys = list(json.loads(out).keys())
    assert keys == sorted(keys)


# ----------------------------------------------------------------- startup

_SPATIAL_AFTER = """
import json, sys
seen = []
def step(label, run):
    run()
    seen.append([label, "scipy.spatial" in sys.modules])
"""


def _spatial_loaded_after(steps, cwd):
    """Run steps in a fresh interpreter; [label, scipy.spatial loaded] after each."""
    out = subprocess.run([sys.executable, "-c", _SPATIAL_AFTER + steps + "print(json.dumps(seen))"],
                         cwd=cwd, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_commands_that_build_no_tree_never_load_scipy_spatial(tmp_path):
    # this process already holds scipy, so each check runs in a fresh one
    geometry.write_xyz(np.random.default_rng(1).random((2048, 2)), tmp_path / "c.xyz")
    steps = """
step("import ljlayer", lambda: __import__("ljlayer"))
step("import ljlayer.cli", lambda: __import__("ljlayer.cli"))
from ljlayer.cli import main
step("--help", lambda: main(["--help"]))
step("unknown command", lambda: main(["polish"]))
step("embed", lambda: main(["embed", "--seed", "3"]))
step("sweep", lambda: main(["sweep", "--axis", "alpha", "--values", "2.5", "--seeds", "1",
                            "--out", "s.csv"]))
step("analyze", lambda: main(["analyze", "--cloud", "c.xyz"]))
"""
    seen = _spatial_loaded_after(steps, tmp_path)
    assert len(seen) == 7
    assert [label for label, loaded in seen if loaded] == []


@pytest.mark.parametrize("steps", [
    "from ljlayer.neighbors import build_index\n"
    "import numpy as np\n"
    "step('128 points', lambda: build_index(np.random.default_rng(0).random((128, 2))))\n"
    "step('129 points', lambda: build_index(np.random.default_rng(0).random((129, 2))))\n",
    "from ljlayer.geometry import MeshProjector, icosphere\n"
    "step('icosphere', lambda: icosphere(0))\n"
    "step('projector', lambda: MeshProjector(icosphere(0)))\n",
], ids=["tree", "projector"])
def test_the_first_tree_loads_scipy_spatial(tmp_path, steps):
    assert [loaded for _, loaded in _spatial_loaded_after(steps, tmp_path)] == [False, True]
