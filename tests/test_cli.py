"""Command-line interface: summaries, exit codes, artifacts."""

import json

import numpy as np
import pytest

from ljlayer.analysis import distance_score
from ljlayer.cli import main
from ljlayer.geometry import icosphere, load_obj, noise_score, normalize_mesh, save_obj
from ljlayer.pipelines import redistribute_on_mesh


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
        assert "max_iter must be >= 0" in capsys.readouterr().err


def test_invalid_window_exits_2(capsys):
    assert main(["embed", "--t", "100", "--ss", "101", "--tprime", "101"]) == 2


def test_empty_sweep_values_exit_2(tmp_path, capsys):
    code = main(["sweep", "--axis", "alpha", "--values", ",",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_wrong_dimension_cloud_exits_2(tmp_path, capsys):
    cloud = tmp_path / "c.xyz"
    cloud.write_text("0 0 0\n1 1 1\n")
    assert main(["analyze", "--cloud", str(cloud)]) == 2  # needs 2D points


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
