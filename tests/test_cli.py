"""End-to-end command-line behaviour: outputs, formats, exit codes; and the
README's Python examples."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqes import cli, optimize, problems
from dqes.cli import main
from dqes.paulis import Observable, encode_observable, load_observable


def run_cli(*argv):
    return main(list(argv))


def child_env(**settings):
    """os.environ plus settings, with this checkout's src first on PYTHONPATH,
    for a child Python that imports dqes."""
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, **settings, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_mub_verify_passes(capsys):
    assert run_cli("mub", "verify", "2") == 0
    out = capsys.readouterr().out
    assert "n=2: 5 bases, 20 states" in out
    assert "max orthonormality deviation" in out
    assert "PASS" in out


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_mub_verify_rejects_a_non_finite_tolerance(capsys, tol):
    assert run_cli("mub", "verify", "2", "--tol", tol) == 1
    captured = capsys.readouterr()
    assert f"tolerance must be positive and finite, got {tol}" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_mub_verify_rejects_large_registers():
    with pytest.raises(SystemExit) as info:
        run_cli("mub", "verify", "4")
    assert info.value.code == 2


def test_mub_export_writes_json_and_sidecar(tmp_path, capsys):
    out = tmp_path / "mub1.json"
    assert run_cli("mub", "export", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 1
    assert len(doc["bases"]) == 3
    sidecar = json.loads((tmp_path / "mub1.json.manifest.json").read_text())
    assert sidecar["argv"][:3] == ["dqes", "mub", "export"]
    assert "output_sha256" in sidecar and "created_utc" in sidecar


def test_landscape_full_sweep_output(tmp_path, capsys):
    out = tmp_path / "h2.csv"
    assert run_cli("landscape", "--fixture", "H2_075", "--full", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "records: 20 (full sweep, K=2)" in printed
    assert "min energy: -1.82172107 at b0s1q1-2 (index 1)" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "index,subset,basis,state,energy"
    assert lines[1] == "0,1-2,0,0,-1.06658017"
    assert lines[2] == "1,1-2,0,1,-1.82172107"


def refused(path, w: str) -> str:
    """stderr of a command refusing the observable file at path, whose W is w."""
    return f"error: {path}: W = sum |coeff| = {w} must be at most 2^485 = 9.989595361011175e+145\n"


def test_landscape_rejects_terms_that_merge_to_infinity(tmp_path, capsys):
    obs = tmp_path / "big.json"
    obs.write_text('{"n": 1, "terms": [{"coeff": 1e308, "pauli": "Z"}, '
                   '{"coeff": 1e308, "pauli": "Z"}]}')
    out = tmp_path / "big.csv"
    assert run_cli("landscape", "--observable", str(obs), "--full", "--out", str(out)) == 1
    assert capsys.readouterr().err == refused(obs, "inf")
    assert not out.exists()


WIDE = '{"n": 2, "terms": [{"coeff": 1e308, "pauli": "ZI"}, {"coeff": 1e308, "pauli": "IZ"}]}'


def test_landscape_refuses_energies_past_the_float64_range(tmp_path, capsys):
    # each coefficient is finite, but ZI + IZ would be 2e308 on |00>: W = inf is
    # refused when the file is read, with one message and no RuntimeWarning
    obs = tmp_path / "wide.json"
    obs.write_text(WIDE)
    assert run_cli("landscape", "--observable", str(obs), "--full", "--out",
                   str(tmp_path / "wide.csv"), "--plot", str(tmp_path / "wide.svg")) == 1
    captured = capsys.readouterr()
    assert captured.err == refused(obs, "inf")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [obs]


@pytest.mark.parametrize("starts", [["random-1"], ["spec:0:0"], ["spec:0:0", "--strategy", "fit"]],
                         ids=["exact-spectrum", "spec-start", "spec-fit"])
def test_vqe_refuses_energies_past_the_float64_range(tmp_path, capsys, starts):
    # the landscape's 2e308 energy, which the exact spectrum and a spec start
    # would each reach: every start gets the one message, and no file is written
    obs = tmp_path / "wide.json"
    obs.write_text(WIDE)
    assert run_cli("vqe", "--observable", str(obs), "--init", *starts,
                   "--out", str(tmp_path / "vqe")) == 1
    captured = capsys.readouterr()
    assert captured.err == refused(obs, "inf")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [obs]


def test_vqe_imaginary_residue_bound_scales_with_the_observable(tmp_path, capsys):
    # at 1e8 a Haar-random start's residue, 1.7e-09, is rounding: about 9e-18 of W = 2e8
    obs = tmp_path / "c.json"
    obs.write_text('{"n": 2, "terms": [{"coeff": 1e8, "pauli": "ZI"}, '
                   '{"coeff": 1e8, "pauli": "XX"}]}')
    assert run_cli("vqe", "--observable", str(obs), "--init", "random-1",
                   "--out", str(tmp_path / "vqe")) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "vqe" / "summary.json").read_text())
    assert summary["exact_ground_energy"] == pytest.approx(-2**0.5 * 1e8, rel=1e-12)


ONE_TERM_1E308 = '{"n": 1, "terms": [{"coeff": 1e308, "pauli": "Z"}]}'


def test_landscape_energies_spanning_past_the_float64_range_print_no_warning(tmp_path):
    # energies +-1e308 would have an inf distance and basis variance; W = 1e308
    # is refused first, and the child prints the message and no RuntimeWarning
    obs = tmp_path / "span.json"
    obs.write_text(ONE_TERM_1E308)
    done = subprocess.run([sys.executable, "-m", "dqes", "landscape", "--observable", str(obs),
                           "--full", "--out", str(tmp_path / "span.csv")],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", refused(obs, "1e+308"))
    assert sorted(tmp_path.iterdir()) == [obs]


def test_landscape_plot_refuses_a_span_past_the_float64_range(tmp_path, capsys):
    # the padded energy axis from -1.1e308 to 1.1e308 would have no finite length
    obs = tmp_path / "span.json"
    obs.write_text(ONE_TERM_1E308)
    assert run_cli("landscape", "--observable", str(obs), "--full", "--out",
                   str(tmp_path / "span.csv"), "--plot", str(tmp_path / "span.svg")) == 1
    assert capsys.readouterr().err == refused(obs, "1e+308")
    assert sorted(tmp_path.iterdir()) == [obs]


# W = 2^485 split in two, so that records reach +-W: on |00> and |11>, or on
# |++> and |--> with an X basis and, for dqes vqe, eigh's path
AT_THE_BOUND = {"diagonal": ("ZI", "IZ"), "eigh": ("XI", "IX")}
COMMANDS_AT_THE_BOUND = {
    "landscape-full-plot": ["landscape", "--full", "--out", "{out}/l.csv", "--plot", "{out}/l.svg"],
    "landscape-k1-per-subset": ["landscape", "--k", "1", "--per-subset", "--out", "{out}/l.csv"],
    "vqe-random": ["vqe", "--init", "random-1", "--out", "{out}"],
    "vqe-spec-fit": ["vqe", "--init", "spec:0:0", "--strategy", "fit", "--out", "{out}"],
}


def observable_at_the_bound(path, letters, above: bool = False) -> Path:
    second = 2.0**484 + (2.0**433 if above else 0.0)  # one ulp of 2^485 is 2^433
    path.write_text(json.dumps({"n": 2, "terms": [{"coeff": 2.0**484, "pauli": letters[0]},
                                                  {"coeff": second, "pauli": letters[1]}]}))
    return path


def assert_every_number_is_finite(directory: Path) -> None:
    for path in directory.rglob("*"):
        if path.suffix == ".csv":
            header, *lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines]
            if header.startswith("index,subset,"):  # the subset column joins qubits by "-"
                rows = [row[:1] + row[2:] for row in rows]
            values = [float(v) for row in rows for v in row]
        elif path.suffix == ".svg":
            text = path.read_text()
            assert not re.search(r"inf|nan", text, re.IGNORECASE), path
            values = [float(v) for v in re.findall(r'="(-?[0-9.]+(?:e[+-]?[0-9]+)?)"', text)]
        elif path.name == "summary.json":
            values = []
            json.loads(path.read_text(), parse_float=lambda v: values.append(float(v)),
                       parse_constant=lambda name: pytest.fail(f"{path} holds {name}"))
        else:
            continue
        assert values and np.isfinite(values).all(), path


@pytest.mark.parametrize("command", list(COMMANDS_AT_THE_BOUND))
@pytest.mark.parametrize("shape", list(AT_THE_BOUND))
def test_commands_on_an_observable_at_the_bound_write_only_finite_numbers(
        tmp_path, capsys, shape, command):
    obs = observable_at_the_bound(tmp_path / "w.json", AT_THE_BOUND[shape])
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in COMMANDS_AT_THE_BOUND[command]]
    assert run_cli(argv[0], "--observable", str(obs), *argv[1:]) == 0
    assert capsys.readouterr().err == ""
    assert_every_number_is_finite(out)


@pytest.mark.parametrize("command", list(COMMANDS_AT_THE_BOUND))
def test_commands_on_an_observable_one_ulp_above_the_bound_write_nothing(
        tmp_path, capsys, command):
    obs = observable_at_the_bound(tmp_path / "w.json", AT_THE_BOUND["diagonal"], above=True)
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in COMMANDS_AT_THE_BOUND[command]]
    assert run_cli(argv[0], "--observable", str(obs), *argv[1:]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", refused(obs, "9.989595361011177e+145"))
    assert sorted(tmp_path.iterdir()) == [obs]


OUTSIDE_FLOAT64 = "terms[1].coeff is outside the float64 range, whose largest magnitude is " \
    "1.7976931348623157e+308"


@pytest.mark.parametrize("literal", ["1e400", "-1" + "0" * 400, "1" + "0" * 4300],
                         ids=["float-1e400", "int-401-digits", "int-4301-digits"])
def test_coefficients_outside_the_float64_range_get_one_message(tmp_path, capsys, literal):
    # a float literal parses to inf; a long integer would meet float()'s
    # OverflowError or, past 4,300 digits, the int conversion's digit limit
    obs = tmp_path / "big.json"
    obs.write_text('{"n": 1, "terms": [{"coeff": 1.0, "pauli": "X"}, '
                   '{"coeff": %s, "pauli": "Z"}]}' % literal)
    out = tmp_path / "big.csv"
    assert run_cli("landscape", "--observable", str(obs), "--full", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {obs}: {OUTSIDE_FLOAT64}\n"
    assert sorted(tmp_path.iterdir()) == [obs]


def test_observable_files_that_do_not_decode_exit_1_naming_the_file(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1, "terms": [{"coeff": 1%s, "pauli": "Z"}]}' % ("0" * 400))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff{"n": 1}')
    for path, message in ((huge, "terms[0].coeff is outside the float64 range"),
                          (binary, "codec can't decode byte 0xff")):
        for command in (("landscape", "--full", "--out", str(tmp_path / "x.csv")),
                        ("vqe", "--init", "top-1", "--out", str(tmp_path / "v"))):
            assert run_cli(command[0], "--observable", str(path), *command[1:]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and message in err, err
    assert sorted(tmp_path.iterdir()) == [binary, huge]


def test_landscape_partial_sweep_cardinality(tmp_path, capsys):
    prefix = tmp_path / "mc8"
    assert run_cli("problem", "gen", "maxcut", "--nodes", "8", "--edge-prob", "0.5",
                   "--seed", "42", "--out", str(prefix)) == 0
    assert "8 nodes, 12 edges" in capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert run_cli("landscape", "--observable", str(prefix) + ".json", "--k", "3",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "records: 4032 (partial sweep, K=3)" in printed
    assert "min energy: -6 at b0s7q1-2-8 (index 367)" in printed
    assert len(out.read_text().splitlines()) == 4033


def test_landscape_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("landscape", "--fixture", "ising_fig7", "--full", "--out", str(a))
    run_cli("landscape", "--fixture", "ising_fig7", "--full", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_landscape_unknown_fixture(tmp_path, capsys):
    assert run_cli("landscape", "--fixture", "nope", "--full",
                   "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert "unknown fixture" in err
    assert "H2_075" in err


def test_landscape_lih_hint(tmp_path, capsys):
    assert run_cli("landscape", "--fixture", "LiH_160", "--full",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert "observable JSON file" in capsys.readouterr().err


def test_landscape_rejects_malformed_observable_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "terms": [{"coeff": 1.0, "pauli": "Q"}]}')
    assert run_cli("landscape", "--observable", str(bad), "--k", "1",
                   "--out", str(tmp_path / "x.csv")) == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "invalid letter 'Q'" in err


def test_landscape_plot_groups_by_basis(tmp_path):
    svg_path = tmp_path / "plot.svg"
    run_cli("landscape", "--fixture", "ising_fig7", "--full",
            "--out", str(tmp_path / "x.csv"), "--plot", str(svg_path))
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "generated by dqes" in svg
    # 9 bases for n = 3, one fill colour per basis
    fills = {line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines() if "<circle" in line}
    assert len(fills) == 9
    assert (tmp_path / "plot.svg.manifest.json").exists()


def test_landscape_plot_must_differ_from_out(tmp_path, capsys):
    # the SVG may be neither the CSV nor its sidecar, and its sidecar not the CSV
    csv = tmp_path / "a.csv"
    for out, plot in ((csv, csv), (csv, tmp_path / "sub" / ".." / "a.csv"),
                      (csv, tmp_path / "a.csv.manifest.json"),
                      (tmp_path / "p.svg.manifest.json", tmp_path / "p.svg")):
        assert run_cli("landscape", "--fixture", "H2_075", "--full",
                       "--out", str(out), "--plot", str(plot)) == 1
        err = capsys.readouterr().err
        assert f"--plot {plot}" in err and f"--out {out}" in err
        assert not list(tmp_path.iterdir())


def test_landscape_outputs_must_not_overwrite_the_observable(tmp_path, capsys, monkeypatch):
    # neither output nor its sidecar may be the input, and the check comes before the sweep
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_full_dqes", no_sweep)
    h2 = tmp_path / "h2.json"
    sidecar_named = tmp_path / "h2.csv.manifest.json"
    for path in (h2, sidecar_named):
        path.write_text(encode_observable(problems.fixture("H2_075")))
    inputs = {path: path.read_bytes() for path in (h2, sidecar_named)}
    for source, flag, path in ((h2, "--out", h2), (h2, "--plot", h2),
                               (h2, "--out", tmp_path / "sub" / ".." / "h2.json"),
                               (sidecar_named, "--out", tmp_path / "h2.csv"),
                               (sidecar_named, "--plot", tmp_path / "h2.csv")):
        other = "--plot" if flag == "--out" else "--out"
        assert run_cli("landscape", "--observable", str(source), "--full", flag, str(path),
                       other, str(tmp_path / "elsewhere" / "x")) == 1
        err = capsys.readouterr().err
        assert f"{flag} {path}" in err and f"--observable {source}" in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == inputs


def test_vqe_outputs_must_not_overwrite_the_observable(tmp_path, capsys, monkeypatch):
    # no run's file, the summary, nor any of their sidecars may be the input,
    # and the check comes before the first run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_vqe", no_run)
    out = tmp_path / "D"
    out.mkdir()
    for name, init in (("summary.json", "top-1"), ("trace_b0s1q1-2.csv", "top-1"),
                       ("trace_random0.csv.manifest.json", "top-1,random-1"),
                       ("summary.json.manifest.json", "random-1")):
        source = out / name
        source.write_text(encode_observable(problems.fixture("H2_075")))
        before = source.read_bytes()
        assert run_cli("vqe", "--observable", str(source), "--init", init,
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--out" in err and f"--observable {source}" in err
        assert [p.name for p in out.iterdir()] == [name]
        assert source.read_bytes() == before
        source.unlink()


def test_landscape_refuses_a_directory_output_before_the_sweep(tmp_path, capsys, monkeypatch):
    # the CSV would otherwise be written before the SVG's write failed on the directory
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_full_dqes", no_sweep)
    d, sidecar, plain = tmp_path / "d", tmp_path / "p.svg.manifest.json", tmp_path / "f"
    d.mkdir()
    sidecar.mkdir()
    plain.write_text("")
    csv, svg = tmp_path / "x.csv", tmp_path / "p.svg"
    for out, plot, flag, path, reason in (
            (csv, d, "--plot", d, "is a directory"), (d, svg, "--out", d, "is a directory"),
            (csv, svg, "--plot", svg, "is a directory"),
            (csv, plain / "sub" / "p.svg", "--plot", plain / "sub" / "p.svg",
             f"{plain} is not a directory")):
        assert run_cli("landscape", "--fixture", "H2_075", "--full",
                       "--out", str(out), "--plot", str(plot)) == 1
        err = capsys.readouterr().err
        assert f"{flag} {path}" in err and reason in err
        assert sorted(tmp_path.iterdir()) == [d, plain, sidecar]
        assert not list(d.iterdir()) and not list(sidecar.iterdir())


def test_vqe_refuses_a_directory_output_before_the_first_run(tmp_path, capsys, monkeypatch):
    # a summary.json directory would otherwise fail the last write, after the traces
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_vqe", no_run)
    out = tmp_path / "v"
    for name in ("summary.json", "trace_b0s1q1-2.csv.manifest.json"):
        (out / name).mkdir(parents=True)
        assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"--out {out}" in err and f"{out / name} is a directory" in err
        assert [p.name for p in out.iterdir()] == [name]
        assert not list((out / name).iterdir())
        (out / name).rmdir()


def test_mub_export_and_problem_gen_refuse_a_directory_output(tmp_path, capsys):
    # with the second file blocked, the first would otherwise be written before the error
    for argv, blocked in ((["mub", "export", "1", "--out", "m.json"], "m.json.manifest.json"),
                          (["problem", "gen", "maxcut", "--nodes", "4", "--seed", "1",
                            "--out", "g"], "g.json"),
                          (["problem", "gen", "fixture", "H2_075", "--out", "h.json"], "h.json")):
        (tmp_path / blocked).mkdir()
        assert run_cli(*argv[:-1], str(tmp_path / argv[-1])) == 1
        assert f"--out {tmp_path / argv[-1]}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [blocked]
        (tmp_path / blocked).rmdir()


def test_vqe_checks_max_evals_against_the_parameters_before_any_work(tmp_path, capsys,
                                                                       monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_partial_dqes", "run_vqe"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "v"
    for layers, evals, parameters in (("1", "5", 4), ("2", "7", 6)):
        assert run_cli("vqe", "--fixture", "H2_075", "--strategy", "fit", "--init", "top-3",
                       "--layers", layers, "--max-evals", evals, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"--max-evals {evals}" in err and f"+ 2 = {parameters + 2}" in err
        assert not out.exists()
    monkeypatch.undo()
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "random-1", "--max-evals", "6",
                   "--out", str(out)) == 0


def test_vqe_k_sets_the_ranking_sweep_at_any_n(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli("vqe", "--fixture", "ising_fig8", "--k", "1", "--init", "top-2",
                   "--max-evals", "8", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [run["label"] for run in summary["runs"]] == ["b0s1q2", "b1s1q2"]
    assert run_cli("vqe", "--fixture", "H2_075", "--k", "3", "--init", "top-1",
                   "--out", str(tmp_path / "w")) == 1
    assert "subset size 3 exceeds register size 2" in capsys.readouterr().err


def test_vqe_checks_k_whatever_the_starts(tmp_path, capsys):
    out = tmp_path / "w"
    assert run_cli("vqe", "--fixture", "H2_075", "--k", "3", "--init", "random-1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "--k 3" in err and "register size 2" in err
    assert not out.exists()


def test_landscape_prints_the_ties_at_the_minimum(tmp_path, capsys):
    for fixture, ties in (("H2_075", 1), ("ising_fig8", 2)):
        assert run_cli("landscape", "--fixture", fixture, "--full",
                       "--out", str(tmp_path / "x.csv")) == 0
        assert f"records within 1e-12 of the min: {ties}\n" in capsys.readouterr().out


def test_landscape_sweeps_past_the_state_vector_cap(tmp_path, capsys):
    ising = tmp_path / "ising20.json"
    assert run_cli("problem", "gen", "ising", "--n", "20", "--czz", "0.61436456",
                   "--cx", "0.32435029", "--out", str(ising)) == 0
    out = tmp_path / "sweep.csv"
    assert run_cli("landscape", "--observable", str(ising), "--k", "3", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "records: 82080 (partial sweep, K=3)" in printed
    assert len(out.read_text().splitlines()) == 82081


def test_vqe_rejects_registers_above_the_state_vector_cap(tmp_path, capsys):
    ising = tmp_path / "ising20.json"
    assert run_cli("problem", "gen", "ising", "--n", "20", "--czz", "0.61436456",
                   "--cx", "0.32435029", "--out", str(ising)) == 0
    out = tmp_path / "v"
    assert run_cli("vqe", "--observable", str(ising), "--init", "top-1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "register size must be in [1, 12], got 20" in err
    assert not out.exists()


def test_vqe_h2_top3(tmp_path, capsys):
    out = tmp_path / "vqe"
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-3",
                   "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "exact ground energy: -1.84268669" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["exact_ground_energy"] + 1.8426866891) < 1e-9
    assert [run["label"] for run in summary["runs"]] == ["b0s1q1-2", "b1s1q1-2", "b1s2q1-2"]
    for run in summary["runs"]:
        assert run["evaluations"] <= 500
        assert abs(run["gap_to_exact"]) < 1.6e-3
        assert (out / f"trace_{run['label']}.csv").exists()
    header = (out / "trace_b0s1q1-2.csv").read_text().splitlines()[0]
    assert header == "eval,energy,theta_0,theta_1,theta_2,theta_3"


def test_vqe_prints_energies_at_the_bound_in_exponent_form(tmp_path, capsys):
    # 2^484 XI + 2^484 IX: in fixed point each energy would print about 150 digits
    obs = observable_at_the_bound(tmp_path / "w.json", AT_THE_BOUND["eigh"])
    assert run_cli("vqe", "--observable", str(obs), "--init", "spec:0:0,random-1",
                   "--strategy", "fit", "--out", str(tmp_path / "out")) == 0
    *runs, exact, wrote = capsys.readouterr().out.splitlines()
    energy = r"-?\d\.\d{8}e\+14[0-9]"
    assert len(runs) == 2
    for line in runs:
        assert re.fullmatch(rf"[\w-]+: initial -?\d\.\d{{8}}e\+\d{{3}} -> final {energy} "
                            r"in \d+ evals \([\w-]+\)", line), line
    assert exact == "exact ground energy: -9.98959536e+145"
    assert wrote.startswith("wrote ")


def test_vqe_on_an_observable_in_small_units(tmp_path, capsys):
    # H2 in units of 1e-8 Hartree: the eigensolver check scales with the spectrum
    h2 = problems.fixture("H2_075")
    small = tmp_path / "h2_small.json"
    small.write_text(encode_observable(Observable(h2.n, tuple((c * 1e8, p) for c, p in h2.terms))))
    out = tmp_path / "vqe"
    assert run_cli("vqe", "--observable", str(small), "--init", "top-1",
                   "--max-evals", "50", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["exact_ground_energy"] + 1.8426866891e8) < 1e-9 * 1e8


def test_vqe_on_an_observable_whose_terms_all_cancel(tmp_path, capsys):
    # XX - XX leaves no term: every energy and the exact ground energy are 0.0
    zero = tmp_path / "zero.json"
    zero.write_text('{"n": 2, "terms": [{"coeff": 1.0, "pauli": "XX"}, '
                    '{"coeff": -1.0, "pauli": "XX"}]}\n')
    out = tmp_path / "vqe"
    assert run_cli("vqe", "--observable", str(zero), "--init", "top-1",
                   "--max-evals", "20", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert '"exact_ground_energy": 0.0\n' in (out / "summary.json").read_text()


def test_vqe_solver_failure_leaves_no_output(tmp_path, monkeypatch):
    # every output is computed before the first is written; main lets the error through
    def fail(obs):
        raise RuntimeError("eigensolver failed")

    monkeypatch.setattr(problems, "exact_spectrum", fail)
    out = tmp_path / "D"
    with pytest.raises(RuntimeError, match="eigensolver failed"):
        run_cli("vqe", "--fixture", "H2_075", "--init", "top-2", "--out", str(out))
    assert not out.exists()


def test_vqe_single_qubit_writes_bloch_paths(tmp_path):
    out = tmp_path / "xy"
    assert run_cli("vqe", "--fixture", "xy1", "--init", "spec:1:1,spec:2:1",
                   "--out", str(out)) == 0
    # default axes for one qubit are YZ: 4 parameters
    trace = (out / "trace_b1s1q1.csv").read_text().splitlines()
    assert trace[0] == "eval,energy,theta_0,theta_1,theta_2,theta_3"
    bloch = (out / "bloch_b1s1q1.csv").read_text().splitlines()
    assert bloch[0] == "eval,x,y,z"
    # the first point is |-> on the Bloch sphere
    first = [float(v) for v in bloch[1].split(",")[1:]]
    assert np.allclose(first, [-1.0, 0.0, 0.0], atol=1e-9)
    summary = json.loads((out / "summary.json").read_text())
    assert all(abs(run["gap_to_exact"]) < 1e-3 for run in summary["runs"])


def test_vqe_builds_no_trace_entries(tmp_path, monkeypatch):
    # the trace CSV, the Bloch CSV and summary.json read the trace's columns
    def refuse(*args):
        raise AssertionError("dqes vqe built a TraceEntry")

    monkeypatch.setattr(optimize, "TraceEntry", refuse)
    for argv in (("--fixture", "xy1", "--init", "top-1"),
                 ("--fixture", "H2_075", "--strategy", "fit", "--init", "top-1,random-1")):
        out = tmp_path / argv[1]
        assert run_cli("vqe", *argv, "--out", str(out)) == 0
    assert (tmp_path / "xy1" / "bloch_b1s1q1.csv").exists()


def test_vqe_random_and_fit_strategies(tmp_path):
    out = tmp_path / "mix"
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-1,random-2",
                   "--seed", "5", "--strategy", "fit", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    labels = [run["label"] for run in summary["runs"]]
    assert labels == ["fit-b0s1q1-2", "random5", "random6"]
    assert summary["strategy"] == "fit"
    assert (out / "trace_fit-b0s1q1-2.csv").exists()


def test_vqe_rejects_bad_init_atoms(tmp_path, capsys):
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-0",
                   "--out", str(tmp_path / "v")) == 1
    assert "bad init atom" in capsys.readouterr().err
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "middle-3",
                   "--out", str(tmp_path / "v")) == 1
    assert "expected top-K" in capsys.readouterr().err
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "spec:1",
                   "--out", str(tmp_path / "v")) == 1
    assert "spec:BASIS:STATE" in capsys.readouterr().err
    # more starts than the ranking sweep has records
    assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-50",
                   "--out", str(tmp_path / "v")) == 1
    assert "error: --init top-50: the K=2 sweep has 20 records" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_vqe_rejects_non_integer_spec_fields(tmp_path, capsys):
    for atom, bad in (("spec:a:0", "a"), ("spec:0:0@1-x", "x")):
        assert run_cli("vqe", "--fixture", "H2_075", "--init", atom,
                       "--out", str(tmp_path / "v")) == 1
        err = capsys.readouterr().err
        assert f"bad init atom {atom!r}: {bad!r} is not an integer" in err
        assert "invalid literal" not in err


def test_vqe_rejects_duplicate_start_labels(tmp_path, capsys):
    # every run writes trace_<label>.csv, so repeated labels would overwrite traces
    for init, label in (("random-2,random-2", "random0"), ("top-2,spec:0:1", "b0s1q1-2")):
        out = tmp_path / "v"
        assert run_cli("vqe", "--fixture", "H2_075", "--init", init, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "duplicate start label" in err and label in err
        assert not out.exists()


def test_vqe_traces_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("vqe", "--fixture", "HeH+_100", "--init", "top-2", "--out", str(out))
    for name in ("trace_b0s1q1-2.csv", "trace_b0s0q1-2.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 of the data files (not the sidecars) of `dqes vqe ... --out DIR`; any
# change to the kernel, the optimizer or the writers that moves a bit fails here
VQE_OUTPUT_PINS = {
    ("--fixture", "xy1", "--init", "top-2"): {
        "trace_b1s1q1.csv": "38ff03cbf0629adb181222060acb4466151b778b82eb1b70108da3fb3add8ec0",
        "trace_b2s1q1.csv": "c8be5976ab6882e787ed15ead071deedd92fb02063f4d0fd40b55b0e01045248",
        "bloch_b1s1q1.csv": "443a4a2be5eed6572d48daf85ef09e1005a5c11696d55fe42daafa3a7392cfd5",
        "bloch_b2s1q1.csv": "12906fae3a49555ae4491baa687fcebb4308a66de64409bf61c4cb06d21d2575",
        "summary.json": "360cb7a9f20b4751b401b08dd44cf9ca856aa780ec926e179d243e456562a358",
    },
    ("--fixture", "H2_075", "--strategy", "fit", "--init", "top-1,random-1"): {
        "trace_fit-b0s1q1-2.csv": "85606ee811f5545cbeefd07b46ab056883f9f28d83f7d01a37676c5961fe0210",
        "trace_random0.csv": "b19eb34872ed4240ba12842b5e803eb4aae59b69bfab1bf47fc5a5bd2a410323",
        "summary.json": "3d35a4d9240c43f192312b82043ecf7d1068349f51e0aabe1068da456b5c9221",
    },
    # 43 evaluations cut the last 6-probe stencil after 4 probes
    ("--fixture", "ising_fig8", "--init", "top-1", "--max-evals", "43"): {
        "trace_b0s2q1-2-3.csv": "1ae83b466afb504853afc0758b189760ba1f027c7b1e0fe1ab6554a9091a798d",
        "summary.json": "e2a7dfcb37d9528abe41ac26f45d87dc8d51b6f984bd364f18fae43f30166ad3",
    },
    # |+i> is out of reach of a Y-only circuit, so the fit falls back to the MUB
    # state at zero, and evaluation 1 is the landscape record 1.0 exactly
    ("--fixture", "xy1", "--axes", "Y", "--strategy", "fit", "--init", "spec:2:0"): {
        "trace_fit-b2s0q1.csv": "28eeaa63c53cdedf4083c77a2f4a34c1f570802b2dfa39c8dda9cdb4734ae87f",
        "bloch_fit-b2s0q1.csv": "6d90c33a2a61f49ba0fef0613b40541db1ae9d0ecad694fa4900011ea8643a63",
        "summary.json": "71e5104ebd263804c9e0b061db571b339d5c77f06bae46f2d2dd6f1564254e09",
    },
}


def pin_id(argv):
    """The fixture, and the axes where a pin sets them."""
    return f"{argv[1]}-axes-{argv[argv.index('--axes') + 1]}" if "--axes" in argv else argv[1]


@pytest.mark.parametrize("argv", list(VQE_OUTPUT_PINS), ids=pin_id)
def test_vqe_outputs_match_their_frozen_hashes(tmp_path, argv):
    out = tmp_path / "vqe"
    assert run_cli("vqe", *argv, "--out", str(out)) == 0
    data = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert data == sorted(VQE_OUTPUT_PINS[argv])
    for name, digest in VQE_OUTPUT_PINS[argv].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# three fits of 2, 1 and 4 starts; the H2_075 pin above fits with one start only
MULTI_START_FIT_PINS = {
    "trace_fit-b0s1q1-2.csv": "85606ee811f5545cbeefd07b46ab056883f9f28d83f7d01a37676c5961fe0210",
    "trace_fit-b1s1q1-2.csv": "a2d09bba460fa8c1a61e1bf7b377d68f843364bee9a5f23442037f3e6311c590",
    "trace_fit-b1s2q1-2.csv": "e2284ed492ac623b978b568eb60e2356da0fb8c2e8fa059144482454e211eb66",
    "summary.json": "658c400f9667a6cd32d58d4063478b4339aaf9c07124a1e2e29e00ab79997139",
}


def test_vqe_multi_start_fit_outputs_match_their_frozen_hashes(tmp_path):
    out = tmp_path / "vqe"
    assert run_cli("vqe", "--fixture", "H2_075", "--strategy", "fit", "--init", "top-3",
                   "--out", str(out)) == 0
    data = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert data == sorted(MULTI_START_FIT_PINS)
    for name, digest in MULTI_START_FIT_PINS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# a 10-qubit, two-layer YZ run: the pins above are all at n <= 3 and one layer
# deep in CX chains; summary.json names the observable by its file stem.
# summary.json holds at a fixed BLAS thread count only: its exact ground energy
# comes from eigh of the dense 1024 x 1024 Ising matrix, whose last bits depend
# on the thread count (OPENBLAS_NUM_THREADS=1 writes -6.055133243287062, two
# threads ...061, and both gap_to_exact values move with it; the traces do not).
# A diagonal observable, with no X or Y letter, calls no eigh. The pins were
# taken at two threads, so the test runs the CLI in a child Python started with
# OPENBLAS_NUM_THREADS=2: numpy reads the count when it loads, and an outer
# setting would otherwise decide the bytes. (OpenBLAS caps the count at the
# CPUs it may use, so a one-CPU machine still writes the one-thread bytes.)
ISING10_PINS = {
    "trace_b0s7q2-4-7.csv": "772e8530a181f3c4dc82d0a2f0eff5d0aeb79facc65c854ca15e18600a562e13",
    "trace_random0.csv": "400df79426f3058a8b6e08c55258918a5ede03bb52773ebbe17db71029c32a4d",
    "summary.json": "851885a4ca7135117f36f9a61475b4d10ce64a0b2cf0c281bcbbd138fd49aaf6",
}


# runs each argv of the JSON list in argv[1] through dqes.cli.main, in order;
# exits 1 at the first that does not return 0
RUN_CLI_CALLS = ("import json, sys\nfrom dqes.cli import main\n"
                 "sys.exit(0 if all(main(argv) == 0 for argv in json.loads(sys.argv[1])) else 1)")


def test_vqe_ten_qubit_two_layer_outputs_match_their_frozen_hashes(tmp_path):
    observable, out = tmp_path / "ising10.json", tmp_path / "vqe"
    calls = [["problem", "gen", "ising", "--n", "10", "--czz", "0.61436456",
              "--cx", "0.32435029", "--out", str(observable)],
             ["vqe", "--observable", str(observable), "--k", "3",
              "--init", "top-1,random-1", "--layers", "2", "--axes", "YZ",
              "--max-evals", "200", "--out", str(out)]]
    done = subprocess.run([sys.executable, "-c", RUN_CLI_CALLS, json.dumps(calls)],
                          env=child_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    data = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert data == sorted(ISING10_PINS)
    for name, digest in ISING10_PINS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# sha256 of each `dqes landscape` data file, keyed by (`problem gen` argv, landscape
# argv); a generated observable is written first and read back with --observable
LANDSCAPE_OUTPUT_PINS = {
    ((), ("--fixture", "H2_075", "--full")): {
        "sweep.csv": "cf952c795a95ee1f47ff74bcde4c4998f08dbb925d2cb1ae3382f5d04f5d2aa7",
    },
    ((), ("--fixture", "HeH+_100", "--full")): {
        "sweep.csv": "0c9fa27e2f4d9fa92ce6eb3a94e720076a3ad37a01ae596e7006d6e656838a05",
    },
    ((), ("--fixture", "xy1", "--full")): {
        "sweep.csv": "c76207bb162d77e2fbc1834a721afe7a8920785ff73095e237d1521f96ec9ebb",
    },
    ((), ("--fixture", "ising_fig7", "--full")): {
        "sweep.csv": "b6825a6b3221598c2a95ca49b999498ce8a8e8cf085de4a84ba6dbb4e5e31f68",
    },
    ((), ("--fixture", "ising_fig8", "--full", "--plot")): {
        "sweep.csv": "061625912dfde263775ecfee6bb63e01ab1919f4dd3d517ba524d8cd9aa750df",
        "sweep.svg": "234512f399b8a9a34e9ebb5b4d566a6ef1a5034ba624b67f08beac6e42c8c97a",
    },
    (("ising", "--n", "10", "--czz", "0.61436456", "--cx", "0.32435029"), ("--k", "3")): {
        "sweep.csv": "d490eb165e5ab75c191d1930dde2663e34d925f63dedce714c4735494e6395d6",
    },
    (("maxcut", "--nodes", "8", "--seed", "42"), ("--k", "2")): {
        "sweep.csv": "b2902f1a906136a8a2a3dcd74769ff66351fac3749115a11720d940863b1147c",
    },
}


@pytest.mark.parametrize("gen, argv", list(LANDSCAPE_OUTPUT_PINS),
                         ids=[gen[0] if gen else argv[1] for gen, argv in LANDSCAPE_OUTPUT_PINS])
def test_landscape_outputs_match_their_frozen_hashes(tmp_path, gen, argv):
    pins, out = LANDSCAPE_OUTPUT_PINS[gen, argv], tmp_path / "out"
    if gen:
        # maxcut's --out is a prefix that gains .json; ising's is the file itself
        target = tmp_path / ("obs" if gen[0] == "maxcut" else "obs.json")
        assert run_cli("problem", "gen", *gen, "--out", str(target)) == 0
        argv = ("--observable", str(tmp_path / "obs.json"), *argv)
    if "--plot" in argv:
        argv = (*argv, str(out / "sweep.svg"))
    assert run_cli("landscape", *argv, "--out", str(out / "sweep.csv")) == 0
    data = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert data == sorted(pins)
    for name, digest in pins.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_vqe_rejects_non_finite_optimizer_settings(tmp_path, capsys):
    for flag, field in (("--rho-init", "rho_init"), ("--tol", "tol"),
                        ("--threshold", "threshold")):
        for bad in ("nan", "inf"):
            out = tmp_path / "v"
            assert run_cli("vqe", "--fixture", "H2_075", "--init", "top-1", flag, bad,
                           "--out", str(out)) == 1
            assert f"{field} must be finite, got {bad}" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("vqe", "--fixture", "H2_075", "--init", "random-1", "--seed", "-1"),
    ("vqe", "--fixture", "H2_075", "--strategy", "fit", "--init", "top-1", "--seed", "-3"),
    ("vqe", "--fixture", "H2_075", "--init", "top-1", "--seed", "-4"),
    ("problem", "gen", "maxcut", "--nodes", "3", "--seed", "-2"),
], ids=["vqe-random", "vqe-fit", "vqe-shift", "maxcut"])
def test_negative_seeds_are_rejected_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o1"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert f"--seed must be a non-negative integer, got {argv[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_module_entry_point_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "dqes", "--help"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: dqes")


def test_readme_python_examples_run(tmp_path):
    # each python block of README.md as a script, so the examples follow the API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=child_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout, block


def test_problem_gen_roundtrip_into_landscape(tmp_path, capsys):
    prefix = tmp_path / "g"
    assert run_cli("problem", "gen", "maxcut", "--nodes", "5", "--edge-prob", "0.6",
                   "--seed", "11", "--out", str(prefix)) == 0
    # the generator settings, then the nodes and the 6 edges the seed draws
    assert (tmp_path / "g.graph.txt").read_bytes() == \
        b"# seed 11 edge-prob 0.6\nnodes 5\n0 1\n0 2\n0 4\n1 2\n1 4\n2 3\n"
    obs = load_observable(str(prefix) + ".json")
    assert obs.n == 5 and len(obs.terms) == 6
    capsys.readouterr()
    assert run_cli("landscape", "--observable", str(prefix) + ".json", "--k", "2",
                   "--out", str(tmp_path / "s.csv")) == 0
    assert "records: 200 (partial sweep, K=2)" in capsys.readouterr().out


def test_problem_gen_ising_and_fixture(tmp_path):
    ising = tmp_path / "ising.json"
    assert run_cli("problem", "gen", "ising", "--n", "3", "--czz", "0.61436456",
                   "--cx", "0.32435029", "--out", str(ising)) == 0
    assert len(load_observable(ising).terms) == 5
    fixture = tmp_path / "heh.json"
    assert run_cli("problem", "gen", "fixture", "HeH+_100", "--out", str(fixture)) == 0
    assert len(load_observable(fixture).terms) == 9


def test_problem_gen_validation_failure(tmp_path, capsys):
    assert run_cli("problem", "gen", "maxcut", "--nodes", "4", "--edge-prob", "1.5",
                   "--out", str(tmp_path / "g")) == 1
    assert "edge probability" in capsys.readouterr().err


def test_problem_gen_rejects_oversized_maxcut_before_the_draw(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("random_graph was called")

    monkeypatch.setattr(problems, "random_graph", no_draw)
    assert run_cli("problem", "gen", "maxcut", "--nodes", "63",
                   "--out", str(tmp_path / "g")) == 1
    assert "graphs above 62 nodes are not supported, got 63" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_output_dir_environment_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DQES_OUTPUT_DIR", str(tmp_path))
    assert run_cli("problem", "gen", "fixture", "xy1") == 0
    assert (tmp_path / "xy1.json").exists()
    assert (tmp_path / "xy1.json.manifest.json").exists()


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        run_cli()
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run_cli("launch")
    assert info.value.code == 2
    # --fixture and --observable are mutually exclusive
    with pytest.raises(SystemExit) as info:
        run_cli("landscape", "--fixture", "xy1", "--observable", "x.json", "--full")
    assert info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("--version")
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("dqes ")
