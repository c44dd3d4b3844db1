"""Command-line surface, exercised in process through main()."""
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import radcount
from radcount import __version__, cli
from radcount.bounds import bound_weak
from radcount.cli import _verify_checks, main
from radcount.spectral1d import CountResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_report_wrapper_and_config(capsys):
    code, doc = run_json(capsys, "potential", "show", "--spec",
                         "square-well")
    assert code == 0
    assert set(doc) == {"tool", "version", "config", "report"}
    assert doc["tool"] == "radcount"
    assert doc["version"] == __version__
    cfg = doc["config"]
    assert cfg["subcommand"] == "potential"
    assert cfg["spec"] == "square-well"
    # show applies neither a quadrature tolerance nor a seed
    assert "quad_abs_tol" not in cfg and "seed" not in cfg
    assert doc["report"]["kind"] == "square-well"
    _, doc = run_json(capsys, "potential", "integrals", "--spec",
                      "square-well")
    assert doc["config"]["quad_abs_tol"] == 1e-10
    _, doc = run_json(capsys, "verify", "--spec", "zero", "--n-random", "1")
    assert doc["config"]["seed"] == 1234


def test_potential_integrals_disk(capsys):
    code, doc = run_json(capsys, "potential", "integrals", "--spec",
                         "square-well")
    assert code == 0
    rep = doc["report"]
    assert rep["J"]["value"] == pytest.approx(0.5, rel=1e-9)
    assert rep["logweight"]["value"] == pytest.approx(0.25, rel=1e-8)
    assert rep["weyl_coefficient"] == pytest.approx(0.25, rel=1e-9)


def test_bundled_name_matching_is_forgiving(capsys):
    # punctuation and case in the spec name are ignored for bundled lookup
    for alias in ("SquareWell.json", "SQUARE_WELL", "square well"):
        code, doc = run_json(capsys, "potential", "show", "--spec", alias)
        assert code == 0
        assert doc["report"]["kind"] == "square-well"


def test_seq_verdict_slow_tail(capsys):
    code, doc = run_json(capsys, "seq", "--spec", "counterexample")
    assert code == 0
    rep = doc["report"]
    assert rep["K"] == 200
    assert len(rep["zeta"]) == 201
    v = rep["verdict"]
    assert v["linear_growth"] == "yes"
    assert v["weyl_law"] == "no"
    assert v["text"] == "O(alpha) holds, Weyl fails"
    assert 0.97 <= v["sup_ratio"] <= 1.05


def test_seq_verdict_disk(capsys):
    code, doc = run_json(capsys, "seq", "--spec", "square-well")
    v = doc["report"]["verdict"]
    assert (v["linear_growth"], v["weyl_law"]) == ("yes", "yes")
    assert v["text"] == "O(alpha) growth holds; Weyl law holds"


def test_count1d_both_methods_agree(capsys):
    code, doc = run_json(capsys, "count1d", "--spec", "gaussian",
                         "--alpha", "40", "--energy", "-1.5",
                         "--method", "both")
    assert code == 0
    rep = doc["report"]
    assert rep["agree"] is True
    assert rep["pruefer"]["count"] == rep["fd"]["count"]
    assert rep["pruefer"]["mode"] == "whole-line"


def test_count1d_fd_just_below_zero(capsys):
    # E = -1e-12 is within the threshold offset of 0, so the fd count also
    # probes an energy above 0
    code, doc = run_json(capsys, "count1d", "--spec", "gaussian",
                         "--alpha", "40", "--energy=-1e-12", "--method", "fd")
    assert code == 0
    rep = doc["report"]["fd"]
    assert (rep["count"], rep["flags"]) == (3, [])


def test_count1d_reads_negative_e_notation(capsys):
    # a channel energy such as -4e-08 follows --energy as its own token
    # (argparse takes only -1 and -1.5 for negative numbers by itself)
    for energy in ("-4e-08", "-4E-8", "-.4e-7", "-4.0e-08"):
        code, doc = run_json(capsys, "count1d", "--spec", "square-well",
                             "--alpha", "40", "--energy", energy,
                             "--method", "both")
        assert code == 0
        rep = doc["report"]
        assert rep["fd"]["energy"] == rep["pruefer"]["energy"] == -4e-08
        assert rep["agree"] is True
    with pytest.raises(SystemExit) as e:
        main(["count1d", "--spec", "square-well", "--alpha", "40",
              "--energy", "-x"])
    assert e.value.code == 2


def test_count_breakdown_and_sandwich(capsys):
    code, doc = run_json(capsys, "count", "--spec", "square-well",
                         "--alpha", "200", "--breakdown",
                         "--check", "sandwich")
    assert code == 0
    rep = doc["report"]
    assert rep["total"] == 51
    assert rep["per_channel"]["0"] == 5
    assert rep["sandwich"]["ok"] is True
    assert rep["sandwich"]["difference"] in (0, 1)


def test_count_duality_check(capsys):
    code, doc = run_json(capsys, "count", "--spec", "annulus",
                         "--alpha", "30", "--check", "duality")
    assert code == 0
    assert doc["report"]["duality"]["ok"] is True
    assert doc["report"]["duality"]["uncertainty"] == 0


def test_bounds_divergent_serializes_as_infinite(capsys):
    code, doc = run_json(capsys, "bounds", "--spec", "counterexample",
                         "--alpha", "50")
    assert code == 0
    rep = doc["report"]
    assert rep["chad"] == "infinite"
    assert rep["chad_sharp"] == "infinite"
    assert isinstance(rep["weak"], float)
    assert rep["finite"]["chad"] is False
    assert rep["selected"]["bound"] == "chad"


def test_bounds_min_over_R_selection(capsys):
    code, doc = run_json(capsys, "bounds", "--spec", "gaussian",
                         "--alpha", "50", "--minR")
    rep = doc["report"]
    assert rep["selected"]["bound"] == "chad_min"
    assert rep["selected"]["value"] <= rep["chad"]


def test_sweep_writes_csv_and_json(capsys, tmp_path):
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    code, out = run(capsys, "sweep", "--spec", "square-well",
                    "--alpha-min", "10", "--alpha-max", "40",
                    "--per-decade", "3",
                    "--csv", str(csv_path), "--json-out", str(json_path))
    assert code == 0
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("alpha,N,N_over_alpha,N_radial_dirichlet,N_nonradial,"
                      "chad,chad_sharp,lt_nonradial,weak_bound")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    rep = doc["report"]
    assert rep["kind"] == "square-well"
    assert rep["weyl"]["verdict"] == "weyl-holds"
    assert len(rep["rows"]) == len(rep["ratio_deltas"]) + 1
    assert out == ""          # everything went to the files


def test_sweep_K_reaches_weak_bound(capsys, catalog):
    # on this slow tail the quasinorm of a one-block window differs from
    # the K = 200 one, so the column shows which window was used
    P = catalog["counterexample-damped"]
    code, doc = run_json(capsys, "sweep", "--spec", "counterexample-damped",
                         "--alpha-min", "10", "--alpha-max", "10",
                         "--K", "1")
    assert code == 0
    weak = doc["report"]["rows"][0]["weak_bound"]
    assert weak == bound_weak(P, 10.0, K=1)
    assert weak != bound_weak(P, 10.0, K=200)


def _count_calls(monkeypatch, name, modules):
    # one shared spy for a function bound by name in several modules
    calls = []
    real = getattr(importlib.import_module(modules[0]), name)

    def spy(*args, **kw):
        calls.append(args[1:])
        return real(*args, **kw)

    for mod in modules:
        monkeypatch.setattr(f"{mod}.{name}", spy)
    return calls


def test_sweep_computes_one_zeta_sequence(capsys, monkeypatch):
    # the block sequence serves both the weak_bound column and the verdict
    calls = _count_calls(monkeypatch, "zeta_sequence",
                         ["radcount.weakseq", "radcount.asymptotics",
                          "radcount.bounds", "radcount.cli"])
    code, doc = run_json(capsys, "sweep", "--spec", "gaussian",
                         "--alpha-min", "5", "--alpha-max", "20",
                         "--per-decade", "2")
    assert code == 0
    assert calls == [(200,)]
    assert "weyl" in doc["report"]


def test_verify_integrates_log_weight_and_solves_spectrum_once(
        capsys, monkeypatch):
    # W(1) and the companion spectrum do not depend on alpha, and at the
    # default alphas 10 and 50 the duality window is the same
    weights = _count_calls(monkeypatch, "integral_logweight",
                           ["radcount.potentials", "radcount.bounds",
                            "radcount.asymptotics", "radcount.cli"])
    spectra = _count_calls(monkeypatch, "bs_spectrum",
                           ["radcount.spectral1d", "radcount.channels",
                            "radcount.asymptotics"])
    code, doc = run_json(capsys, "verify", "--spec", "square-well",
                         "--n-random", "2")
    assert code == 0 and doc["report"]["ok"] is True
    assert weights == [(1.0,)]
    assert len(spectra) == 1
    duality = [c for c in doc["report"]["checks"] if c["name"] == "duality"]
    assert [c["alpha"] for c in duality] == [10.0, 50.0]


@pytest.mark.parametrize("pruefer, fd, bad", [
    ((3, 1, ("domain-truncated",)), (4, 0, ()), 1),
    ((3, 1, ("phase-near-node",)), (4, 0, ()), 0),
    ((3, 1, ("phase-near-node",)), (5, 0, ()), 1),
], ids=["informational-flag", "excused", "beyond-uncertainty"])
def test_oracle_equivalence_uses_the_shared_excuse(catalog, monkeypatch,
                                                   pruefer, fd, bad):
    # stubbed (count, uncertainty, flags) per engine: an informational flag
    # excuses nothing, a doubt flag excuses a miss up to the uncertainty,
    # and any flag counts the instance as flagged
    stub = {"pruefer": pruefer, "fd": fd}

    def count_below(G, alpha, E, mode, *, engine):
        count, uncertainty, flags = stub[engine]
        return CountResult(count, engine, E, mode.value, (0.0, 1.0),
                           uncertainty=uncertainty, flags=flags)

    def count_batch_pruefer(G, queries):
        return [count_below(G, alpha, E, mode, engine="pruefer")
                for alpha, E, mode in queries]

    monkeypatch.setattr("radcount.cli.count_below", count_below)
    monkeypatch.setattr("radcount.cli.count_batch_pruefer",
                        count_batch_pruefer)
    checks = _verify_checks(catalog["square-well"], [],
                            np.random.default_rng(7), 1, 1e-9)
    assert checks == [{"name": "oracle-equivalence", "ok": bad == 0,
                       "instances": 1, "flagged": 1, "disagreements": bad}]


def test_verify_sweeps_its_instances_on_one_mesh(capsys, monkeypatch):
    # the 12 engine-agreement instances are one phase batch, on the mesh of
    # its largest coupling; the plane counts at alpha 10 and 50 build their
    # own: 3 meshes in all, where a mesh per instance made 12
    from radcount import spectral1d

    mesh_nodes = spectral1d._mesh_nodes
    built = []

    def spy(G, alpha, lo, hi):
        built.append(alpha)
        return mesh_nodes(G, alpha, lo, hi)

    monkeypatch.setattr(spectral1d, "_mesh_nodes", spy)
    code, doc = run_json(capsys, "verify", "--spec", "square-well")
    assert code == 0 and doc["report"]["ok"] is True
    assert len(built) == 3
    assert 5.0 <= built[0] <= 80.0 and built[1:] == [10.0, 50.0]


def test_verify_passes_on_trivial_profile(capsys):
    code, doc = run_json(capsys, "verify", "--spec", "zero",
                         "--alpha", "10", "--n-random", "3")
    assert code == 0
    assert doc["report"]["ok"] is True
    assert doc["report"]["failures"] == 0
    assert all(c["ok"] for c in doc["report"]["checks"])


def test_json_out_redirects_stdout(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out = run(capsys, "potential", "show", "--spec", "bump",
                    "--json-out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["report"]["kind"] == "bump"


def test_byte_identical_reruns(capsys):
    argv = ["seq", "--spec", "counterexample", "--K", "64"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_unknown_spec_exits_2(capsys):
    code = main(["potential", "show", "--spec", "no-such-profile"])
    assert code == 2
    err = capsys.readouterr().err
    assert "radcount:" in err


def test_bad_tolerance_exits_2(capsys):
    # a tolerance or budget must be finite and positive; NaN is neither
    # <= 0 nor > 0
    for argv in (["seq", "--spec", "zero", "--quad-abs-tol"],
                 ["seq", "--spec", "zero", "--quad-rel-tol"],
                 ["potential", "integrals", "--spec", "zero",
                  "--quad-abs-tol"],
                 ["verify", "--spec", "zero", "--eig-tol"],
                 ["sweep", "--spec", "zero", "--alpha-min", "5",
                  "--alpha-max", "50", "--budget-seconds"]):
        for value, why in (("-1", "positive"), ("0", "positive"),
                           ("nan", "finite"), ("inf", "finite")):
            with pytest.raises(SystemExit) as e:
                main(argv + [value])
            assert e.value.code == 2, (argv, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{argv[-1]} must be {why}" in captured.err


def test_weak_constant_must_be_positive(capsys):
    # bounds and sweep refuse the same constants: both pass through the
    # one weak-bound formula
    for argv in (["bounds", "--alpha", "50"],
                 ["sweep", "--alpha-min", "5", "--alpha-max", "50"]):
        for C in ("-1", "0", "nan", "inf"):
            code = main(argv + ["--spec", "gaussian", "--C", C])
            captured = capsys.readouterr()
            assert code == 2, (argv, C)
            assert captured.out == ""
            assert "need finite C > 0" in captured.err


def test_sweep_alpha_max_inf_exits_2(capsys):
    code = main(["sweep", "--spec", "gaussian", "--alpha-min", "5",
                 "--alpha-max", "inf"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need finite alpha_max" in captured.err


def test_seq_has_no_json_flag(capsys):
    # seq always writes JSON; the flag that said so is gone
    with pytest.raises(SystemExit) as e:
        main(["seq", "--spec", "zero", "--json"])
    assert e.value.code == 2
    code, doc = run_json(capsys, "seq", "--spec", "zero")
    assert code == 0 and "json" not in doc["config"]


def test_abbreviated_options_are_rejected(capsys, tmp_path, monkeypatch):
    # no prefix matching: --json is not --json-out, --alp is not --alpha
    monkeypatch.chdir(tmp_path)
    for argv in (["seq", "--spec", "zero", "--json", "out.json"],
                 ["count", "--spec", "square-well", "--alp", "200"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
    assert list(tmp_path.iterdir()) == []


def _bytes_cases():
    """The argv list of tools/cli_bytes.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                        "cli_bytes.py")
    spec = importlib.util.spec_from_file_location("cli_bytes", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.cases()


def test_a_call_builds_only_its_subcommand_parser(capsys, monkeypatch):
    made = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counting)
    run_json(capsys, "seq", "--spec", "zero")
    assert made == ["radcount", "radcount seq"]
    made.clear()
    run_json(capsys, "potential", "integrals", "--spec", "zero")
    assert made == ["radcount", "radcount potential",
                    "radcount potential integrals"]
    # no subcommand named: the root, seven subcommands and potential's
    # two children
    for argv in ([], ["--version"], ["bogus"]):
        made.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert len(made) == 10, argv
    made.clear()
    with pytest.raises(SystemExit):
        main(["potential", "-h"])
    assert made == ["radcount", "radcount potential",
                    "radcount potential show",
                    "radcount potential integrals"]


def test_one_subcommand_parse_matches_the_full_parser(capsys, monkeypatch):
    # the same Namespace, or the same exit and the same bytes, for every
    # recorded case; root errors print the full subcommand list
    monkeypatch.setenv("COLUMNS", "80")

    def parse(ap, argv):
        try:
            got = ap.parse_args(argv)
            cli._validate(got, ap)
        except SystemExit as exc:
            got = exc.code
        return got, capsys.readouterr()

    for argv in _bytes_cases():
        want = parse(cli.build_parser(), argv)
        assert parse(cli.build_parser(argv), argv) == want, argv


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_mode_aliases_accepted(capsys):
    code, doc = run_json(capsys, "count1d", "--spec", "square-well",
                         "--alpha", "30", "--energy", "-2",
                         "--mode", "half")
    assert code == 0
    assert doc["report"]["pruefer"]["mode"] == "half-line-dirichlet"


def test_every_exported_name_resolves():
    # each name in the package's and every module's __all__ is defined
    modules = [radcount] + [
        importlib.import_module(f"radcount.{info.name}")
        for info in pkgutil.iter_modules(radcount.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


def _fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter on this radcount."""
    src = os.path.dirname(os.path.dirname(radcount.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout


def test_import_loads_no_scipy_submodule():
    # a fresh interpreter: the CLI imports numpy only; bs_spectrum solves a
    # support of at most n_max + 1 nodes (the annulus at n_max = 48) with
    # numpy, and brings in scipy only for Lanczos on a wider one
    code = """
import sys
import radcount.cli
heavy = ("scipy.integrate", "scipy.linalg", "scipy.sparse", "scipy.optimize")
print(sorted(m for m in heavy if m in sys.modules))
from radcount import bs_spectrum, load_bundled, to_log
lam, meta = bs_spectrum(to_log(load_bundled("annulus")), n_max=48)
print(sorted(m for m in heavy if m in sys.modules), meta["n_support"])
lam, meta = bs_spectrum(to_log(load_bundled("square-well")), n_max=4)
print(bool(lam[0] > lam[1] > 0.0), meta["n_nodes"] > 0)
"""
    assert _fresh(code).split("\n")[:3] == ["[]", "[] 34", "True True"]


def test_a_fresh_count_loads_no_numpy_ma():
    # a fresh interpreter: np.unique and np.union1d load numpy.ma on their
    # first call, about 10 ms; the mesh, the lead-in scan, bs_spectrum and
    # the log-weight grid dedupe by a sort, so neither a plane count nor
    # the bounds report loads it
    code = """
import contextlib, io, sys
from radcount.cli import main
for argv in (["count", "--spec", "square-well", "--alpha", "3200"],
             ["bounds", "--spec", "gaussian", "--alpha", "50", "--minR"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print("numpy.ma" in sys.modules)
"""
    assert _fresh(code).split("\n")[0] == "False"


@pytest.mark.parametrize("method", ["pruefer", "fd"])
@pytest.mark.parametrize("alpha", ["--alpha=0", "--alpha=-5"])
def test_non_positive_alpha_exits_2(capsys, method, alpha):
    # alpha <= 0 is a usage error, not a zero potential
    code = main(["count", "--spec", "gaussian", alpha, "--method", method])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need alpha > 0" in captured.err


def test_negative_n_random_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--spec", "square-well", "--n-random", "-3"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n-random must be >= 0" in captured.err
    code, doc = run_json(capsys, "verify", "--spec", "zero", "--n-random",
                         "0")
    assert code == 0
    assert doc["report"]["checks"][0]["instances"] == 0
