import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmeasure import __version__
from qmeasure.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGenerateAndValidate:
    def test_double_slit_round_trip(self, workdir, capsys):
        code, _ = run(capsys, "gen", "double-slit", "--out", "ds")
        assert code == 0
        assert os.path.exists("ds/dcf.json")
        code, out = run(capsys, "validate", "ds")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_reversed_poz_violation_exit_code(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--time-reversed", "--out", "dsr")
        code, out = run(capsys, "poz", "dsr")
        assert code == 3
        report = json.loads(out)
        assert report["max_violation"] == pytest.approx(0.25, abs=1e-12)
        worst = max(report["results"], key=lambda r: r["violation"])
        assert worst["region"] == ["slit"]

    def test_forward_poz_passes(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        code, out = run(capsys, "poz", "ds")
        assert code == 0

    def test_report_to_out_file(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        _, printed = run(capsys, "poz", "ds")
        code, out = run(capsys, "poz", "ds", "--out", "r.json")
        assert (code, out) == (0, "")
        with open("r.json") as fh:
            assert fh.read() == printed

    def test_missing_input_is_input_error(self, workdir, capsys):
        code = main(["validate", "nope.json"])
        assert code == 2

    def test_unknown_command_usage(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2


class TestPatchPipeline:
    def test_quantum_patch_then_chsh(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, _ = run(capsys, "patch", "quantum", "eprb", "--out", "joint.json")
        assert code == 0
        code, out = run(capsys, "chsh", "joint.json")
        assert code == 0
        value = json.loads(out)["chsh"]
        assert value == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_joint_with_a_bad_ordering_refused(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        run(capsys, "patch", "quantum", "eprb", "--out", "joint.json")
        with open("joint.json") as fh:
            doc = json.load(fh)
        doc["ordering"] = ["zz"]
        with open("bad.json", "w") as fh:
            json.dump(doc, fh)
        for command in ("chsh", "nosignalling", "feasibility"):
            code = main([command, "bad.json"])
            assert code == 2
            assert capsys.readouterr().err == "error: ordering must permute ('a', 'ap', 'b', 'bp')\n"

    def test_chsh_from_scenario(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, out = run(capsys, "chsh", "eprb/scenario.json")
        assert code == 0
        assert json.loads(out)["chsh"] == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_scenario_read_checks_its_geometry_once(self, workdir, capsys, monkeypatch):
        # the four equal order documents give one order, and --tol keeps
        # the scenario already built
        from qmeasure import patching

        calls = []
        check = patching.validate_scenario_geometry

        def counted(*args):
            calls.append(args[0])
            return check(*args)

        run(capsys, "gen", "eprb", "--out", "eprb")
        monkeypatch.setattr(patching, "validate_scenario_geometry", counted)
        for argv in (["eprb"], ["eprb/scenario.json"], ["eprb", "--tol", "1e-6"]):
            calls.clear()
            code, _ = run(capsys, "chsh", *argv)
            assert (code, len(calls)) == (0, 1), argv

    def test_each_input_is_built_once(self, workdir, capsys, monkeypatch):
        # every functional is built at --tol as it is read, never copied to it
        from qmeasure import DecoherenceFunctional, patching

        beams, functionals = [], []
        beam_index, post_init = patching._beam_index, DecoherenceFunctional.__post_init__

        def counted_beams(*args):
            beams.append(args)
            return beam_index(*args)

        def counted_post_init(self):
            functionals.append(self)
            post_init(self)

        run(capsys, "gen", "eprb", "--out", "eprb")
        run(capsys, "gen", "double-slit", "--out", "ds")
        monkeypatch.setattr(patching, "_beam_index", counted_beams)
        monkeypatch.setattr(DecoherenceFunctional, "__post_init__", counted_post_init)
        for argv, counts in (
            (["chsh", "eprb"], (8, 4)),
            (["chsh", "eprb", "--tol", "1e-6"], (8, 4)),
            (["poz", "ds", "--tol", "1e-6"], (0, 1)),
        ):
            beams.clear()
            functionals.clear()
            code, _ = run(capsys, *argv)
            assert (code, len(beams), len(functionals)) == (0, *counts), argv

    def test_classical_patch_on_quantum_input_fails(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code = main(["patch", "classical", "eprb"])
        assert code == 2

    def test_lon_command(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        # scenario files are not models; check lon against the double slit
        run(capsys, "gen", "double-slit", "--out", "ds")
        code, out = run(capsys, "lon", "ds")
        assert code == 0


class TestTablesAndFeasibility:
    def test_pr_chsh_and_nosignalling(self, workdir, capsys):
        run(capsys, "gen", "pr", "--out", "pr")
        code, out = run(capsys, "chsh", "pr/table.json")
        assert code == 0
        assert json.loads(out)["chsh"] == 4.0
        code, out = run(capsys, "nosignalling", "pr/table.json")
        assert code == 0

    def test_feasibility_contrast(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, out = run(capsys, "feasibility", "eprb/scenario.json")
        assert code == 0
        assert json.loads(out)["verdict"] == "feasible"
        run(capsys, "gen", "pr", "--out", "pr")
        code, out = run(
            capsys, "feasibility", "pr/beamdcfs.json", "--budget", "500"
        )
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "infeasible"
        cert = report["certificate"]
        assert cert["value"] + cert["slack_term"] < 0
        assert cert["step"] == report["iterations"] <= 500

    def test_feasibility_reports_its_tolerance(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, out = run(capsys, "feasibility", "eprb")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "feasible"
        assert report["tolerance"] == 1e-9 and report["gap"] <= report["tolerance"]
        code, out = run(capsys, "feasibility", "eprb", "--tol", "1e-6")
        assert code == 0 and json.loads(out)["tolerance"] == 1e-6

    def test_feasibility_refuses_signalling_at_its_tolerance(self, workdir, capsys):
        # the noisy box at p = 0.6 with 1e-7 of mass moved between wing-A
        # outcomes under setting ab: signalling at 1e-7
        doc = {
            "ab": [[0.4 - 1e-7, 0.1], [0.1 + 1e-7, 0.4]],
            "ab'": [[0.4, 0.1], [0.1, 0.4]],
            "a'b": [[0.4, 0.1], [0.1, 0.4]],
            "a'b'": [[0.1, 0.4], [0.4, 0.1]],
        }
        with open("signalling.json", "w") as fh:
            json.dump(doc, fh)
        assert main(["feasibility", "signalling.json"]) == 2
        assert "no-signalling" in capsys.readouterr().err
        code, out = run(capsys, "feasibility", "signalling.json", "--tol", "1e-6")
        assert code == 0 and json.loads(out)["verdict"] == "feasible"

    def test_feasibility_undecided_below_certifying_step(self, workdir, capsys):
        # the noisy box 1e-8 above Tsirelson's line is undecided at budget
        # 8; at v = 0.7072 it is refuted at step 7
        for v, code_wanted in ((2 ** -0.5 + 1e-8, 4), (0.7072, 3)):
            same, other = 0.25 + v / 4, 0.25 - v / 4
            doc = {key: [[same, other], [other, same]] for key in ("ab", "ab'", "a'b")}
            doc["a'b'"] = [[other, same], [same, other]]
            with open("noisy.json", "w") as fh:
                json.dump(doc, fh)
            code, out = run(capsys, "feasibility", "noisy.json", "--budget", "8")
            assert code == code_wanted
            report = json.loads(out)
            if code == 4:
                assert report["verdict"] == "undecided-infeasible"
                assert report["iterations"] == 8
                assert "certificate" not in report
            else:
                assert report["verdict"] == "infeasible"
                assert report["iterations"] == report["certificate"]["step"] == 7


class TestSkCommands:
    def test_fixture_factorizability_truncation(self, workdir, capsys):
        code, _ = run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        assert code == 0
        code, out = run(capsys, "sk", "factorizability", "sk.json")
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, out = run(
            capsys, "sk", "truncation", "sk.json", "--tf1", "1", "--tf2", "2"
        )
        assert code == 0

    def test_equal_truncation_slices_refused(self, workdir, capsys):
        run(capsys, "sk", "fixture", "--steps", "3", "--out", "sk.json")
        assert main(["sk", "truncation", "sk.json", "--tf1", "2", "--tf2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "certifies nothing" in captured.err

    def test_tagging_without_a_wing_refused(self, workdir, capsys):
        """A tagging with no A cell is bad input: an empty wing would pass
        the screening-off check vacuously."""
        run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        with open("sk.json") as fh:
            doc = json.load(fh)
        doc["regions"] = {c: "-" if t == "A" else t for c, t in doc["regions"].items()}
        with open("noa.json", "w") as fh:
            json.dump(doc, fh)
        assert main(["sk", "factorizability", "noa.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must cover Z, A and B" in captured.err

    def test_truncation_of_a_lone_cell(self, workdir, capsys):
        doc = {"L": 1, "T": 1, "q": 2, "psi": [[1.0, 0.0], [0.0, 0.0]], "gates": []}
        with open("one.json", "w") as fh:
            json.dump(doc, fh)
        code, out = run(capsys, "sk", "truncation", "one.json", "--tf1", "0", "--tf2", "1")
        assert code == 0
        assert json.loads(out)["regions_tested"] == 1

    def test_factorizability_full_support_circuit(self, workdir, capsys):
        # superposed initial state and a generic first-layer gate: every
        # history carries amplitude, and the decoupled wings still pass
        from qmeasure import SkCircuitConfig, SkGate, decoupled_demo_config
        from qmeasure.serialization import dump_json, sk_config_to_json

        rng = np.random.default_rng(5)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        cfg = decoupled_demo_config(steps=3)
        cfg = SkCircuitConfig(
            sites=4, steps=3, psi=psi / np.linalg.norm(psi),
            gates=(SkGate(1, (0, 1, 2, 3), u),)
            + tuple(g for g in cfg.gates if g.layer > 1),
            regions=cfg.regions,
        )
        dump_json(sk_config_to_json(cfg), "sk.json")
        code, out = run(capsys, "sk", "factorizability", "sk.json")
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True and report["exhaustive"] is True
        assert report["combinations_checked"] == 65536 ** 2

    def test_validate_bare_skmodel(self, workdir, capsys):
        run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        code, out = run(capsys, "validate", "sk.json")
        assert code == 0
        assert json.loads(out)["sampled"] is True


class TestDeterminism:
    def test_reports_byte_identical(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        _, out1 = run(capsys, "feasibility", "eprb/scenario.json")
        _, out2 = run(capsys, "feasibility", "eprb/scenario.json")
        assert out1 == out2

    def test_version_embedded(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        _, out = run(capsys, "validate", "ds")
        report = json.loads(out)
        assert "version" in report and "tolerance" in report


class TestSchema:
    def test_schema_flag(self, capsys):
        code, out = run(capsys, "--schema")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"historyspace", "order", "dcf", "skmodel", "scenario"}

    def test_each_schema_kind_is_the_kind_read_back(self, gen_outputs):
        from qmeasure import serialization as io

        paths = {kind: gen_outputs / path for path, kind in GEN_OUTPUTS.items() if kind}
        # kinds no generator writes on its own, as minimal documents
        minimal = {
            "jointdcf": {"slots": [1, 1, 1, 1, 1], "matrix": [[[1.0, 0.0]]]},
            "historyspace": {"points": ["x"], "alphabets": {"x": 1}, "histories": [[0]]},
            "eprbconfig": {"angles": [0.0, 0.1, 0.2, 0.3], "flip_b": True},
        }
        for kind, doc in minimal.items():
            paths[kind] = gen_outputs / f"minimal-{kind}.json"
            io.dump_json(doc, paths[kind])
        assert set(paths) == set(io.SCHEMAS)
        for kind, path in paths.items():
            assert io.read_input(str(path))[0] == kind


def edited_eprb(capsys, edit):
    """`gen eprb` into eprb/, its scenario document passed through `edit`."""
    run(capsys, "gen", "eprb", "--out", "eprb")
    with open("eprb/scenario.json") as fh:
        doc = json.load(fh)
    edit(doc)
    with open("eprb/scenario.json", "w") as fh:
        json.dump(doc, fh)


class TestCommute:
    def test_eprb_commute(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, out = run(capsys, "commute", "eprb")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "command",
        [["commute"], ["chsh"], ["nosignalling"], ["feasibility"], ["patch", "quantum"],
         ["factorizability", "classical"]],
    )
    def test_overlapping_beams_refused_when_read(self, workdir, capsys, command):
        def overlap(doc):
            beam_a = doc["theories"]["ab'"]["beam_a"]
            beam_a[0] = sorted(beam_a[0] + beam_a[1])

        edited_eprb(capsys, overlap)
        assert main([*command, "eprb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beam events must partition the history space\n"

    @pytest.mark.parametrize(
        "command",
        [["commute"], ["patch", "classical"], ["patch", "quantum"], ["chsh"],
         ["nosignalling"], ["feasibility"], ["factorizability", "classical"]],
    )
    def test_past_swapped_with_a_wing_refused_when_read(self, workdir, capsys, command):
        edited_eprb(capsys, lambda doc: doc.update(z=doc["a"], a=doc["z"]))
        assert main([*command, "eprb"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scenario geometry invalid: {")

    def test_missing_setting_named_when_read(self, workdir, capsys):
        edited_eprb(capsys, lambda doc: doc["theories"].pop("a'b'"))
        assert main(["chsh", "eprb"]) == 2
        assert capsys.readouterr().err == "error: scenario lacks settings [(1, 1)]\n"


class TestFactorizabilityCommand:
    def test_quantum_detects_interference(self, workdir, capsys):
        from qmeasure import gen_eprb
        from qmeasure import serialization as io

        t = gen_eprb().theory(0, 0)
        os.makedirs("model")
        io.dump_json(io.dcf_to_json(t.dcf), "model/dcf.json")
        io.dump_json(io.order_to_json(t.order), "model/order.json")
        code, out = run(
            capsys,
            "factorizability", "quantum", "model",
            "--z", "z", "--a", "wa", "--b", "wb",
        )
        # interference between the intermediate branches is not screened off
        assert code == 3
        assert json.loads(out)["max_residual"] > 1e-4


class TestOrderingFlag:
    def test_reordering_changes_array_not_marginals(self, workdir, capsys):
        run(capsys, "gen", "eprb", "--out", "eprb")
        code, _ = run(capsys, "patch", "quantum", "eprb", "--out", "j1.json")
        assert code == 0
        code, _ = run(
            capsys, "patch", "quantum", "eprb",
            "--ordering", "ap,a,bp,b", "--out", "j2.json",
        )
        assert code == 0
        with open("j1.json") as fh:
            d1 = json.load(fh)
        with open("j2.json") as fh:
            d2 = json.load(fh)
        assert d1["marginal_residual"] < 1e-9
        assert d2["marginal_residual"] < 1e-9
        assert d1["matrix"] != d2["matrix"]


class TestClassicalPatchCli:
    def test_classical_patch_on_factorizable_scenario(self, workdir, capsys):
        import numpy as np
        from conftest import random_factorizable_scenario
        from qmeasure import serialization as io

        sc = random_factorizable_scenario(np.random.default_rng(31), nk=3)
        io.dump_json(io.scenario_to_json(sc), "classical.json")
        code, _ = run(capsys, "patch", "classical", "classical.json",
                      "--out", "jm.json")
        assert code == 0
        with open("jm.json") as fh:
            doc = json.load(fh)
        assert doc["version"] == __version__
        assert doc["marginal_residual"] < 1e-12
        assert abs(doc["total"] - 1.0) < 1e-12
        code, out = run(capsys, "factorizability", "classical", "classical.json")
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-12


# the kind `serialization.read_input` gives each output of `gen` and
# `sk fixture`; None for a document of no kind
GEN_OUTPUTS = {
    "ds": "model",
    "ds/dcf.json": "dcf",
    "ds/order.json": "order",
    "dsr": "model",
    "eprb": "scenario",
    "eprb/scenario.json": "scenario",
    "pr": "model",
    "pr/table.json": "table",
    "pr/beamdcfs.json": "beamdcfs",
    "ghz": "model",
    "ghz/events.json": None,
    "sk.json": "skmodel",
}

# each command (argv before and after the input) and the kinds it takes
TWO_WING = ("scenario", "beamdcfs", "table", "jointdcf")
COMMAND_KINDS = {
    (("validate",), ()): ("model", "dcf", "skmodel"),
    (("hilbert",), ()): ("model", "dcf", "skmodel"),
    (("poz",), ()): ("model", "skmodel"),
    (("lon",), ()): ("model", "skmodel"),
    (("commute",), ()): ("scenario",),
    (("factorizability", "classical"), ()): ("scenario",),
    (("patch", "classical"), ()): ("scenario",),
    (("patch", "quantum"), ()): ("scenario",),
    (("chsh",), ()): TWO_WING,
    (("nosignalling",), ()): TWO_WING,
    (("feasibility",), ("--budget", "50")): TWO_WING,
    (("sk", "factorizability"), ()): ("skmodel",),
    (("sk", "truncation"), ("--tf1", "1", "--tf2", "2")): ("skmodel",),
}

# exit codes other than 0 on inputs of a kind the command takes, by
# the command's words before the input
EXIT_CODES = {
    ("poz", "dsr"): 3,
    ("lon", "dsr"): 3,
    ("lon", "ghz"): 3,
    ("lon", "sk.json"): 3,
    ("factorizability classical", "eprb"): 2,  # the spin-pair theories are not classical
    ("factorizability classical", "eprb/scenario.json"): 2,
    ("patch classical", "eprb"): 2,
    ("patch classical", "eprb/scenario.json"): 2,
    ("feasibility", "pr/table.json"): 3,
    ("feasibility", "pr/beamdcfs.json"): 3,
}


@pytest.fixture(scope="module")
def gen_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    for argv in (
        ["gen", "double-slit", "--out", "ds"],
        ["gen", "double-slit", "--time-reversed", "--out", "dsr"],
        ["gen", "eprb", "--out", "eprb"],
        ["gen", "pr", "--out", "pr"],
        ["gen", "ghz", "--out", "ghz"],
        ["sk", "fixture", "--steps", "2", "--out", "sk.json"],
    ):
        argv[-1] = str(root / argv[-1])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return root


class TestInputKinds:
    @pytest.mark.parametrize("command", sorted(COMMAND_KINDS), ids=lambda c: " ".join(c[0]))
    @pytest.mark.parametrize("name", sorted(GEN_OUTPUTS))
    def test_gen_output_by_command(self, gen_outputs, capsys, command, name):
        """Each command takes the kinds it reads and refuses the others with
        a message naming the input and its kind."""
        (head, tail), kind = command, GEN_OUTPUTS[name]
        path = str(gen_outputs / name)
        code = main([*head, path, *tail])
        err = capsys.readouterr().err
        if kind in COMMAND_KINDS[command]:
            assert code == EXIT_CODES.get((" ".join(head), name), 0), err
        elif kind == "dcf" and head[0] in ("poz", "lon"):
            assert code == 2 and "an order.json is also needed" in err
        elif kind is None:
            assert code == 2 and f"cannot interpret {path}: no document kind" in err
        else:
            kinds = " or ".join(COMMAND_KINDS[command])
            assert code == 2
            assert f"cannot interpret {path} as {kinds}: its kind is {kind}" in err

    def test_eprb_config_keys(self, workdir, capsys):
        from qmeasure import serialization as io

        io.dump_json({"angles": [0.0, 0.4, 0.2, 0.6], "flip_b": True}, "two.json")
        assert main(["gen", "eprb", "--config", "two.json", "--out", "two"]) == 0
        io.dump_json({"angels": [0, 0, 0, 0]}, "typo.json")
        assert main(["gen", "eprb", "--config", "typo.json", "--out", "typo"]) == 2
        assert "'angels'" in capsys.readouterr().err
        assert not os.path.exists("typo")


class TestInputEdges:
    def test_sk_action_without_input(self, workdir, capsys):
        code = main(["sk", "truncation"])
        assert code == 2

    def test_feasibility_from_probability_table(self, workdir, capsys):
        run(capsys, "gen", "pr", "--out", "pr")
        code, out = run(capsys, "feasibility", "pr/table.json", "--budget", "300")
        assert code == 3
        report = json.loads(out)
        assert report["verdict"] == "infeasible"
        cert = report["certificate"]
        assert cert["value"] + cert["slack_term"] < 0

    def test_mixed_functionals_and_tables_refused(self, workdir, capsys):
        run(capsys, "gen", "pr", "--out", "pr")
        with open("pr/beamdcfs.json") as fh:
            doc = json.load(fh)
        with open("pr/table.json") as fh:
            doc["ab"] = json.load(fh)["ab"]
        with open("mixed.json", "w") as fh:
            json.dump(doc, fh)
        for command in ("chsh", "nosignalling", "feasibility"):
            assert main([command, "mixed.json"]) == 2

    def test_empty_region_list_names_the_empty_region(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        code, out = run(capsys, "hilbert", "ds", "--region", "")
        report = json.loads(out)
        assert code == 0
        assert (report["region"], report["atoms"], report["rank"]) == ([], 1, 1)

    @pytest.mark.parametrize("command, key", [("poz", "region"), ("lon", "z")])
    def test_empty_regions_list_checks_the_empty_region(self, workdir, capsys, command, key):
        # the reversed slit fails PoZ exhaustively, but not on the empty region
        run(capsys, "gen", "double-slit", "--time-reversed", "--out", "dsr")
        code, out = run(capsys, command, "dsr", "--regions", "")
        assert code == 0
        assert [row[key] for row in json.loads(out)["results"]] == [[]]

    def test_poz_with_explicit_region_list(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--time-reversed", "--out", "dsr")
        code, out = run(capsys, "poz", "dsr", "--regions", "slit")
        assert code == 3
        report = json.loads(out)
        assert report["regions_tested"] == 1
        assert report["max_violation"] == pytest.approx(0.25, abs=1e-12)


class TestLoneDcfDocument:
    def test_validate_and_hilbert_take_a_lone_dcf(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        code, out = run(capsys, "validate", "ds/dcf.json")
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, lone = run(capsys, "hilbert", "ds/dcf.json", "--region", "slit")
        assert code == 0
        code, model = run(capsys, "hilbert", "ds", "--region", "slit")
        assert code == 0
        assert lone == model

    @pytest.mark.parametrize("command", ["poz", "lon"])
    def test_order_commands_refuse_a_lone_dcf(self, workdir, capsys, command):
        run(capsys, "gen", "double-slit", "--out", "ds")
        code = main([command, "ds/dcf.json"])
        assert code == 2
        assert "an order.json is also needed" in capsys.readouterr().err


def two_wing_record(past, outcomes_a, outcomes_b, matrix):
    """Four theories of one dense matrix: each history keeps its past value
    and its outcomes under every setting."""
    from qmeasure.patching import SETTING_KEYS, two_wing_scenario

    return two_wing_scenario(
        np.array(past), (np.array(outcomes_a),) * 2, (np.array(outcomes_b),) * 2, (2, 2),
        dict.fromkeys(SETTING_KEYS, np.array(matrix, dtype=complex)),
    )


def correlated_classical_scenario():
    """Perfectly correlated outcomes, 1/2 each on (0, 0) and (1, 1), under a
    one-valued past: the marginals agree across settings, but no past event
    screens the correlation off."""
    return two_wing_record([0] * 4, [0, 0, 1, 1], [0, 1, 0, 1], np.diag([0.5, 0, 0, 0.5]))


def noncommuting_scenario(delta):
    """Histories (z, a, b) = (0, 0, 0), (1, 1, 0), (1, 1, 1) with vectors
    (1, 0), (delta, 1/2), (-delta, 1/2): the two past atoms span every
    vector, so LoN holds.  PoZ's violation on the first wing is delta**2,
    a squared norm, while the wing operators fail to commute by delta."""
    v = np.array([[1.0, 0.0], [delta, 0.5], [-delta, 0.5]])
    return two_wing_record([0, 1, 1], [0, 1, 1], [0, 0, 1], v @ v.T / 2)


@pytest.mark.parametrize(
    "command", [["chsh"], ["nosignalling"], ["feasibility"], ["commute"], ["patch", "quantum"]]
)
def test_scenario_order_with_an_extra_point_refused(workdir, capsys, command):
    """An order naming a point that its history space lacks is refused when
    the theory is built, so every scenario command refuses it alike."""
    from qmeasure import gen_eprb
    from qmeasure import serialization as io

    doc = io.scenario_to_json(gen_eprb())
    for theory in doc["theories"].values():
        theory["order"]["points"].append("extra")
    io.dump_json(doc, "extra.json")
    assert main([*command, "extra.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "history space and causal order use different points" in captured.err


def _two_point_documents():
    """A dense functional, its order and a spin-pair scenario, as documents
    that every command below takes."""
    from qmeasure import gen_eprb
    from qmeasure import serialization as io

    space = {"points": ["a", "b"], "alphabets": {"a": 2, "b": 2}, "histories": [[0, 0], [1, 1]]}
    matrix = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    order = {"points": ["a", "b"], "covers": [["a", "b"]]}
    return {"space": space, "matrix": matrix}, order, io.scenario_to_json(gen_eprb())


# each list of names a document holds: (command, mutation, the key refused)
NAME_FIELDS = {
    "space points": ("poz", lambda dcf, order, sc: dcf["space"].update(points="ab"), "points"),
    "space labels": ("poz", lambda dcf, order, sc: dcf["space"].update(labels="xy"), "labels"),
    "empty labels": ("poz", lambda dcf, order, sc: dcf["space"].update(labels=""), "labels"),
    "order points": ("poz", lambda dcf, order, sc: order.update(points="ab"), "points"),
    "string cover": ("poz", lambda dcf, order, sc: order.update(covers=["ab"]), "each cover"),
    "long cover": ("poz", lambda dcf, order, sc: order.update(covers=[["a", "b", "a"]]), "each cover"),
    "scenario z": ("chsh", lambda dcf, order, sc: sc.update(z="z"), "z"),
    "scenario a": ("chsh", lambda dcf, order, sc: sc.update(a="wa"), "a"),
    "scenario b": ("chsh", lambda dcf, order, sc: sc.update(b="wb"), "b"),
}


@pytest.mark.parametrize("field", sorted(NAME_FIELDS))
def test_a_string_is_not_read_as_a_list_of_names(workdir, capsys, field):
    command, mutate, key = NAME_FIELDS[field]
    dcf, order, scenario = _two_point_documents()
    target = "model" if command == "poz" else "scenario.json"
    for mutated in (False, True):
        if mutated:
            mutate(dcf, order, scenario)
        os.makedirs("model", exist_ok=True)
        for doc, path in ((dcf, "model/dcf.json"), (order, "model/order.json"), (scenario, "scenario.json")):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        code = main([command, target])
        err = capsys.readouterr().err
        assert code == (2 if mutated else 0), err
    assert f"{key} must be a list of" in err


class TestCheckViolationExitCodes:
    """A physics check failing on well-formed input exits 3, not 2."""

    def test_quantum_patch_without_lack_of_novelty(
        self, workdir, capsys, eprb_computational_basis
    ):
        from qmeasure import serialization as io

        io.dump_json(io.scenario_to_json(eprb_computational_basis), "cb.json")
        code = main(["patch", "quantum", "cb.json"])
        assert code == 3
        assert "fails lack of novelty" in capsys.readouterr().err

    def test_non_hermitian_functional_fails_validation(self, workdir, capsys):
        from qmeasure import DecoherenceFunctional, HistorySpace
        from qmeasure import serialization as io

        space = HistorySpace(points=("p",), histories=((0,), (1,)))
        dcf = DecoherenceFunctional(space, matrix=np.array([[0.5, 0.1j], [0.1j, 0.5]]))
        io.dump_json(io.dcf_to_json(dcf), "dcf.json")
        code, out = run(capsys, "validate", "dcf.json")
        assert code == 3
        assert '"hermitian": false' in out
        assert json.loads(out)["passed"] is False

    def test_classical_patch_of_non_factorizable_theories(self, workdir, capsys):
        from qmeasure import serialization as io

        scenario = correlated_classical_scenario()
        assert all(t.dcf.validate_axioms().passed for t in scenario.theories.values())
        io.dump_json(io.scenario_to_json(scenario), "c.json")
        code, out = run(capsys, "nosignalling", "c.json")
        assert code == 0 and json.loads(out)["max_residual"] == 0.0
        code, out = run(capsys, "factorizability", "classical", "c.json")
        assert code == 3 and json.loads(out)["max_residual"] == pytest.approx(0.25, abs=1e-15)
        code = main(["patch", "classical", "c.json"])
        assert code == 3
        assert "theories are not factorizable (residual 2.500e-01)" in capsys.readouterr().err

    def test_commute_fails_on_the_converse_spin_pair(self, workdir, capsys):
        """The converse scenario of the stock joint fails the composed action
        on the theories whose operators the patch did not apply last."""
        from qmeasure import converse_model, gen_eprb, quantum_patch
        from qmeasure import serialization as io

        scenario = converse_model(quantum_patch(gen_eprb()).beam_joint())
        io.dump_json(io.scenario_to_json(scenario), "converse.json")
        code, out = run(capsys, "commute", "converse.json")
        report = json.loads(out)
        assert code == 3 and report["passed"] is False
        assert report["action_residual"] == pytest.approx(0.24498055591432052, abs=1e-12)
        assert report["commutator_norm"] < 1e-12

    def test_wing_operators_that_do_not_commute(self, workdir, capsys):
        """PoZ's squared violation 1e-10 clears the default tolerance and LoN
        holds, yet the commutator is 1e-5: `commute` fails on it alone, with
        no action residual, and it is the gate that refuses `patch quantum`."""
        from qmeasure import serialization as io

        scenario = noncommuting_scenario(1e-5)
        io.dump_json(io.scenario_to_json(scenario), "nc.json")
        os.makedirs("model")
        io.dump_json(io.dcf_to_json(scenario.theory(0, 0).dcf), "model/dcf.json")
        io.dump_json(io.order_to_json(scenario.theory(0, 0).order), "model/order.json")
        for command in ("poz", "lon"):
            code, _ = run(capsys, command, "model")
            assert code == 0, command
        code, out = run(capsys, "commute", "nc.json")
        report = json.loads(out)
        assert code == 3 and report["passed"] is False
        assert report["commutator_norm"] == pytest.approx(1e-5, rel=1e-9)
        assert report["action_residual"] < 1e-12
        assert main(["patch", "quantum", "nc.json"]) == 3
        assert capsys.readouterr().err == (
            "violation: wing operators do not commute (scaled residual 1.000e-05)\n"
        )

    def test_nosignalling_fails_on_a_signalling_table(self, workdir, capsys, pr_documents):
        table = json.loads(json.dumps(pr_documents[1]))
        table["a'b"] = [[0.5, 0], [0.5, 0]]
        with open("signalling.json", "w") as fh:
            json.dump(table, fh)
        code, out = run(capsys, "nosignalling", "signalling.json")
        report = json.loads(out)
        assert code == 3 and report["passed"] is False
        assert report["max_residual"] == pytest.approx(0.5, abs=1e-15)

    def test_poz_on_a_functional_that_is_not_strongly_positive(self, workdir, capsys):
        from qmeasure import DecoherenceFunctional, gen_double_slit
        from qmeasure import serialization as io

        space, order, dcf = gen_double_slit()
        matrix = dcf.matrix.copy()
        matrix[0, 0] -= 0.1  # min eigenvalue about -0.055
        os.makedirs("bad")
        io.dump_json(
            io.dcf_to_json(DecoherenceFunctional(space, matrix=matrix)), "bad/dcf.json"
        )
        io.dump_json(io.order_to_json(order), "bad/order.json")
        code = main(["poz", "bad"])
        assert code == 3
        assert "not positive semi-definite" in capsys.readouterr().err

    def test_inconsistent_event_operator_is_a_check_violation(self):
        # no command builds an operator whose PoZ check has not already
        # passed, so this case is pinned at the library boundary
        from qmeasure import CheckViolation, event_operator, gen_double_slit

        _, order, dcf = gen_double_slit(time_reversed=True)
        left = dcf.space.value_event("slit", 0)
        with pytest.raises(CheckViolation, match="inconsistent"):
            event_operator(dcf, order, ("slit",), left, ("screen",))
        assert issubclass(CheckViolation, ValueError)


SETTING_NAMES = ("ab", "ab'", "a'b", "a'b'")
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.fixture(scope="module")
def pr_documents(tmp_path_factory):
    """The beam-functional and table documents that `gen pr` writes."""
    out = tmp_path_factory.mktemp("pr")
    assert main(["gen", "pr", "--out", str(out)]) == 0
    with open(out / "beamdcfs.json") as fh:
        beam = json.load(fh)
    with open(out / "table.json") as fh:
        table = json.load(fh)
    return beam, table


class TestLoaderFaults:
    def _write(self, doc, path="mutated.json"):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_non_finite_beam_entry_is_input_error(self, workdir, capsys, pr_documents):
        for bad in NON_FINITE:
            doc = json.loads(json.dumps(pr_documents[0]))
            doc["a'b"]["matrix"][3][0][0] = bad
            path = self._write(doc)
            for command in ("nosignalling", "feasibility", "chsh"):
                assert main([command, path]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "non-finite" in captured.err

    def test_non_finite_report_exits_2_and_writes_nothing(self, workdir, capsys, pr_documents):
        """Finite entries of 1e308 overflow to a NaN residual; a report is
        strict JSON, so it is refused rather than printed or written."""
        doc = json.loads(json.dumps(pr_documents[0]))
        for name in ("ab", "ab'"):
            for i in (0, 1):
                doc[name]["matrix"][i][i] = [1e308, 0.0]
        path = self._write(doc)
        for out in ([], ["--out", "report.json"]):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["nosignalling", path, *out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: Out of range float values")
            assert not os.path.exists("report.json")

    def test_scalar_slots_is_input_error(self, workdir, capsys, pr_documents):
        doc = json.loads(json.dumps(pr_documents[0]))
        doc["ab"]["slots"] = 2
        path = self._write(doc)
        for command in ("nosignalling", "feasibility", "chsh"):
            assert main([command, path]) == 2
            assert "slots must be 2 positive integers" in capsys.readouterr().err


    def test_malformed_documents_are_input_errors(self, workdir, capsys):
        run(capsys, "gen", "pr", "--out", "pr")
        with open("pr/dcf.json") as fh:
            doc = json.load(fh)
        doc["space"]["points"] = 5
        assert main(["validate", self._write(doc)]) == 2
        assert "malformed input" in capsys.readouterr().err
        run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        with open("sk.json") as fh:
            doc = json.load(fh)
        doc["gates"] = [5]
        path = self._write(doc)
        for argv in (["sk", "truncation", path, "--tf1", "1", "--tf2", "2"], ["validate", path]):
            assert main(argv) == 2
            assert "malformed input" in capsys.readouterr().err
        path = self._write({"angles": 5})
        assert main(["gen", "eprb", "--config", path, "--out", "eprb"]) == 2
        assert "malformed input" in capsys.readouterr().err

    def test_complex_beam_diagonal_is_input_error(self, workdir, capsys, pr_documents):
        """`chsh` reads measures off the diagonals and refuses an imaginary
        part, as a scenario's correlation table does."""
        doc = json.loads(json.dumps(pr_documents[0]))
        doc["ab"]["matrix"][0][0] = [0.5, 0.3]
        path = self._write(doc)
        assert main(["chsh", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "hermiticity violated" in captured.err

    def test_non_finite_amplitudes_are_input_errors(self, workdir, capsys):
        run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        with open("sk.json") as fh:
            doc = json.load(fh)
        doc["psi"][0] = [float("nan"), 0.0]
        assert main(["sk", "factorizability", self._write(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err
        path = self._write({"initial_state": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 3})
        assert main(["gen", "eprb", "--config", path, "--out", "eprb"]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not os.path.exists("eprb")


_entry_values = st.one_of(st.sampled_from(NON_FINITE), st.floats(-1e3, 1e3))


_slot_values = st.one_of(
    st.integers(-3, 6),
    st.lists(st.integers(-2, 6), max_size=3),
    st.lists(
        st.one_of(st.floats(allow_nan=True), st.booleans(), st.text(max_size=2), st.none()),
        max_size=3,
    ),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)

_beam_mutation = st.one_of(
    st.tuples(
        st.just("entry"), st.sampled_from(SETTING_NAMES), st.integers(0, 3),
        st.integers(0, 3), st.integers(0, 1), _entry_values,
    ),
    st.tuples(st.just("slots"), st.sampled_from(SETTING_NAMES), _slot_values),
    st.tuples(st.just("drop row"), st.sampled_from(SETTING_NAMES), st.integers(0, 3)),
    st.tuples(
        st.just("drop key"), st.sampled_from(SETTING_NAMES),
        st.sampled_from(["slots", "matrix"]),
    ),
)

_table_mutation = st.tuples(
    st.just("table entry"), st.sampled_from(SETTING_NAMES), st.integers(0, 1),
    st.integers(0, 1), _entry_values,
)


def _apply(beam, table, mutation):
    """Apply one mutation; returns the document it changed."""
    kind, name = mutation[0], mutation[1]
    if kind == "table entry":
        _, _, i, j, value = mutation
        table[name][i][j] = value
        return table
    if kind == "entry":
        _, _, i, j, part, value = mutation
        beam[name]["matrix"][i][j][part] = value
    elif kind == "slots":
        beam[name]["slots"] = mutation[2]
    elif kind == "drop row":
        rows = beam[name].get("matrix", [])
        if rows:
            del rows[mutation[2] % len(rows)]
    else:
        beam[name].pop(mutation[2], None)
    return beam


def _holds_non_finite(node):
    """Whether a JSON value holds a NaN or infinite number anywhere.

    Judged on the final document, since a later mutation may overwrite or
    drop an entry that an earlier one made non-finite."""
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_holds_non_finite(v) for v in node.values())
    if isinstance(node, list):
        return any(_holds_non_finite(v) for v in node)
    return False


class TestMutatedPrDocuments:
    @settings(max_examples=150, deadline=None)
    @given(mutations=st.lists(st.one_of(_beam_mutation, _table_mutation), min_size=1, max_size=3))
    def test_mutations_exit_cleanly(self, pr_documents, tmp_path_factory, mutations):
        """Whatever is broken, a command exits 0, 2 or 3 without a traceback,
        and a document holding a non-finite entry never passes."""
        path = tmp_path_factory.mktemp("mutated") / "doc.json"
        for target in ("beam", "table"):
            beam, table = json.loads(json.dumps(pr_documents))
            doc = beam if target == "beam" else table
            # entries first, so that each lands in an intact matrix
            for m in sorted(mutations, key=lambda m: m[0].startswith("drop")):
                if (m[0] == "table entry") == (target == "table"):
                    doc = _apply(beam, table, m)
            non_finite = _holds_non_finite(doc)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            for command in ("nosignalling", "feasibility", "chsh"):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, str(path)])
                assert code in (0, 2, 3), (command, mutations, stderr.getvalue())
                assert "Traceback" not in stderr.getvalue()
                if non_finite:
                    assert code == 2
                    assert '"passed": true' not in stdout.getvalue()


@pytest.fixture(scope="module")
def model_documents(tmp_path_factory):
    """The documents that `gen double-slit` and `gen eprb` write, by name."""
    out = tmp_path_factory.mktemp("models")
    assert main(["gen", "double-slit", "--out", str(out / "ds")]) == 0
    assert main(["gen", "eprb", "--out", str(out / "eprb")]) == 0
    docs = {}
    for name in ("ds/dcf.json", "ds/order.json", "eprb/scenario.json"):
        with open(out / name) as fh:
            docs[name] = json.load(fh)
    return docs


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70000), st.floats(), st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)
# a path of steps into the document, then the node reached is dropped or set
_doc_mutation = st.tuples(
    st.lists(st.integers(0, 1 << 16), min_size=1, max_size=8),
    st.one_of(st.just(("drop",)), st.tuples(st.just("set"), _json_values)),
)


def _mutate(doc, path, action):
    """Walk `path`, each step picking a key or item of the node modulo their
    count, and drop or replace the node it reaches."""
    parent = key = None
    node = doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        parent = node
        key = sorted(node)[step % len(node)] if isinstance(node, dict) else step % len(node)
        node = parent[key]
    if parent is None:  # an empty document has nothing left to break
        return
    if action[0] == "drop":
        del parent[key]
    else:
        parent[key] = action[1]


MODEL_COMMANDS = {
    "ds/dcf.json": (["validate"], ["hilbert"], ["poz"], ["lon"]),
    "ds/order.json": (["poz"], ["lon"]),
    "eprb/scenario.json": (["chsh"], ["nosignalling"], ["commute"], ["patch", "quantum"]),
}


class TestMutatedModelDocuments:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODEL_COMMANDS)),
        mutations=st.lists(_doc_mutation, min_size=1, max_size=3),
    )
    def test_mutations_exit_cleanly(self, model_documents, tmp_path_factory, name, mutations):
        """Whatever is broken in a model or scenario document, each command
        that reads it exits 0, 2 or 3 without a traceback."""
        root = tmp_path_factory.mktemp("mutated")
        docs = json.loads(json.dumps(model_documents))
        for path, action in mutations:
            _mutate(docs[name], path, action)
        for doc_name, doc in docs.items():
            os.makedirs(root / os.path.dirname(doc_name), exist_ok=True)
            with open(root / doc_name, "w") as fh:
                json.dump(doc, fh)
        for command in MODEL_COMMANDS[name]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*command, str(root / os.path.dirname(name))])
            assert code in (0, 2, 3), (command, mutations, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()


@pytest.fixture
def sk2(workdir, capsys):
    run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
    return "sk.json"


class TestCommaPointNames:
    """Circuit cells are named "s,t": a point list reads each point as the
    longest run of comma-joined tokens that names a point."""

    def test_poz_regions(self, sk2, capsys):
        code, out = run(capsys, "poz", sk2, "--regions", "0,1;0,1,1,1")
        assert code == 0
        report = json.loads(out)
        assert [r["region"] for r in report["results"]] == [["0,1"], ["0,1", "1,1"]]
        assert report["skipped_vacuous"] == 0

    def test_lon_regions(self, sk2, capsys):
        code, out = run(capsys, "lon", sk2, "--regions", "0,0;0,0,1,0")
        assert code == 0
        assert [r["z"] for r in json.loads(out)["results"]] == [["0,0"], ["0,0", "1,0"]]

    def test_quantum_factorizability_matches_sk_command(self, sk2, capsys):
        from qmeasure.serialization import load_json

        cells = load_json(sk2)["regions"]
        lists = {tag: ",".join(c for c, t in cells.items() if t == tag) for tag in "ZAB"}
        code, out = run(
            capsys, "factorizability", "quantum", sk2,
            "--z", lists["Z"], "--a", lists["A"], "--b", lists["B"],
        )
        code_sk, out_sk = run(capsys, "sk", "factorizability", sk2)
        assert code == code_sk == 0
        assert out == out_sk

    def test_empty_wing_list_is_the_empty_wing(self, sk2, capsys):
        past = "0,0,0,1,1,0,1,1,2,0,2,1,3,0,3,1"
        code, out = run(
            capsys, "factorizability", "quantum", sk2,
            "--z", past, "--a", "", "--b", "2,2,3,2",
        )
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True and report["exhaustive"] is True

    @pytest.mark.parametrize("option", ["--z", "--a", "--b"])
    def test_omitted_factorizability_list_refused(self, sk2, capsys, option):
        lists = {"--z": "0,0,1,0", "--a": "0,2,1,2", "--b": "2,2,3,2"}
        del lists[option]
        argv = [arg for item in lists.items() for arg in item]
        assert main(["factorizability", "quantum", sk2, *argv]) == 2
        assert "needs --z --a --b point lists" in capsys.readouterr().err

    def test_hilbert_region(self, sk2, capsys):
        from conftest import span_rank
        from qmeasure import gen_sk_circuit, region_algebra
        from qmeasure.serialization import load_json, sk_config_from_json

        code, out = run(capsys, "hilbert", sk2, "--region", "0,0,1,0")
        assert code == 0
        report = json.loads(out)
        dcf = gen_sk_circuit(sk_config_from_json(load_json(sk2))).dcf
        alg = region_algebra(dcf.space, ("0,0", "1,0"))
        eig = np.linalg.eigvalsh(dcf.grouped(alg.atom_index[dcf.live], alg.n_atoms))
        assert report["region"] == ["0,0", "1,0"]
        assert (report["atoms"], report["rank"]) == (alg.n_atoms, span_rank(dcf, alg.points))
        universal = dcf.measure(dcf.space.full_event())
        assert report["universal_norm2"] == pytest.approx(universal, abs=1e-12)
        assert report["min_eigenvalue"] == pytest.approx(eig.min(), abs=1e-12)
        assert report["max_eigenvalue"] == pytest.approx(eig.max(), abs=1e-12)

    def test_unreadable_list_names_the_first_unread_token(self, sk2, capsys):
        assert main(["poz", sk2, "--regions", "0,1;0,1,9,1,1"]) == 2
        assert "unknown point '9'" in capsys.readouterr().err
        assert main(["hilbert", sk2, "--region", "0"]) == 2
        assert "unknown point '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--z", "--a", "--b"])
    def test_repeated_point_in_a_factorizability_list(self, sk2, capsys, option):
        lists = {"--z": "0,0,1,0", "--a": "0,2,1,2", "--b": "2,2,3,2"}
        first = lists[option][:3]
        lists[option] += "," + first
        argv = [arg for item in lists.items() for arg in item]
        assert main(["factorizability", "quantum", sk2, *argv]) == 2
        assert f"point {first!r} is listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["hilbert", "ds", "--region", "slit,slit"],
            ["poz", "ds", "--regions", "screen;slit,screen,slit"],
            ["lon", "ds", "--regions", "slit,slit"],
        ],
    )
    def test_repeated_point_is_an_input_error(self, workdir, capsys, argv):
        run(capsys, "gen", "double-slit", "--out", "ds")
        assert main(argv) == 2
        assert "point 'slit' is listed twice" in capsys.readouterr().err

    def test_double_slit_lists_parse_as_before(self, workdir, capsys):
        from qmeasure import check_poz, gen_double_slit
        from qmeasure.cli import _parse_points

        names = ("slit", "screen")
        assert _parse_points("slit,screen", names) == ("slit", "screen")
        assert _parse_points("screen,,slit,", names) == ("screen", "slit")
        assert _parse_points("", names) == ()
        run(capsys, "gen", "double-slit", "--time-reversed", "--out", "dsr")
        code, out = run(capsys, "poz", "dsr", "--regions", "slit;slit,screen;screen")
        _, order, dcf = gen_double_slit(time_reversed=True)
        regions = [order.region(r) for r in (["slit"], ["slit", "screen"], ["screen"])]
        assert code == 3
        assert json.loads(out)["results"] == check_poz(dcf, order, regions).as_dict()["results"]


def not_strongly_positive(shift):
    """The two-slit model with `shift` times a null direction of its matrix
    taken away, so its least eigenvalue is -shift."""
    from qmeasure import DecoherenceFunctional, gen_double_slit
    from qmeasure import serialization as io

    space, order, dcf = gen_double_slit()
    w, v = np.linalg.eigh(dcf.matrix)
    null = v[:, np.argmin(np.abs(w))]
    matrix = dcf.matrix - shift * np.outer(null, null.conj())
    os.makedirs("bad")
    io.dump_json(io.dcf_to_json(DecoherenceFunctional(space, matrix=matrix)), "bad/dcf.json")
    io.dump_json(io.order_to_json(order), "bad/order.json")
    return "bad"


class TestOptionRanges:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["validate", "ds", "--tol", "nan"], "--tol"),
            (["validate", "ds", "--tol", "-1"], "--tol"),
            (["validate", "ds", "--tol", "0"], "--tol"),
            (["validate", "ds", "--tol", "1"], "--tol"),
            (["poz", "ds", "--tol", "nan"], "--tol"),
            (["poz", "ds", "--tol", "-1"], "--tol"),
            # --tol sets feasibility's stopping rule; there is no --gap-tol
            (["feasibility", "pr/beamdcfs.json", "--gap-tol", "1e-6"], "--gap-tol"),
            (["feasibility", "pr/beamdcfs.json", "--tol", "0"], "--tol"),
            (["feasibility", "pr/beamdcfs.json", "--tol", "nan"], "--tol"),
            (["feasibility", "pr/beamdcfs.json", "--budget", "0"], "--budget"),
            (["gen", "double-slit", "--out", "ds2", "--tol", "1e-9"], "--tol"),
            # every output is JSON; there is no --format
            (["validate", "ds", "--format", "text"], "--format"),
            (["gen", "double-slit", "--out", "ds2", "--format", "json"], "--format"),
        ],
    )
    def test_out_of_range_exits_2_naming_the_option(self, workdir, capsys, argv, option):
        run(capsys, "gen", "double-slit", "--out", "ds")
        run(capsys, "gen", "pr", "--out", "pr")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["poz", "ds"],
            ["validate", "ds"],
            ["commute", "eprb"],
            ["patch", "quantum", "eprb"],
            ["chsh", "pr/table.json"],
            ["sk", "factorizability", "sk.json"],
        ],
    )
    def test_tol_below_the_rounding_floor_exits_2_naming_it(self, workdir, capsys, argv):
        # at 1e-15, commute and patch quantum on eprb used to exit 3 on rounding
        run(capsys, "gen", "double-slit", "--out", "ds")
        run(capsys, "gen", "eprb", "--out", "eprb")
        run(capsys, "gen", "pr", "--out", "pr")
        run(capsys, "sk", "fixture", "--steps", "2", "--out", "sk.json")
        assert main([*argv, "--tol", "1.4210854715202004e-14"]) in (0, 3)
        capsys.readouterr()
        assert main([*argv, "--tol", "1e-15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol 1e-15 is below the rounding floor 1.42e-14\n"

    def test_no_command_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().out.startswith("usage: qmeasure [-h] [--schema]")

    def test_infinite_tol_cannot_pass_a_non_positive_functional(self, workdir, capsys):
        bad = not_strongly_positive(0.055)
        code, out = run(capsys, "validate", bad)
        assert code == 3 and json.loads(out)["strongly_positive"] is False
        with pytest.raises(SystemExit) as exc:
            main(["validate", bad, "--tol", "inf"])
        assert exc.value.code == 2

    def test_loaded_functional_carries_tol(self, workdir, capsys):
        bad = not_strongly_positive(1e-8)
        for command in ("validate", "poz", "hilbert"):
            code, out = run(capsys, command, bad, "--tol", "1e-6")
            assert code == 0, command
            assert json.loads(out)["tolerance"] == 1e-6
        assert main(["poz", bad]) == 3
        assert "not positive semi-definite" in capsys.readouterr().err
        assert main(["hilbert", bad]) == 3

    def test_tol_of_one_call_is_not_kept(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        for argv, tol in ((["--tol", "1e-6"], 1e-6), ([], 1e-9)):
            code, out = run(capsys, "poz", "ds", *argv)
            assert code == 0 and json.loads(out)["tolerance"] == tol

    def test_hilbert_reports_its_tol(self, workdir, capsys):
        run(capsys, "gen", "double-slit", "--out", "ds")
        code, out = run(capsys, "hilbert", "ds", "--tol", "1e-6")
        assert code == 0 and json.loads(out)["tolerance"] == 1e-6

    def test_scenario_theories_carry_tol(self, workdir, capsys):
        import dataclasses

        from qmeasure import DecoherenceFunctional, gen_eprb
        from qmeasure import serialization as io

        # every theory 1e-8 short of positive: below the default floor, above
        # 1e-6's, so exit 0 at --tol 1e-6 needs the tolerance on all four
        def short(t):
            w, v = np.linalg.eigh(t.dcf.matrix)
            null = v[:, np.argmin(np.abs(w))]
            matrix = t.dcf.matrix - 1e-8 * np.outer(null, null.conj())
            return dataclasses.replace(t, dcf=DecoherenceFunctional(t.space, matrix=matrix))

        scenario = gen_eprb()
        scenario = dataclasses.replace(
            scenario, theories={k: short(t) for k, t in scenario.theories.items()}
        )
        os.makedirs("eprb")
        io.dump_json(io.scenario_to_json(scenario), "eprb/scenario.json")
        for path in ("eprb", "eprb/scenario.json"):
            assert main(["commute", path]) == 3
            assert "not positive semi-definite" in capsys.readouterr().err
            code, out = run(capsys, "commute", path, "--tol", "1e-6")
            assert code == 0 and json.loads(out)["passed"] is True
