"""Exercises every subcommand through main(argv) and checks exit codes."""

import hashlib
import json

import numpy as np
import pytest

import rgcl.evaluation
import rgcl.graphs as rgcl_graphs
from rgcl.cli import main
from rgcl.evaluation import PROBE_STOP_NORM, view_similarities
from rgcl.graphs import load_dataset_json
from rgcl.training import load_checkpoint


SPEC = {
    "motif_size": 4,
    "background_size_range": [8, 10],
    "feature_dim": 4,
    "seed": 1,
}

CONFIG_CORE = {
    "batch_size": 4,
    "epochs": 1,
    "learning_rate": 0.01,
    "tau": 0.2,
    "lambda": 0.1,
    "rho": 0.8,
    "seed": 5,
    "encoder_dims": [8, 6],
    "generator_dims": [5],
    "generator_head": [4, 1],
    "projector_hidden": 5,
    "projector_dim": 4,
    "checkpoint_every": 100,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    """A synthesized dataset plus a config file pointing at it."""
    spec_path = write_json(tmp_path / "spec.json", SPEC)
    data_path = tmp_path / "data.json"
    assert main(["synth", "--spec", spec_path, "--count", "8",
                 "--out", str(data_path)]) == 0
    config = dict(CONFIG_CORE)
    config["dataset"] = {"json": str(data_path)}
    config["output_dir"] = str(tmp_path / "run")
    config_path = write_json(tmp_path / "config.json", config)
    return tmp_path, config_path, data_path


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def failing_replace(src, dst):
    raise OSError("disk full")


def make_bad_file(path, case):
    """Turn ``path`` into one of the ways an input file can be bad."""
    if case == "directory":
        path.mkdir()
    elif case == "non-utf8":
        path.write_bytes(b'{"name": "\xff"}')
    elif case == "invalid-json":
        path.write_text('{"batch_size": 4,')
    elif case == "json-list":
        path.write_text("[]")
    else:
        assert case == "missing"


def strip_labels(data_path):
    payload = json.loads(data_path.read_text())
    for item in payload["graphs"]:
        del item["y"]
    data_path.write_text(json.dumps(payload))


class TestPipeline:
    def test_synth_pretrain_eval_rationale_end_to_end(self, workspace, capsys):
        tmp, config_path, data_path = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        ckpt = tmp / "run" / "ckpt_final.json"
        assert ckpt.exists()
        metrics = (tmp / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(metrics) == 2  # 8 graphs / batch 4, 1 epoch

        assert main(["eval", "--config", config_path,
                     "--checkpoint", str(ckpt)]) == 0
        results = json.loads((tmp / "run" / "results.json").read_text())
        assert set(results) >= {"variant", "seed", "probe", "rationale"}
        assert 0.0 <= results["probe"]["test_accuracy"] <= 1.0
        probe = results["probe"]
        assert probe["converged"] is (probe["grad_norm"] < PROBE_STOP_NORM)
        assert results["rationale"] is not None
        out = capsys.readouterr().out
        assert "probe test acc" in out

        export = tmp / "export.json"
        assert main(["rationale", "--checkpoint", str(ckpt),
                     "--dataset", str(data_path), "--out", str(export)]) == 0
        records = json.loads(export.read_text())
        assert len(records) == 8
        assert {"graph_index", "probs", "topk"} <= set(records[0])

    def test_pretrain_variant_flag(self, workspace):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path,
                     "--variant", "no_i"]) == 0
        assert (tmp / "run" / "ckpt_final.json").exists()

    def test_rerun_overwrites_identically(self, workspace):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        first = file_digest(tmp / "run" / "metrics.jsonl")
        first_ckpt = file_digest(tmp / "run" / "ckpt_final.json")
        assert main(["pretrain", "--config", config_path]) == 0
        assert file_digest(tmp / "run" / "metrics.jsonl") == first
        assert file_digest(tmp / "run" / "ckpt_final.json") == first_ckpt

    def test_env_seed_override(self, workspace, monkeypatch):
        tmp, config_path, _ = workspace
        monkeypatch.setenv("RGCL_SEED", "9")
        assert main(["pretrain", "--config", config_path]) == 0
        _, config = load_checkpoint(tmp / "run" / "ckpt_final.json")
        assert config.seed == 9

    def test_bad_env_seed_is_config_error(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        monkeypatch.setenv("RGCL_SEED", "not-a-number")
        assert main(["pretrain", "--config", config_path]) == 2

    @pytest.mark.parametrize("command", ["pretrain", "sweep"])
    def test_negative_env_seed_fails_before_the_dataset_loads(self, workspace, monkeypatch,
                                                             capsys, command):
        """numpy used to refuse the seed only after the dataset had loaded."""
        tmp, config_path, data_path = workspace
        data_path.unlink()  # a loaded dataset would now exit 3
        monkeypatch.setenv("RGCL_SEED", "-1")
        grid = ["--grid", write_json(tmp / "grid.json", {"tau": [0.2]})]
        assert main([command, "--config", config_path] + (grid if command == "sweep" else [])) == 2
        assert "seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp / "run").exists()


class TestConfigErrors:
    @pytest.mark.parametrize("where", ["train", "synthetic-spec"])
    def test_negative_seed_fails_before_any_compute(self, workspace, capsys, where):
        tmp, config_path, _ = workspace
        config = json.loads((tmp / "config.json").read_text())
        if where == "train":
            config["seed"] = -1
        else:
            config["dataset"] = {"synthetic": {"spec": {"seed": -1}, "count": 4}}
        config["output_dir"] = str(tmp / "never")
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2
        assert not (tmp / "never").exists()
        assert "seed" in capsys.readouterr().err

    def test_invalid_rho_fails_before_any_compute(self, workspace, capsys):
        tmp, config_path, data_path = workspace
        config = json.loads((tmp / "config.json").read_text())
        config["rho"] = 0.0
        config["output_dir"] = str(tmp / "never")
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2
        assert not (tmp / "never").exists()
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field_name, value",
        [("batch_size", 2.5), ("epochs", True), ("tau", "0.2"), ("encoder_dims", 32)],
    )
    def test_mistyped_field_is_config_error(self, workspace, capsys, field_name, value):
        tmp, config_path, _ = workspace
        config = json.loads((tmp / "config.json").read_text())
        config[field_name] = value
        write_json(tmp / "config.json", config)
        assert main(["pretrain", "--config", config_path]) == 2
        assert field_name in capsys.readouterr().err
        assert not (tmp / "run" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("count", [6.7, True])
    def test_mistyped_synthetic_count_is_config_error(self, workspace, capsys, count):
        tmp, _, _ = workspace
        config = dict(CONFIG_CORE, output_dir=str(tmp / "run"))
        config["dataset"] = {"synthetic": {"spec": SPEC, "count": count}}
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2
        assert "count: must be an integer" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_unknown_field_is_named(self, workspace, capsys):
        tmp, _, data_path = workspace
        config = dict(CONFIG_CORE)
        config["dataset"] = {"json": str(data_path)}
        config["output_dir"] = str(tmp / "run")
        config["momentum"] = 0.9
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2
        assert "momentum" in capsys.readouterr().err

    def test_missing_dataset_entry(self, workspace):
        tmp, _, _ = workspace
        config = dict(CONFIG_CORE)
        config["output_dir"] = str(tmp / "run")
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2

    def test_two_dataset_sources_rejected(self, workspace):
        tmp, _, data_path = workspace
        config = dict(CONFIG_CORE)
        config["dataset"] = {"json": str(data_path), "tu": "somewhere"}
        config["output_dir"] = str(tmp / "run")
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2

    @pytest.mark.parametrize(
        "entry, value, named",
        [
            ("output_dir", 5, "output_dir"),
            ("dataset", {"json": 5}, "dataset.json"),
            ("dataset", {"tu": None}, "dataset.tu"),
        ],
        ids=["output_dir-int", "json-int", "tu-null"],
    )
    def test_non_string_path_is_config_error(self, workspace, capsys, entry, value, named):
        tmp, _, data_path = workspace
        config = dict(CONFIG_CORE, dataset={"json": str(data_path)}, output_dir=str(tmp / "run"))
        config[entry] = value
        bad = write_json(tmp / "bad.json", config)
        assert main(["pretrain", "--config", bad]) == 2
        assert f"{named} must be a path string" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_malformed_json_config(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"batch_size": 4,')
        assert main(["pretrain", "--config", str(bad)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["pretrain", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_sweep_grid_key(self, workspace):
        tmp, config_path, _ = workspace
        grid = write_json(tmp / "grid.json", {"gamma": [1, 2]})
        assert main(["sweep", "--config", config_path, "--grid", grid]) == 2


class TestInputFiles:
    """Every JSON input goes through one reader: each way a file can be bad
    exits with its kind's code, names the file, and raises no traceback."""

    @pytest.mark.parametrize(
        "case", ["missing", "directory", "non-utf8", "invalid-json", "json-list"]
    )
    @pytest.mark.parametrize(
        "kind, code",
        [("config", 2), ("spec", 2), ("grid", 2), ("dataset", 3), ("checkpoint", 3)],
    )
    def test_bad_file_exits_with_its_kinds_code(self, workspace, capsys, kind, code, case):
        tmp, config_path, _ = workspace
        bad = tmp / "bad.json"
        make_bad_file(bad, case)
        if kind == "config":
            argv = ["pretrain", "--config", str(bad)]
        elif kind == "spec":
            argv = ["synth", "--spec", str(bad), "--count", "2", "--out", str(tmp / "d.json")]
        elif kind == "grid":
            argv = ["sweep", "--config", config_path, "--grid", str(bad)]
        elif kind == "dataset":
            config = dict(CONFIG_CORE, dataset={"json": str(bad)}, output_dir=str(tmp / "run"))
            argv = ["pretrain", "--config", write_json(tmp / "cfg.json", config)]
        else:
            argv = ["eval", "--config", config_path, "--checkpoint", str(bad)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert not (tmp / "run").exists() and not (tmp / "d.json").exists()


class TestDataErrors:
    def test_missing_dataset_file(self, workspace):
        tmp, _, _ = workspace
        config = dict(CONFIG_CORE)
        config["dataset"] = {"json": str(tmp / "absent.json")}
        config["output_dir"] = str(tmp / "run")
        bad = write_json(tmp / "cfg.json", config)
        assert main(["pretrain", "--config", bad]) == 3

    def test_missing_tu_directory(self, workspace):
        tmp, _, _ = workspace
        config = dict(CONFIG_CORE)
        config["dataset"] = {"tu": str(tmp / "no_such_dir")}
        config["output_dir"] = str(tmp / "run")
        bad = write_json(tmp / "cfg.json", config)
        assert main(["pretrain", "--config", bad]) == 3

    def test_tu_entry_naming_a_file_exits_3(self, workspace, capsys):
        tmp, _, data_path = workspace
        config = dict(CONFIG_CORE, dataset={"tu": str(data_path)}, output_dir=str(tmp / "run"))
        bad = write_json(tmp / "cfg.json", config)
        assert main(["pretrain", "--config", bad]) == 3
        assert "not a directory" in capsys.readouterr().err

    def test_checkpoint_shape_mismatch(self, workspace):
        tmp, config_path, data_path = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        wide = json.loads((tmp / "config.json").read_text())
        wide["encoder_dims"] = [12, 12]
        wide_path = write_json(tmp / "wide.json", wide)
        assert main(["eval", "--config", wide_path,
                     "--checkpoint", str(tmp / "run" / "ckpt_final.json")]) == 3

    def test_non_finite_features_exit_3(self, workspace, capsys):
        tmp, config_path, data_path = workspace
        payload = json.loads(data_path.read_text())
        payload["graphs"][2]["x"][0][0] = float("nan")
        data_path.write_text(json.dumps(payload))
        assert main(["pretrain", "--config", config_path]) == 3
        assert "graph 2: node features must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edges", [[[0, 1.7]], [[True, False]], [["0", "1"]], [0, 1, 1, 2], [[0, 10**20]]],
        ids=["float", "bool", "string", "flat", "too-large"],
    )
    def test_bad_edge_endpoints_exit_3(self, workspace, capsys, edges):
        tmp, config_path, data_path = workspace
        payload = json.loads(data_path.read_text())
        payload["graphs"][2]["edges"] = edges
        data_path.write_text(json.dumps(payload))
        assert main(["pretrain", "--config", config_path]) == 3
        assert "graph 2: edges must be an [E, 2] list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["no", 0.5], ids=["string", "float"])
    def test_bad_rationale_mask_exits_3(self, workspace, capsys, entry):
        tmp, config_path, data_path = workspace
        payload = json.loads(data_path.read_text())
        payload["graphs"][2]["rationale"][0] = entry
        data_path.write_text(json.dumps(payload))
        assert main(["pretrain", "--config", config_path]) == 3
        assert "graph 2: rationale mask must" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["graphs-not-a-list", "feature-dim-string", "mixed-widths"])
    def test_malformed_dataset_json_exits_3(self, workspace, capsys, case):
        tmp, config_path, data_path = workspace
        payload = json.loads(data_path.read_text())
        if case == "graphs-not-a-list":
            payload["graphs"] = 5
        elif case == "feature-dim-string":
            payload["feature_dim"] = "x"
        else:
            payload["graphs"][1]["x"] = [row + [0.0] for row in payload["graphs"][1]["x"]]
        data_path.write_text(json.dumps(payload))
        assert main(["pretrain", "--config", config_path]) == 3
        assert "data error" in capsys.readouterr().err

    def test_missing_rationale_dataset_exits_3(self, workspace):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        assert main(["rationale", "--checkpoint", str(tmp / "run" / "ckpt_final.json"),
                     "--dataset", str(tmp / "absent.json"),
                     "--out", str(tmp / "export.json")]) == 3

    @pytest.mark.parametrize("command", ["eval", "rationale"])
    @pytest.mark.parametrize(
        "payload", [[], {"format_version": 1, "config": {}, "params": [1]}],
        ids=["list", "v1-params-list"],
    )
    def test_non_object_checkpoint_exits_3(self, workspace, command, payload):
        tmp, config_path, data_path = workspace
        ckpt = write_json(tmp / "ckpt.json", payload)
        if command == "eval":
            argv = ["eval", "--config", config_path, "--checkpoint", ckpt]
        else:
            argv = ["rationale", "--checkpoint", ckpt, "--dataset", str(data_path),
                    "--out", str(tmp / "export.json")]
        assert main(argv) == 3

    def test_unlabeled_dataset_exits_3_from_eval(self, workspace, capsys):
        tmp, config_path, data_path = workspace
        strip_labels(data_path)
        assert main(["pretrain", "--config", config_path]) == 0  # needs no labels
        assert main(["eval", "--config", config_path,
                     "--checkpoint", str(tmp / "run" / "ckpt_final.json")]) == 3
        assert "unlabeled" in capsys.readouterr().err
        assert not (tmp / "run" / "results.json").exists()

    def test_unlabeled_dataset_exits_3_from_sweep_before_any_cell(self, workspace, capsys):
        tmp, config_path, data_path = workspace
        strip_labels(data_path)
        grid = write_json(tmp / "grid.json", {"tau": [0.1, 0.2]})
        assert main(["sweep", "--config", config_path, "--grid", grid]) == 3
        assert "unlabeled" in capsys.readouterr().err
        assert not (tmp / "run").exists()

    def test_non_utf8_tu_file_exits_3_naming_it(self, workspace, capsys):
        tmp, _, _ = workspace
        tu = tmp / "tu"
        tu.mkdir()
        (tu / "T_A.txt").write_text("1, 2\n")
        (tu / "T_graph_indicator.txt").write_text("1\n1\n")
        (tu / "T_graph_labels.txt").write_bytes(b"\xff\n")
        config = dict(CONFIG_CORE, dataset={"tu": str(tu)}, output_dir=str(tmp / "run"))
        bad = write_json(tmp / "cfg.json", config)
        assert main(["pretrain", "--config", bad]) == 3
        err = capsys.readouterr().err
        assert "T_graph_labels.txt" in err and "Traceback" not in err
        assert not (tmp / "run").exists()

    @pytest.mark.parametrize(
        "field_path, bad",
        [
            (("step",), lambda v: v + 0.7),
            (("rng", "epoch"), lambda v: True),
            (("rng", "epoch_cursor"), str),
            (("input_dim",), float),
        ],
        ids=["step-float", "epoch-bool", "epoch-cursor-string", "input-dim-whole-float"],
    )
    def test_non_integer_checkpoint_field_exits_3(self, workspace, capsys, field_path, bad):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        ckpt = tmp / "run" / "ckpt_final.json"
        payload = json.loads(ckpt.read_text())
        *parents, name = field_path
        section = payload
        for key in parents:
            section = section[key]
        section[name] = bad(section[name])
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--checkpoint", str(ckpt)]) == 3
        assert f"{'.'.join(field_path)}: must be an integer" in capsys.readouterr().err
        assert not (tmp / "run" / "results.json").exists()

    def test_truncated_checkpoint(self, workspace):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        ckpt = tmp / "run" / "ckpt_final.json"
        ckpt.write_text(ckpt.read_text()[:100])
        assert main(["eval", "--config", config_path,
                     "--checkpoint", str(ckpt)]) == 3


class TestNumericErrors:
    def test_poisoned_checkpoint_exits_4(self, workspace):
        tmp, config_path, _ = workspace
        assert main(["pretrain", "--config", config_path]) == 0
        ckpt = tmp / "run" / "ckpt_final.json"
        payload = json.loads(ckpt.read_text())
        name = "encoder.layers.1.w2"
        payload["params"][name]["values"][0] = 1e308 * 10  # -> inf via JSON float
        ckpt.write_text(json.dumps(payload))
        with np.errstate(invalid="ignore"):  # inf * 0 inside the forward
            assert main(["eval", "--config", config_path,
                         "--checkpoint", str(ckpt)]) == 4

    def test_sweep_cell_with_non_finite_embeddings_exits_4(self, workspace, monkeypatch):
        tmp, config_path, _ = workspace
        pretrain = rgcl.evaluation.pretrain

        def poisoned_pretrain(*args, **kwargs):
            state = pretrain(*args, **kwargs)
            state.encoder.layers[-1].w2[0, 0] = np.inf
            return state

        monkeypatch.setattr(rgcl.evaluation, "pretrain", poisoned_pretrain)
        grid = write_json(tmp / "grid.json", {"tau": [0.1]})
        with np.errstate(invalid="ignore"):
            assert main(["sweep", "--config", config_path, "--grid", grid]) == 4


class TestSweep:
    def test_grid_produces_run_dirs_and_csv(self, workspace):
        tmp, config_path, _ = workspace
        grid = write_json(tmp / "grid.json", {"tau": [0.1, 0.2]})
        assert main(["sweep", "--config", config_path, "--grid", grid]) == 0
        lines = (tmp / "run" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "tau,lambda,rho,seed,probe_test_acc,rationale_precision"
        assert len(lines) == 3
        cells = sorted(p.name for p in (tmp / "run").iterdir() if p.is_dir())
        assert cells == ["tau0.1_lam0.1_rho0.8_seed5", "tau0.2_lam0.1_rho0.8_seed5"]
        for cell in cells:
            assert (tmp / "run" / cell / "results.json").exists()
            assert (tmp / "run" / cell / "metrics.jsonl").exists()
        first = float(lines[1].split(",")[4])
        assert 0.0 <= first <= 1.0

    def test_invalid_grid_value_is_config_error(self, workspace):
        tmp, config_path, _ = workspace
        grid = write_json(tmp / "grid.json", {"rho": [0.0]})
        assert main(["sweep", "--config", config_path, "--grid", grid]) == 2

    @pytest.mark.parametrize(
        "grid, named",
        [
            ({"tau": 0.1}, "'tau'"),
            ({"seeds": 5}, "'seeds'"),
            ({"lambda": []}, "'lambda'"),
            ({"seeds": [1.5]}, "seed: must be an integer"),
            ({"tau": ["0.3"]}, "tau: must be a finite number"),
            ({"tau": [True]}, "tau: must be a finite number"),
            ({"rho": [0.8, 0.0]}, "rho: must be in"),
            ({"seeds": [1, -1]}, "seed: must be >= 0"),
        ],
        ids=["tau-scalar", "seeds-scalar", "lambda-empty", "seed-float", "tau-string",
             "tau-bool", "bad-later-cell", "negative-seed"],
    )
    def test_mistyped_grid_fails_before_any_training(self, workspace, capsys, grid, named):
        tmp, config_path, _ = workspace
        path = write_json(tmp / "grid.json", grid)
        assert main(["sweep", "--config", config_path, "--grid", path]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp / "run").exists()


class TestEval:
    def test_no_rv_reports_that_variants_view_cosines(self, workspace):
        tmp, config_path, data_path = workspace
        assert main(["pretrain", "--config", config_path, "--variant", "no_rv"]) == 0
        ckpt = tmp / "run" / "ckpt_final.json"
        assert main(["eval", "--config", config_path, "--checkpoint", str(ckpt),
                     "--variant", "no_rv"]) == 0
        cosines = json.loads((tmp / "run" / "results.json").read_text())["view_cosines"]
        state, config = load_checkpoint(ckpt)
        expected = view_similarities(
            load_dataset_json(data_path), state, config, sample_seed=config.seed,
            variant="no_rv",
        )
        assert (cosines["positive"], cosines["complement"]) == expected


class TestSynth:
    def test_default_spec_and_hash_printed(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["synth", "--count", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "dataset hash:" in text
        assert out.exists()

    def test_failed_replace_leaves_the_previous_output_intact(self, tmp_path, monkeypatch):
        out = tmp_path / "sub" / "d.json"  # the writer creates the directory
        assert main(["synth", "--count", "2", "--out", str(out)]) == 0
        first = out.read_bytes()
        monkeypatch.setattr(rgcl_graphs.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["synth", "--count", "3", "--out", str(out)])
        monkeypatch.undo()
        assert out.read_bytes() == first
        assert [p.name for p in out.parent.iterdir()] == ["d.json"]

    def test_printed_hash_is_the_sha256_of_the_written_file(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert main(["synth", "--count", "5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("dataset hash: ")[1].strip()
        assert printed == file_digest(out)

    def test_bad_count(self, tmp_path):
        assert main(["synth", "--count", "0", "--out", str(tmp_path / "d.json")]) == 2

    @pytest.mark.parametrize(
        "field_name, value", [("motif_size", 4.0), ("seed", 1.5), ("num_classes", 2.0)]
    )
    def test_mistyped_spec_field_is_config_error(self, tmp_path, capsys, field_name, value):
        spec = write_json(tmp_path / "spec.json", {field_name: value})
        assert main(["synth", "--spec", spec, "--count", "2",
                     "--out", str(tmp_path / "d.json")]) == 2
        assert f"{field_name}: must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_negative_spec_seed_is_named(self, tmp_path, capsys):
        """numpy used to refuse it with a message that named no field."""
        spec = write_json(tmp_path / "spec.json", {"seed": -1})
        assert main(["synth", "--spec", spec, "--count", "2",
                     "--out", str(tmp_path / "d.json")]) == 2
        assert "synthetic spec: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_bad_spec_field(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"motif_size": 1}))
        assert main(["synth", "--spec", str(spec), "--count", "2",
                     "--out", str(tmp_path / "d.json")]) == 2


class TestOutputPaths:
    @staticmethod
    def argv_writing(command, workspace, out):
        """The argv of ``command`` writing its output to ``out``."""
        tmp, config_path, data_path = workspace
        if command == "synth":
            return ["synth", "--count", "2", "--out", str(out)]
        assert main(["pretrain", "--config", config_path]) == 0
        return ["rationale", "--checkpoint", str(tmp / "run" / "ckpt_final.json"),
                "--dataset", str(data_path), "--out", str(out)]

    @pytest.mark.parametrize("command", ["synth", "rationale"])
    def test_output_path_that_is_a_directory_exits_2(self, workspace, capsys, command):
        tmp = workspace[0]
        out = tmp / "out"
        out.mkdir()
        argv = self.argv_writing(command, workspace, out)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert list(out.iterdir()) == [] and not (tmp / "out.tmp").exists()

    @pytest.mark.parametrize("under", ["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["synth", "rationale"])
    def test_output_path_under_a_regular_file_exits_2(self, workspace, capsys, command, under):
        tmp = workspace[0]
        (tmp / "afile").write_text("kept")
        out = tmp / under / "d.json"
        argv = self.argv_writing(command, workspace, out)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "Traceback" not in err
        assert (tmp / "afile").read_text() == "kept"

    @pytest.mark.parametrize("output_dir", ["afile", "afile/run"])
    def test_pretrain_output_dir_at_or_under_a_regular_file_exits_2(
        self, workspace, capsys, output_dir
    ):
        tmp, config_path, _ = workspace
        (tmp / "afile").write_text("kept")
        config = json.loads((tmp / "config.json").read_text())
        config["output_dir"] = str(tmp / output_dir)
        write_json(tmp / "config.json", config)
        capsys.readouterr()
        assert main(["pretrain", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert str(tmp / output_dir) in err and "Traceback" not in err
        assert (tmp / "afile").read_text() == "kept"
