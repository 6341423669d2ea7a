import json

import pytest

from conftest import tiny_config
from sbevloc import cli
from sbevloc.config import load_config, save_resolved_config
from sbevloc.evaluate import REPORT_HEADER


def test_run_writes_config_and_report(tmp_path, capsys):
    cfg = tiny_config()
    cfg_path = tmp_path / "in.json"
    save_resolved_config(cfg_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert load_config(out / "config.json") == cfg
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert [ln.split(",")[0] for ln in lines[1:]] == ["clean", "clean"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split()[:2] == ["condition", "node_acc"]
    assert len(printed) == len(lines) + 1


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"synth": {"route_lenght": 60}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "synth.route_lenght" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_bad_synth_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"synth": {"primitive_density": -1}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "synth: primitive_density" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_bad_hidden_width_exits_2_at_load(tmp_path, capsys):
    # a negative width once escaped the run as an untyped traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"reg": {"hidden": [-3]}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config reg: hidden layer widths [-3]" in capsys.readouterr().err
    assert not (out / "report.csv").exists()
    assert not (out / "config.json").exists()


def test_layer_width_too_wide_exits_2_at_load(tmp_path, capsys):
    # nnet.init_net once raised numpy's untyped "Maximum allowed dimension
    # exceeded" mid-run
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"ae": {"latent_dim": 10**20}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config ae: latent_dim [100000000000000000000] must be >= 1 and at most" in err
    assert not (out / "config.json").exists()


def test_negative_seed_exits_2_at_load(tmp_path, capsys):
    # np.random.SeedSequence once raised an untyped ValueError mid-run
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config: seed -1 must be >= 0" in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_float_field_too_large_exits_2_at_load(tmp_path, capsys):
    # float() of a JSON integer past float's range once raised an untyped
    # OverflowError
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"kf": {"q_xy": 1' + "0" * 400 + "}}")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config kf.q_xy: integer too large for a float" in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_missing_config_file_exits_2(tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2



@pytest.mark.parametrize("case", ["out_is_file", "out_under_file",
                                  "config_is_dir", "report_is_dir"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, case):
    cfg_path = tmp_path / "in.json"
    save_resolved_config(cfg_path, tiny_config())
    out = tmp_path / "out"
    if case == "out_is_file":
        out.write_text("kept\n")
        bad = kept = out
    elif case == "out_under_file":
        kept = tmp_path / "file"
        kept.write_text("kept\n")
        out = bad = kept / "out"
    else:
        bad = out / ("config.json" if case == "config_is_dir" else "report.csv")
        bad.mkdir(parents=True)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{bad}: cannot write" in capsys.readouterr().err
    assert bad.is_dir() or kept.read_text() == "kept\n"
