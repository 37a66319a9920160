"""YAML config layer and the experiment command line, end to end."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from bihpo import config, strategies
from bihpo.cli import check_model, main
from bihpo.config import (
    _SECTION_TYPES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_grid,
    validate_config,
)
from bihpo.errors import ConfigError, ParseError
from bihpo.problems import Check, verify_derivatives


def test_cli_import_loads_numpy_random_and_no_scipy():
    # numpy.random must load with the package, not inside the first call that
    # draws data; scipy must not load at all
    code = ("import sys, bihpo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


def deep_update(base: dict, over: dict) -> dict:
    out = {k: v for k, v in base.items()}
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_update(out[k], v)
        else:
            out[k] = v
    return out


def tune_dict(**over) -> dict:
    base = {
        "data": {
            "synthetic": {"n": 60, "d": 3, "noise_sigma": 0.3, "seed": 11,
                          "beta_seed": 2},
            "test_fraction": 0.2,
        },
        "split": {"U": 3, "gamma": 0.25, "master_seed": 5},
        "problem": {"kind": "ridge"},
        "method": {"kind": "ITD", "K": 25, "alpha_in": 0.1},
        "strategy": {"kind": "ehg", "T": 25,
                     "outer": {"kind": "gd", "alpha_out": 0.5}, "lambda0": 1.0},
        "output": {"formats": ["csv", "json"]},
    }
    return deep_update(base, over)


def biasvar_dict(**over) -> dict:
    base = {
        "data": {"synthetic": {"n": 60, "d": 2, "noise_sigma": 0.5, "seed": 0,
                               "beta_seed": 0}},
        "split": {"U": 1, "gamma": 0.25, "master_seed": 3},
        "problem": {"kind": "ridge"},
        "method": {"kind": "ITD", "K": 20, "alpha_in": 0.1},
        "biasvar": {"grid": "0.5:2:3", "R": 4, "U": 2, "estimator": "method"},
    }
    return deep_update(base, over)


def clean_dict(**over) -> dict:
    base = {
        "data": {
            "synthetic": {"n": 60, "d": 3, "noise_sigma": 0.4, "seed": 7,
                          "beta_seed": 3, "classes": 4},
            "test_fraction": 0.25,
            "corrupt": {"p": 0.5, "seed": 3},
        },
        "split": {"U": 1, "gamma": 0.6, "master_seed": 2},
        "problem": {"kind": "hyperclean_softmax", "num_classes": 4},
        "method": {"kind": "ITD", "K": 1, "alpha_in": 0.5},
        "strategy": {"kind": "oehg", "T": 80, "alpha_deploy": 0.5,
                     "outer": {"kind": "adam", "alpha_out": 0.05}},
    }
    return deep_update(base, over)


def write_cfg(tmp_path: Path, d: dict, name="cfg.yaml") -> Path:
    p = tmp_path / name
    p.write_text(yaml.safe_dump(d), encoding="utf-8")
    return p


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config parsing and validation

def test_empty_config_gets_defaults_and_round_trips():
    cfg = config_from_dict({})
    assert cfg.problem.kind == "ridge"
    assert cfg.split.U == 5
    assert cfg.output.formats == ("csv", "json")
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_default_config_echo_is_pinned():
    # the echo written into every manifest; split and method are library types
    assert config_to_dict(config_from_dict({})) == {
        "data": {"source": "synthetic",
                 "synthetic": {"n": 100, "d": 5, "noise_sigma": 0.1, "beta_seed": 0,
                               "seed": 0, "classes": 0},
                 "task": None, "corrupt": None, "test_fraction": 0.0, "test_seed": 0},
        "split": {"U": 5, "gamma": 0.25, "mode": "without_replacement", "master_seed": 0},
        "problem": {"kind": "ridge", "smoothing_delta": 1e-06, "num_classes": 0},
        "method": {"kind": "ITD", "K": 50, "alpha_in": 0.1, "Z": 0, "h": 0, "fp_step": 0.0},
        "strategy": {"kind": "single", "T": 50, "outer": {"kind": "gd", "alpha_out": 0.1},
                     "alpha_deploy": 0.0, "lambda0": None, "theta0": 0.0,
                     "warm_start": False},
        "output": {"dir": "out", "formats": ["csv", "json"]},
        "biasvar": {"grid": "0.3:3:50", "R": 100, "U": 1, "ref_K": 2000,
                    "estimator": "method"},
        "clean": {"threshold": 0.5, "retrain_K": 500, "retrain_alpha": 0.5,
                  "baseline_raw_lambda": -12.0},
    }


def test_loaded_config_round_trips_through_dict():
    cfg = config_from_dict(tune_dict())
    assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("raw,path", [
    ({"datas": {}}, "datas"),
    ({"data": {"bogus_key": 1}}, "data.bogus_key"),
    ({"data": {"synthetic": {"rows": 5}}}, "data.synthetic.rows"),
    ({"split": {"gama": 0.3}}, "split.gama"),
])
def test_unknown_keys_report_field_paths(raw, path):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field_path == path


def test_parse_grid_forms():
    assert parse_grid("0.5:2:4") == [0.5, 1.0, 1.5, 2.0]
    assert parse_grid([1, 2.5]) == [1.0, 2.5]
    for bad in ("1:2", "2:1:5", "1:2:0", "a:b:c", 42):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("data:\n  n: [1, 2\nsplit: {}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_config(p)
    assert err.value.line is not None
    assert str(err.value).startswith("invalid YAML")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_config(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return getattr(workloads, f"{name}_config")(0)


@pytest.mark.parametrize("raw", [tune_dict(), clean_dict(), biasvar_dict()]
                         + [_perfbench_config(name) for name in ("sweep", "tune", "clean")],
                         ids=["tune", "clean", "biasvar", "perfbench-sweep", "perfbench-tune",
                              "perfbench-clean"])
def test_c_and_python_loaders_give_the_same_config(tmp_path, monkeypatch, raw):
    # load_config parses with libyaml's CSafeLoader where PyYAML has it;
    # both loaders share the safe constructor and resolver
    assert config._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    path = write_cfg(tmp_path, raw)
    loaded = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        loaded.append(load_config(path))
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("text", ["data:\n  n: [1, 2\nsplit: {}\n", "data:\n\tn: 1\n",
                                  "a: b: c\n"], ids=["unclosed-list", "tab-indent", "a-b-c"])
def test_c_and_python_loaders_refuse_at_the_same_line(tmp_path, monkeypatch, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    lines = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        with pytest.raises(ParseError) as err:
            load_config(path)
        lines.append(err.value.line)
    assert lines[0] is not None and lines[0] == lines[1]


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


@pytest.mark.parametrize("over,command,path", [
    ({"split": {"gamma": 0.0}}, "tune", "split.gamma"),
    ({"data": {"test_fraction": 1.0}}, "tune", "data.test_fraction"),
    ({"method": {"kind": "TRHG", "h": 0}}, "tune", "method.h"),
    ({"method": {"kind": "AID_CG", "Z": 0}}, "tune", "method.Z"),
    ({"problem": {"kind": "svm_sqhinge"},
      "method": {"kind": "AID_CG", "Z": 5}}, "tune", "method.kind"),
    ({"strategy": {"kind": "oehg", "alpha_deploy": 0.0}}, "tune",
     "strategy.alpha_deploy"),
    ({"output": {"formats": ["xml"]}}, "tune", "output.formats"),
    ({"strategy": {"kind": "oehg", "alpha_deploy": 0.1},
      "method": {"kind": "AID_CG", "K": 100, "Z": 20}}, "tune", "method.kind"),
    ({"strategy": {"kind": "oehg", "alpha_deploy": 0.1}}, "tune", "method.K"),
])
def test_validate_tune_rules_name_offending_field(over, command, path):
    # split and method rules are checked when the config is loaded
    with pytest.raises(ConfigError) as err:
        validate_config(config_from_dict(tune_dict(**over)), command)
    assert err.value.field_path == path


@pytest.mark.parametrize("command,raw,path", [
    ("tune", tune_dict(method={"K": 2.7}), "method.K"),
    ("tune", tune_dict(method={"K": "7"}), "method.K"),
    ("tune", tune_dict(method={"kind": "TRHG", "h": 2.5}), "method.h"),
    ("tune", tune_dict(method={"kind": "AID_CG", "Z": 5, "fp_step": -1.0}), "method.fp_step"),
    ("tune", tune_dict(split={"U": "5"}), "split.U"),
    ("tune", tune_dict(split={"U": 2.0}), "split.U"),
    ("tune", tune_dict(split=5), "split"),
    ("tune", tune_dict(data={"synthetic": {"classes": 4}},
                       problem={"kind": "softmax_l2", "num_classes": 3}), "problem.num_classes"),
    ("clean", clean_dict(problem={"num_classes": 3}), "problem.num_classes"),
    ("tune", tune_dict(strategy={"T": 2.5}), "strategy.T"),
    ("tune", tune_dict(data={"synthetic": {"n": "60"}}), "data.synthetic.n"),
    ("tune", tune_dict(strategy={"outer": {"alpha_out": "0.5"}}), "strategy.outer.alpha_out"),
    ("tune", tune_dict(strategy={"outer": {"alpha_out": float("nan")}}),
     "strategy.outer.alpha_out"),
    ("tune", tune_dict(strategy={"outer": {"kind": "rmsprop"}}), "strategy.outer.kind"),
    ("clean", clean_dict(clean={"retrain_K": 2.5}), "clean.retrain_K"),
    ("tune", tune_dict(strategy={"warm_start": "no"}), "strategy.warm_start"),
    ("tune", clean_dict(split={"U": 2}), "split.U"),
    ("biasvar", biasvar_dict(problem={"kind": "lasso_smooth", "smoothing_delta": 0.0}),
     "problem.smoothing_delta"),
    ("tune", tune_dict(strategy={"lambda0": ["a"]}), "strategy.lambda0"),
    ("tune", tune_dict(strategy={"theta0": True}), "strategy.theta0"),
    ("biasvar", biasvar_dict(biasvar={"grid": ["a", 1.0]}), "biasvar.grid"),
    ("biasvar", biasvar_dict(biasvar={"grid": ["0.5", 1.0]}), "biasvar.grid"),
    ("clean", clean_dict(data={"synthetic": {"classes": 1}}), "data.synthetic.classes"),
    ("tune", tune_dict(data={"synthetic": {"noise_sigma": float("inf")}}),
     "data.synthetic.noise_sigma"),
    ("biasvar", biasvar_dict(data={"synthetic": {"noise_sigma": float("inf")}}),
     "data.synthetic.noise_sigma"),
    ("tune", tune_dict(strategy={"lambda0": float("nan")}), "strategy.lambda0"),
    ("tune", tune_dict(strategy={"lambda0": [float("nan")]}), "strategy.lambda0"),
    ("tune", tune_dict(strategy={"theta0": float("inf")}), "strategy.theta0"),
    ("tune", tune_dict(problem={"kind": "lasso_smooth", "smoothing_delta": float("inf")}),
     "problem.smoothing_delta"),
    ("tune", tune_dict(method={"alpha_in": float("inf")}), "method.alpha_in"),
    ("biasvar", biasvar_dict(biasvar={"grid": "nan:1:3"}), "biasvar.grid"),
    ("tune", tune_dict(data={"corrupt": {"p": 0.5}}), "data.corrupt"),
    ("biasvar", biasvar_dict(biasvar={"grid": "0:1:3"}), "biasvar.grid"),
    ("biasvar", biasvar_dict(biasvar={"grid": [0.5, -1.0]}), "biasvar.grid"),
    ("biasvar", biasvar_dict(problem={"kind": "lasso_smooth"}, biasvar={"estimator": "oracle"}),
     "biasvar.estimator"),
    ("biasvar", biasvar_dict(data={"corrupt": {"p": 0.3}}), "data.corrupt"),
    ("tune", tune_dict(data={"source": "/nonexistent/data.svm"}), "data.source"),
    ("tune", tune_dict(data={"synthetic": {"n": 3}, "test_fraction": 0.5}), "data.test_fraction"),
    ("clean", clean_dict(data={"synthetic": {"n": 3}, "test_fraction": 0.5}),
     "data.test_fraction"),
    ("biasvar", biasvar_dict(data={"test_fraction": 0.3}), "data.test_fraction"),
    # n = 4 at gamma = 1 gives m_val = 2, and C(4, 2) = 6 < 7 distinct splits
    ("biasvar", biasvar_dict(data={"synthetic": {"n": 4}}, split={"gamma": 1.0},
                             biasvar={"U": 7}), "biasvar.U"),
    ("biasvar", biasvar_dict(problem={"kind": "hyperclean_softmax", "num_classes": 3},
                             data={"synthetic": {"classes": 3}}), "problem.kind"),
    ("biasvar", biasvar_dict(problem={"kind": "logistic_l2"}, data={"synthetic": {"classes": 3}}),
     "data.synthetic.classes"),
    ("biasvar", biasvar_dict(problem={"kind": "softmax_l2", "num_classes": 3},
                             data={"synthetic": {"classes": 4}}), "problem.num_classes"),
], ids=["K-float", "K-str", "h-float", "fp_step-negative", "U-str", "U-float",
        "split-scalar", "tune-classes", "clean-classes", "T-float", "n-str",
        "alpha_out-str", "alpha_out-nan", "outer-kind", "retrain_K-float", "warm_start-str",
        "hyperclean-U",
        "smoothing_delta-zero", "lambda0-str", "theta0-bool", "grid-str", "grid-numeric-str",
        "clean-synthetic-classes", "tune-noise_sigma-inf", "biasvar-noise_sigma-inf",
        "lambda0-nan", "lambda0-list-nan", "theta0-inf", "smoothing_delta-inf",
        "alpha_in-inf", "grid-range-nan", "corrupt-regression", "grid-range-zero",
        "grid-negative", "oracle-lasso_smooth", "biasvar-corrupt", "missing-data-file",
         "tune-holdout-empties-pool", "clean-holdout-empties-pool", "biasvar-holdout",
         "biasvar-U-infeasible", "biasvar-hyperclean", "biasvar-binary-classes",
         "biasvar-softmax-classes"])
def test_bad_input_exits_2_with_its_field_path(tmp_path, capsys, command, raw, path):
    out = tmp_path / "o"
    assert main([command, "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 2
    assert f"[{path}]" in capsys.readouterr().err
    assert not out.exists()


def test_one_row_data_file_exits_2_naming_data_source(tmp_path, capsys):
    (tmp_path / "one.svm").write_text("1.0 1:0.5\n", encoding="utf-8")
    for fraction in (0.0, 0.5):  # the holdout is not at fault: the file is
        raw = tune_dict(data={"source": str(tmp_path / "one.svm"), "test_fraction": fraction})
        out = tmp_path / "o"
        assert main(["tune", "--config", str(write_cfg(tmp_path, raw)), "--out", str(out)]) == 2
        assert "[data.source]" in capsys.readouterr().err
        assert not out.exists()


# values each annotation refuses; every int field is a count, so -1 too
_REFUSED = {"int": (2.5, "7", True, -1), "float": ("0.5", True), "bool": ("no",)}


def _typed_fields(cls=ExperimentConfig, path=""):
    """(dotted path, annotation) of each int/float/bool field outside split and method.

    Those two sections have their own cases above; strategy.outer is the
    library's OuterOptimizer, which checks the same types as the config-only
    sections.
    """
    for f in fields(cls):
        sub = f"{path}.{f.name}" if path else f.name
        section = _SECTION_TYPES.get(f.name)
        if section is not None and f.name not in ("split", "method"):
            yield from _typed_fields(section, sub)
        elif section is None and f.type in _REFUSED:
            yield sub, f.type


_TYPED_CASES = [(path, bad) for path, kind in _typed_fields() for bad in _REFUSED[kind]]


def test_typed_field_cases_cover_every_config_only_section():
    sections = {path.rsplit(".", 1)[0] for path, _ in _TYPED_CASES}
    assert sections == {"data", "data.synthetic", "data.corrupt", "problem", "strategy",
                        "strategy.outer", "biasvar", "clean"}


@pytest.mark.parametrize("path,bad", _TYPED_CASES,
                         ids=[f"{path}={bad!r}" for path, bad in _TYPED_CASES])
def test_typed_fields_refuse_the_wrong_type_at_their_path(path, bad):
    raw = bad
    for key in reversed(path.split(".")):
        raw = {key: raw}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field_path == path


@pytest.mark.parametrize("over,path", [
    ({"biasvar": {"R": 1}}, "biasvar.R"),
    ({"biasvar": {"estimator": "magic"}}, "biasvar.estimator"),
    ({"problem": {"kind": "hyperclean_softmax", "num_classes": 3},
      "data": {"synthetic": {"classes": 3}}}, "problem.kind"),
    ({"data": {"source": "some/file.libsvm"}}, "data.source"),
])
def test_validate_biasvar_rules(over, path):
    cfg = config_from_dict(deep_update(biasvar_dict(), over))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg, "biasvar")
    assert err.value.field_path == path


def test_validate_biasvar_accepts_a_feasible_U_of_a_large_pool():
    # C(20000, 4000) has over 4300 digits, more than str(int) writes: the rule
    # builds its message only when it fails
    cfg = config_from_dict(deep_update(biasvar_dict(),
                                       {"data": {"synthetic": {"n": 20000}}, "biasvar": {"U": 1}}))
    validate_config(cfg, "biasvar")


@pytest.mark.parametrize("over,path", [
    ({"problem": {"kind": "ridge"}}, "problem.kind"),
    ({"split": {"U": 2}}, "split.U"),
    ({"clean": {"threshold": 1.5}}, "clean.threshold"),
])
def test_validate_clean_rules(over, path):
    cfg = config_from_dict(deep_update(clean_dict(), over))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg, "clean")
    assert err.value.field_path == path


def test_bad_worker_count_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    # biasvar runs in one process: any --workers is refused before the output
    # directory is made, and BIHPO_WORKERS is no longer read
    cfg = write_cfg(tmp_path, biasvar_dict())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["biasvar", "--config", str(cfg), "--out", str(out), "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("BIHPO_WORKERS", "abc")
    assert main(["biasvar", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["tune", "--config", "c.yaml"],
    ["biasvar", "--config", "c.yaml"],
    ["clean", "--config", "c.yaml"],
    ["fpc", "--n", "6", "--gamma", "0.5", "--U", "1"],
    ["check"],
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_workers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tune command

def run_tune(tmp_path, d, out_name="out", extra=()):
    cfg_path = write_cfg(tmp_path, d)
    out = tmp_path / out_name
    code = main(["tune", "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def test_tune_writes_manifest_trace_and_final(tmp_path):
    code, out = run_tune(tmp_path, tune_dict())
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["command"] == "tune"
    assert manifest["outputs"] == ["final.json", "trace.csv"]
    assert manifest["wall_clock_seconds"] > 0
    assert config_from_dict(manifest["config"]) == config_from_dict(tune_dict())

    rows = read_rows(out / "trace.csv")
    assert list(rows[0].keys()) == ["step", "split_id", "lambda_norm",
                                    "raw_lambda_json", "hypergrad_norm",
                                    "train_loss", "val_loss", "test_loss"]
    assert len(rows) == 25 * 3  # T outer steps x U splits
    lam0 = json.loads(rows[0]["raw_lambda_json"])
    assert lam0 == [1.0]

    final = json.loads((out / "final.json").read_text())
    assert final["lambda_effective"] == [pytest.approx(math.exp(final["lambda_raw"][0]))]
    assert len(final["per_split_theta"]) == 3
    assert final["deployed_theta"] is None
    assert config_from_dict(final["config"]) == config_from_dict(tune_dict())


def test_tune_descends_on_validation_loss(tmp_path):
    _, out = run_tune(tmp_path, tune_dict())
    rows = read_rows(out / "trace.csv")
    by_step = {}
    for r in rows:
        by_step.setdefault(int(r["step"]), []).append(float(r["val_loss"]))
    first = np.mean(by_step[0])
    last = np.mean(by_step[max(by_step)])
    assert last < first


def test_tune_reruns_are_byte_identical(tmp_path):
    _, out1 = run_tune(tmp_path, tune_dict(), "out1")
    _, out2 = run_tune(tmp_path, tune_dict(), "out2")
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "final.json").read_bytes() == (out2 / "final.json").read_bytes()


def test_tune_seed_override_changes_the_run(tmp_path):
    _, out1 = run_tune(tmp_path, tune_dict(), "out1")
    _, out2 = run_tune(tmp_path, tune_dict(), "out2", extra=("--seed", "99"))
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["split"]["master_seed"] == 99


def test_single_corrupts_its_split_alone_whatever_split_u(tmp_path):
    # single trains on split 0 alone, so only split 0's validation rows keep
    # their clean labels: the other splits of the plan must not change its data
    outs = []
    for U in (1, 3):
        d = tune_dict(data={"synthetic": {"n": 80, "classes": 2}, "test_fraction": 0.0,
                            "corrupt": {"p": 0.5, "seed": 4}},
                      split={"U": U, "master_seed": 5}, problem={"kind": "logistic_l2"},
                      strategy={"kind": "single", "T": 5, "lambda0": -1.0})
        code, out = run_tune(tmp_path, d, f"out{U}")
        assert code == 0
        outs.append(out)
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    lams = [json.loads((out / "final.json").read_text())["lambda_raw"] for out in outs]
    assert lams[0] == lams[1]


def test_tune_json_only_format(tmp_path):
    code, out = run_tune(tmp_path, tune_dict(output={"formats": ["json"]}))
    assert code == 0
    assert not (out / "trace.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["final.json"]


def test_tune_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("data:\n  n: [1, 2\nsplit: {}\n", encoding="utf-8")
    assert main(["tune", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config parse error (line" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, {"data": {"bogus": 1}}, "unknown.yaml")
    assert main(["tune", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[data.bogus]" in capsys.readouterr().err

    div = write_cfg(tmp_path, tune_dict(
        method={"kind": "ITD", "K": 300, "alpha_in": 3000.0},
        strategy={"T": 1}), "diverge.yaml")
    assert main(["tune", "--config", str(div), "--out", str(tmp_path / "o")]) == 3
    assert "numerical error (step 0)" in capsys.readouterr().err


def test_failed_run_leaves_a_failed_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tune_dict(method={"kind": "ITD", "K": 400, "alpha_in": 5.0}))
    out = tmp_path / "o"
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_step"] == 0
    assert manifest["error"] and manifest["error"] in err
    assert manifest["outputs"] == []
    assert manifest["wall_clock_seconds"] > 0


@pytest.mark.parametrize("method", [
    {"kind": "ITD", "K": 100, "alpha_in": 5.0},
    {"kind": "AID_CG", "K": 100, "alpha_in": 5.0, "Z": 10},
], ids=["ITD", "AID_CG"])
def test_diverged_estimate_exits_3_without_warnings(tmp_path, capsys, recwarn, method):
    # theta_K diverged but stays finite, so the reverse pass or the AID solve
    # and the trace losses overflow: that must end in exit 3, not in warnings
    cfg = write_cfg(tmp_path, tune_dict(method=method, strategy={"T": 1}))
    out = tmp_path / "o"
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical error (step 0)" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert len(recwarn) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_diverging_itd_tune_is_refused(tmp_path, capsys):
    # alpha_in = 5 is far beyond 2/L, yet theta_K stays finite: today the run
    # exits 0 with a "complete" manifest and lambda_raw near -3.8e63
    cfg = write_cfg(tmp_path, tune_dict(method={"kind": "ITD", "K": 20, "alpha_in": 5.0},
                                        strategy={"T": 30}))
    out = tmp_path / "o"
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 3
    assert "split" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_nonfinite_trace_loss_names_its_split(tmp_path, capsys, recwarn):
    # CG stops at Z = 10 on a theta_K near 1e134 with a finite hypergradient,
    # so the first overflow is a split's train loss in the trace
    cfg = write_cfg(tmp_path, tune_dict(
        method={"kind": "AID_CG", "K": 100, "alpha_in": 5.0, "Z": 10}))
    out = tmp_path / "o"
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 3
    message = "split 0 failed at outer step 0: train loss became non-finite"
    assert message in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["failed_step"] == 0
    assert manifest["error"] == message
    assert len(recwarn) == 0


@pytest.mark.parametrize("test_fraction,what", [(0.0, "deployed model"), (0.2, "test loss")])
def test_diverging_oehg_exits_3_without_warnings(tmp_path, capsys, recwarn, test_fraction,
                                                  what):
    # alpha_deploy = 50 overflows the deployed model, or first the test loss at it
    cfg = write_cfg(tmp_path, tune_dict(
        data={"synthetic": {"n": 40}, "test_fraction": test_fraction}, split={"U": 2},
        method={"kind": "ITD", "K": 1, "alpha_in": 0.1},
        strategy={"kind": "oehg", "T": 400, "alpha_deploy": 50.0}))
    out = tmp_path / "o"
    assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith(f"{what} became non-finite")
    assert f"at outer step {manifest['failed_step']}" in err
    assert len(recwarn) == 0


# ---------------------------------------------------------------------------
# biasvar command

def test_biasvar_writes_identity_clean_rows(tmp_path):
    cfg = write_cfg(tmp_path, biasvar_dict())
    out = tmp_path / "bv"
    assert main(["biasvar", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "biasvar.csv")
    assert list(rows[0].keys()) == ["lambda", "error", "variance", "bias_sq",
                                    "identity_residual", "R", "U"]
    assert [float(r["lambda"]) for r in rows] == [0.5, 1.25, 2.0]
    for r in rows:
        assert float(r["identity_residual"]) < 1e-10
        total = float(r["variance"]) + float(r["bias_sq"])
        assert float(r["error"]) == pytest.approx(total, abs=1e-10)
        assert (int(r["R"]), int(r["U"])) == (4, 2)


def test_biasvar_runs_a_two_hyperparameter_model(tmp_path):
    # elastic_net reads two raw coordinates; the reference is ITD at ref_K
    cfg = write_cfg(tmp_path, biasvar_dict(problem={"kind": "elastic_net",
                                                    "smoothing_delta": 0.5},
                                           biasvar={"ref_K": 200}))
    out = tmp_path / "bv"
    assert main(["biasvar", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "biasvar.csv")
    assert len(rows) == 3
    for r in rows:
        assert float(r["identity_residual"]) < 1e-10
        assert float(r["error"]) > 0.0 and math.isfinite(float(r["error"]))


@pytest.mark.parametrize("over", [
    {"problem": {"kind": "logistic_l2"}},
    {"problem": {"kind": "softmax_l2", "num_classes": 3}, "data": {"synthetic": {"classes": 3}}},
], ids=["logistic_l2", "softmax_l2"])
def test_biasvar_runs_a_classification_model(tmp_path, over):
    # the replicates are drawn for the model's task; the reference is ITD at ref_K
    cfg = write_cfg(tmp_path, biasvar_dict(biasvar={"ref_K": 200}, **over))
    out = tmp_path / "bv"
    assert main(["biasvar", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "biasvar.csv")
    assert len(rows) == 3
    for r in rows:
        assert float(r["identity_residual"]) < 1e-10
        assert float(r["error"]) > 0.0 and math.isfinite(float(r["error"]))


def test_diverging_biasvar_exits_3_with_a_failed_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, biasvar_dict(method={"kind": "ITD", "K": 400, "alpha_in": 5.0}))
    out = tmp_path / "bv"
    assert main(["biasvar", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "(member " in err and "at step" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] and manifest["error"] in err
    assert isinstance(manifest["failed_step"], int)
    assert not (out / "biasvar.csv").exists()


def test_biasvar_rejects_tiny_replication(tmp_path, capsys):
    cfg = write_cfg(tmp_path, biasvar_dict(biasvar={"R": 1}))
    assert main(["biasvar", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "[biasvar.R]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# clean command

def test_clean_reports_f1_and_retrain_accuracies(tmp_path):
    cfg = write_cfg(tmp_path, clean_dict())
    out = tmp_path / "cl"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "clean_report.json").read_text())
    assert report["f1_reason"] is None
    assert 0.0 <= report["f1"] <= 1.0
    assert report["n_corrupted_true"] > 0
    for key in ("accuracy_cleaned", "accuracy_baseline", "accuracy_deployed"):
        assert 0.0 <= report[key] <= 1.0
    rows = read_rows(out / "weights.csv")
    assert len(rows) == report["n_train"]
    assert set(r["is_clean_truth"] for r in rows) <= {"0", "1"}
    for r in rows:
        assert 0.0 < float(r["sigmoid_weight"]) < 1.0


def test_clean_without_corruption_flags_f1_not_applicable(tmp_path, capsys):
    cfg = write_cfg(tmp_path, clean_dict(data={"corrupt": {"p": 0.0}}))
    out = tmp_path / "cl0"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "clean_report.json").read_text())
    assert report["f1"] is None
    assert report["f1_reason"].startswith("not applicable")
    assert "not applicable" in capsys.readouterr().err


def test_clean_honours_warm_start(tmp_path):
    # with K >= 2 a warm start changes every inner solve after the first
    weights = {}
    for warm in (False, True):
        cfg = write_cfg(tmp_path, clean_dict(method={"K": 3}, strategy={
            "kind": "ehg", "T": 5, "warm_start": warm}), f"warm_{warm}.yaml")
        out = tmp_path / f"warm_{warm}"
        assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
        weights[warm] = [r["raw_weight"] for r in read_rows(out / "weights.csv")]
    assert len(weights[True]) == len(weights[False])
    assert weights[True] != weights[False]


def test_clean_evaluates_no_trace_column(tmp_path, monkeypatch):
    # clean writes only the learned weights, so its outer steps compute no
    # per-split losses or hypergradient norms
    def refuse(*args, **kwargs):
        raise AssertionError("clean evaluated a trace column")

    monkeypatch.setattr(strategies, "_split_evals", refuse)
    cfg = write_cfg(tmp_path, clean_dict())
    out = tmp_path / "cl"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_rows(out / "weights.csv")) > 1


@pytest.mark.parametrize("outer", [{"kind": "adam", "alpha_out": 0.05},
                                   {"kind": "gd", "alpha_out": 1e10}])
def test_overflowing_outer_update_exits_3_without_warnings(tmp_path, capsys, recwarn, outer):
    # alpha_in = 1e305 gives a finite hypergradient whose square (Adam's second
    # moment) or whose step (gd) overflows; clean has no trace column that
    # would overflow first
    cfg = write_cfg(tmp_path, clean_dict(method={"alpha_in": 1e305},
                                         strategy={"outer": outer}))
    out = tmp_path / "cl"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 3
    assert "outer update became non-finite at outer step 0" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["failed_step"] == 0
    assert len(recwarn) == 0


def test_tune_and_clean_learn_the_same_weights(tmp_path):
    # on a hyperclean_softmax config oehg deploys on the split's train rows in
    # both commands, and both corrupt the train labels only
    for p in (0.0, 0.5):
        raw = clean_dict(data={"corrupt": {"p": p}})
        code, out = run_tune(tmp_path, raw, f"tune-{p}")
        assert code == 0
        tuned = json.loads((out / "final.json").read_text())["lambda_raw"]
        clean_out = tmp_path / f"clean-{p}"
        assert main(["clean", "--config", str(write_cfg(tmp_path, raw)),
                     "--out", str(clean_out)]) == 0
        cleaned = [float(r["raw_weight"]) for r in read_rows(clean_out / "weights.csv")]
        assert len(cleaned) > 1
        assert tuned == cleaned


# ---------------------------------------------------------------------------
# fpc command

def test_fpc_prints_and_writes_table(tmp_path, capsys):
    out = tmp_path / "fpc"
    code = main(["fpc", "--n", "6", "--gamma", "0.5", "--U", "1,3,15",
                 "--samples", "300", "--seed", "9", "--out", str(out)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "exact_without=" in l]
    assert len(lines) == 3
    rows = read_rows(out / "fpc.csv")
    assert [int(r["U"]) for r in rows] == [1, 3, 15]
    assert all(int(r["V"]) == 15 for r in rows)
    full = rows[-1]
    assert float(full["mc_estimate"]) == 0.0
    assert float(full["exact_without"]) == 0.0


def test_fpc_refuses_non_integer_ensemble_sizes(capsys):
    assert main(["fpc", "--n", "6", "--gamma", "0.5", "--U", "a,b"]) == 2
    assert "[U]" in capsys.readouterr().err


@pytest.mark.parametrize("args,field", [
    (["--U", "0"], "U"),
    (["--U", "1", "--n", "-3"], "n"),
    (["--U", "1", "--d", "0"], "d"),
    (["--U", "1", "--noise-sigma", "-1"], "noise_sigma"),
    (["--U", "1", "--gamma", "-1"], "gamma"),
    (["--U", "1", "--gamma", "0"], "gamma"),
    (["--U", "1", "--gamma", "-0.5"], "gamma"),
    (["--U", "1", "--gamma", "nan"], "gamma"),
    (["--U", "1", "--gamma", "inf"], "gamma"),
    (["--U", "1", "--lambda-eff", "0"], "lambda_eff"),
    (["--U", "1", "--lambda-eff", "-1"], "lambda_eff"),
    (["--U", "1", "--lambda-eff", "nan"], "lambda_eff"),
    (["--U", "1", "--samples", "0"], "samples"),
    (["--U", "1", "--noise-sigma", "nan"], "noise_sigma"),
    (["--U", "1", "--noise-sigma", "inf"], "noise_sigma"),
])
def test_fpc_names_the_argument_at_fault(args, field, capsys):
    assert main(["fpc", "--n", "6", "--gamma", "0.5", *args]) == 2
    assert capsys.readouterr().err.startswith(f"config error [{field}]: ")


def test_fpc_refuses_unenumerable_population(capsys):
    assert main(["fpc", "--n", "40", "--gamma", "0.5", "--U", "1",
                 "--samples", "10", "--seed", "0"]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# self-check fault sensitivity

class _SabotagedGradient:
    """Delegating wrapper whose analytic gradient is off by a constant."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def inner_grad_theta(self, lam, theta, view):
        return self._inner.inner_grad_theta(lam, theta, view) + 0.01


def test_check_model_catches_wrong_gradient():
    from helpers import zoo_instance
    prob, tr, va = zoo_instance("ridge")
    clean_rows = check_model("ridge", prob, tr, va)
    assert all(r.passed for r in clean_rows)
    bad_rows = check_model("ridge", _SabotagedGradient(prob), tr, va)
    failed = [r.name for r in bad_rows if not r.passed]
    assert failed, "sabotaged gradient must trip at least one check"
    assert any("deriv" in name for name in failed)


def test_check_model_returns_check_records():
    from helpers import zoo_instance
    prob, tr, va = zoo_instance("ridge")
    for p in (prob, _SabotagedGradient(prob)):
        checks = check_model("ridge", p, tr, va)
        assert checks and all(isinstance(c, Check) for c in checks)
        assert all(c.passed == (c.max_err < c.tol) for c in checks)
    derivs = [c.name for c in checks if "/deriv/" in c.name]
    assert derivs == [f"ridge/deriv/{c.name}" for c in verify_derivatives(prob, tr, va)]


def test_check_report_rows_are_check_records_sorted_by_name(tmp_path):
    assert main(["check", "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "check_report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    rows = report["checks"]
    assert all(set(row) == {"name", "max_err", "tol", "passed"} for row in rows)
    names = [row["name"] for row in rows]
    assert names == sorted(set(names))
