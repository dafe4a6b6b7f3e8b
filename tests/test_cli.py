import json
from pathlib import Path

import pytest

from polysieve.cli import (
    TASKS,
    ConfigError,
    ExperimentConfig,
    emit_report,
    main,
    run_experiment,
    to_jsonable,
)

MINIMAL = {
    "polynomial": [0, 0, 1],
    "seed": 7,
    "tasks": [{"name": "f_eval", "params": {"log_x": 256.0, "epsilon": 1.0}}],
}


def test_config_strictness():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**MINIMAL, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {**MINIMAL, "tasks": [{"name": "no_such_task", "params": {}}]}
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {**MINIMAL, "tasks": [{"name": "f_eval", "params": {"wat": 1}}]}
        )
    for key in ("zeta", "U", "Z", "brun_tolerance"):  # keys no code reads
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**MINIMAL, "constants": {key: 2}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"polynomial": [0, 1]})


def test_f_eval_task_matches_example(tmp_path):
    cfg = ExperimentConfig.from_dict(MINIMAL)
    run_experiment(cfg, tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2  # config echo + one task
    rec = json.loads(lines[1])
    assert rec["task"] == "f_eval"
    assert abs(rec["result"]["value"] - 0.8484309759606047) < 1e-12
    # params echo allows re-running the task in isolation
    assert rec["params"] == {"log_x": 256.0, "epsilon": 1.0}


def test_empty_task_list(tmp_path):
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": []})
    summary = run_experiment(cfg, tmp_path)
    assert summary["records"] == 0
    assert summary["failed_required"] == []


def test_determinism_result_fields(tmp_path):
    cfg_raw = {
        "polynomial": [0, 0, 1],
        "seed": 13,
        "tasks": [
            {"name": "aux", "params": {"ell_max": 8}},
            {"name": "sieve", "params": {"U": 5.0}},
            {"name": "leveld", "params": {"alpha": 0.2, "x": 300, "d": 1, "trials": 3}},
            {"name": "greedy", "params": {"x_values": [500]}},
        ],
    }
    results = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_experiment(ExperimentConfig.from_dict(cfg_raw), out)
        lines = (out / "records.jsonl").read_text().splitlines()
        results.append(
            [json.dumps(json.loads(l)["result"], sort_keys=True) for l in lines[1:]]
        )
    assert results[0] == results[1]


def test_report(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "polynomial": [0, 0, 1],
            "seed": 1,
            "tasks": [{"name": "gauss", "params": {"q_max": 20, "U": 20.0}}],
        }
    )
    run_experiment(cfg, tmp_path)
    text = emit_report(tmp_path)
    assert "gauss" in text
    assert (tmp_path / "summary.md").exists()
    assert (tmp_path / "gauss.csv").read_text().startswith("q,a,magnitude,sqrt_q")


def test_report_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_report(tmp_path / "nothing")


def test_report_no_tasks(tmp_path):
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": []})
    run_experiment(cfg, tmp_path)
    assert "no audits" in emit_report(tmp_path)


def test_cli_subcommands_smoke(tmp_path):
    assert main(["check", "--poly", "0,0,1", "--out", str(tmp_path / "c")]) == 0
    assert main(["sieve", "--U", "5", "--out", str(tmp_path / "s")]) == 0
    assert main(["dmax", "--x-max", "30", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "dmax.csv").exists()
    assert main(["report", "--out", str(tmp_path / "d")]) == 0
    assert main(["greedy", "--x-values", "500,1000", "--out", str(tmp_path / "g")]) == 0
    assert _task_record(tmp_path / "g")["params"] == {"x_values": [500, 1000]}
    assert main(["gauss", "--q-max", "20", "--out", str(tmp_path / "q")]) == 0
    assert _task_record(tmp_path / "q")["params"] == {"q_max": 20, "U": 100.0}
    # without flags, a subcommand records the TASKS defaults of its flags
    for name in ("aux", "mass", "greedy"):
        assert main([name, "--out", str(tmp_path / name)]) == 0
        params = _task_record(tmp_path / name)["params"]
        assert params and params == {k: TASKS[name].params[k] for k in params}


def _task_record(run_dir):
    return json.loads((run_dir / "records.jsonl").read_text().splitlines()[1])


def test_cli_run_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    for seed, expected in ((None, 7), ("0", 0), ("5", 5)):
        out = tmp_path / f"r{seed}"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", seed]
        assert main(argv) == 0
        echo = json.loads((out / "records.jsonl").read_text().splitlines()[0])
        assert echo["config"]["seed"] == expected


def test_json_canonicalization():
    assert to_jsonable(2**60) == str(2**60)
    assert to_jsonable(12) == 12
    assert to_jsonable(0.1) == 0.1
    assert to_jsonable({"b": 1, "a": 2}) == {"a": 2, "b": 1}
    assert to_jsonable((1, 2.5, "x")) == [1, 2.5, "x"]


def test_big_integers_as_strings(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "polynomial": [0, 0, 1],
            "seed": 0,
            "tasks": [{"name": "aux", "params": {"ell_max": 40}}],
        }
    )
    run_experiment(cfg, tmp_path)
    rec = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[1])
    lam = rec["result"]["contexts"][39]["lambda_ell"]
    assert lam == str(40**2)


def test_bundled_default_config_parses():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    cfg = ExperimentConfig.load(path)
    assert cfg.polynomial == [0, 0, 1]
    assert cfg.tasks
