import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from polysieve import harmonic, search
from polysieve.cli import (
    TASKS,
    ConfigError,
    ExperimentConfig,
    RunContext,
    dumps_record,
    emit_report,
    main,
    run_experiment,
    to_jsonable,
)
from polysieve.harmonic import smooth_weight_build
from polysieve.increment import IncrementConfig, d_exponent

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

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
    for name, key in (("f_eval", "wat"), ("check", "depth_bound"), ("dmax", "mode"), ("dmax", "U")):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {**MINIMAL, "tasks": [{"name": name, "params": {key: 1}}]}
            )
    for key in ("zeta", "U", "Z", "brun_tolerance"):  # keys no code reads
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**MINIMAL, "constants": {key: 2}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"polynomial": [0, 1]})
    with pytest.raises(ConfigError):  # every verdict gates; there is no opt-in key
        ExperimentConfig.from_dict(
            {**MINIMAL, "tasks": [{"name": "gauss", "params": {}, "required": True}]}
        )
    with pytest.raises(ConfigError):  # run writes under --out; no config key moves it
        ExperimentConfig.from_dict({**MINIMAL, "out_dir": "elsewhere"})


def test_config_constants_are_the_increment_config_fields():
    for f in dataclasses.fields(IncrementConfig):
        cfg = ExperimentConfig.from_dict({**MINIMAL, "constants": {f.name: 2}})
        assert getattr(cfg.increment_config(), f.name) == 2
    for key in ("xi_points", "X_min", "foo"):  # module constants, or nothing
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**MINIMAL, "constants": {key: 2}})
    # desk, IncrementConfig's defaults, is the one preset
    assert ExperimentConfig.from_dict({**MINIMAL, "preset": "desk"}).to_jsonable()["preset"] == "desk"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**MINIMAL, "preset": "paper"})


def test_config_constants_are_type_checked():
    # a string epsilon used to parse and then raise TypeError in the first step
    for consts in ({"epsilon": "0.5"}, {"q_cap": 64.5}, {"rho": True}, {"C1": None}):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig.from_dict({**MINIMAL, "constants": consts})
    cfg = ExperimentConfig.from_dict({**MINIMAL, "constants": {"epsilon": 1, "q_cap": 32}})
    assert cfg.increment_config().epsilon == 1 and cfg.increment_config().q_cap == 32


@pytest.mark.parametrize(
    "name, params",
    [
        ("gauss", {"all_a": "false"}),  # a nonempty string is true: it ran the full sweep
        ("aux", {"ell_max": "3"}),
        ("step", {"x": 2000.9}),  # int() truncated it
        ("sieve", {"ell": True}),
        ("greedy", {"x_values": [1000, 1e4]}),
        ("mass", {"set": "greedy"}),
        ("check", {"prime_bound": None}),
    ],
)
def test_task_params_are_type_checked(name, params):
    # a given param has the type of its default in TASKS, as a constant does
    with pytest.raises(ConfigError, match="must be"):
        ExperimentConfig.from_dict({**MINIMAL, "tasks": [{"name": name, "params": params}]})


@pytest.mark.parametrize(
    "raw",
    [
        {"polynomial": [0, 0, 1.5]},  # int() truncated it to x^2
        {"polynomial": [0, 0, 1.0]},
        {"polynomial": [0, True]},
        {"polynomial": ["0", "x", "1"]},
        {"polynomial": "0,0,1"},
        {"seed": 2.9},  # int() truncated it to 2
        {"seed": True},
        {"seed": "3"},
    ],
)
def test_polynomial_and_seed_are_type_checked(raw):
    with pytest.raises(ConfigError, match="polynomial|seed"):
        ExperimentConfig.from_dict({**MINIMAL, **raw})


def test_polynomial_takes_ints_and_integer_strings():
    # the CLI passes strings, and to_jsonable writes big ints as decimal or
    # tagged hex strings
    big = 10**5000
    raw = {**MINIMAL, "polynomial": ["-1", 0, "0x10", to_jsonable(big), to_jsonable(10**20)]}
    assert ExperimentConfig.from_dict(raw).polynomial == [-1, 0, 16, big, 10**20]


def test_float_params_take_ints():
    task = {"name": "sieve", "params": {"U": 10, "ell": 1}}
    assert ExperimentConfig.from_dict({**MINIMAL, "tasks": [task]}).tasks == [task]


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("leveld", {"x": 0, "trials": 1}, "x"),
        ("leveld", {"alpha": 0.0, "trials": 1}, "alpha"),
        ("leveld", {"alpha": 1.5, "trials": 1}, "alpha"),
        ("leveld", {"members": [0, 3], "trials": 1}, "members"),
        ("mass", {"x": 0}, "x"),
        ("weight", {"t_max": -1.0}, "t_max"),
        ("dmax", {"x_max": 2001}, "x_max"),
        ("weight", {"t_max": 900.0}, "t_max"),  # past decay_audit_limit(), 813 here
        ("weight", {"depth": 1}, "depth"),
        ("weight", {"resolution": 512}, "resolution"),
        ("sieve", {"ell": 0}, "ell"),
        ("sieve", {"ell": 2**31}, "ell"),
        ("sieve", {"U": -5.0}, "U"),
        ("sieve", {"U": float("nan")}, "U"),
        ("gauss", {"ell": 2**31}, "ell"),
        ("gauss", {"U": -1.0}, "U"),
        ("gauss", {"q_max": 0}, "q_max"),
        ("aux", {"ell_max": -1}, "ell_max"),
        ("check", {"prime_bound": -3}, "prime_bound"),
        ("step", {"x": 15}, "x"),
        ("leveld", {"members": [4, 6], "trials": 1}, "members"),
    ],
)
def test_tasks_reject_out_of_range_input(tmp_path, name, params, key):
    # these died inside the task with numpy, division or factorization errors
    # that did not name the config, or ran and recorded empty results
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": [{"name": name, "params": params}]})
    with pytest.raises(ConfigError, match=key):
        run_experiment(cfg, tmp_path)


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


def test_f_eval_reads_config_epsilon(tmp_path):
    # epsilon 0.0 (the default) means the config's epsilon; a param still wins
    def result(sub, params):
        task = {"name": "f_eval", "params": {"log_x": 256.0, **params}}
        cfg = ExperimentConfig.from_dict(
            {**MINIMAL, "constants": {"epsilon": 0.5}, "tasks": [task]}
        )
        run_experiment(cfg, tmp_path / sub)
        return json.loads((tmp_path / sub / "records.jsonl").read_text().splitlines()[-1])["result"]

    assert result("config", {})["d_exponent"] == d_exponent(0.5)
    assert result("param", {"epsilon": 1.0})["d_exponent"] == d_exponent(1.0) == 0.125


def test_leveld_rejects_unknown_variant(tmp_path):
    leveld = {"name": "leveld", "params": {"alpha": 0.2, "trials": 0, "variant": 7}}
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": [leveld]})
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path)


def test_leveld_rejects_an_empty_member_list(tmp_path):
    leveld = {"name": "leveld", "params": {"trials": 1, "members": []}}
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": [leveld]})
    with pytest.raises(ConfigError, match="members"):
        run_experiment(cfg, tmp_path)


def test_greedy_rejects_x_below_one(tmp_path):
    # log X of the slope has no value at X = 0
    greedy = {"name": "greedy", "params": {"x_values": [0, 10]}}
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": [greedy]})
    with pytest.raises(ConfigError, match="x_values"):
        run_experiment(cfg, tmp_path)


def test_empty_task_list(tmp_path):
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": []})
    summary = run_experiment(cfg, tmp_path)
    assert summary["records"] == 0
    assert summary["failed_required"] == []


def _family_size(tmp_path, sub, variant, constants):
    leveld = {"name": "leveld", "params": {"alpha": 0.2, "trials": 0, "variant": variant}}
    cfg = ExperimentConfig.from_dict({**MINIMAL, "constants": constants, "tasks": [leveld]})
    run_experiment(cfg, tmp_path / sub)
    lines = (tmp_path / sub / "records.jsonl").read_text().splitlines()
    return json.loads(lines[-1])["result"]["family_size"]


def test_leveld_family_reads_config_constants(tmp_path):
    # alpha = 0.2: variant 1 takes 2 * 3 as its distinguished member and
    # reaches C1 * 125 (C1 = 10: the primes 5..1250); variant 2 reaches
    # max(C2, C3 log(5)^4). Tiny constants leave the family {1}.
    assert _family_size(tmp_path, "v1", 1, {}) == 203
    assert _family_size(tmp_path, "v1_small", 1, {"C1": 1e-6}) == 1
    assert _family_size(tmp_path, "v2", 2, {}) == 1
    assert _family_size(tmp_path, "v2_wide", 2, {"C2": 1000.0, "C3": 1e-6}) == 169


def test_leveld_audits_a_built_family(tmp_path):
    # variant 1's 203 members at X = 600: the energy is an exact integer
    leveld = {"name": "leveld", "params": {"alpha": 0.2, "trials": 1, "variant": 1}}
    run_experiment(ExperimentConfig.from_dict({**MINIMAL, "tasks": [leveld]}), tmp_path)
    result = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[-1])["result"]
    (trial,) = result["trials"]
    assert type(trial["lhs"]) is int and trial["lhs"] > 0
    assert trial["dichotomy_ok"]


def _mass(tmp_path, sub, constants):
    cfg = ExperimentConfig.from_dict(
        {**MINIMAL, "constants": constants, "tasks": [{"name": "mass", "params": {}}]}
    )
    run_experiment(cfg, tmp_path / sub)
    return json.loads((tmp_path / sub / "records.jsonl").read_text().splitlines()[-1])["result"]


def test_mass_reads_config_constants(tmp_path):
    # mass, like step, iterate and leveld, takes epsilon and C1 from the
    # config's constants; the defaults are the documented ones
    base = _mass(tmp_path, "base", {})
    assert base == _mass(tmp_path, "explicit", {"epsilon": 1.0, "C1": 10.0})
    assert _mass(tmp_path, "c1", {"C1": 5})["mass"] < base["mass"]  # Qmax halves
    assert _mass(tmp_path, "eps", {"epsilon": 0.5})["mass"] != base["mass"]
    for name in ("mass", "leveld"):
        for key in ("epsilon", "C1") if name == "mass" else ("epsilon",):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(
                    {**MINIMAL, "tasks": [{"name": name, "params": {key: 1.0}}]}
                )


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


def test_failed_verdict_exits_nonzero(tmp_path, monkeypatch, capsys):
    # a Gauss sum far above C q^0.6 fails the gauss audit
    monkeypatch.setattr(harmonic, "gauss_sum_sweep", lambda *a, **k: [(3, 1, 1e9)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINIMAL, "tasks": [{"name": "gauss"}, {"name": "sieve"}]}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert json.loads(capsys.readouterr().out)["failed_required"] == ["gauss"]
    summary = emit_report(tmp_path / "run")
    assert "- gauss: FAILED\n" in summary and "- sieve: passed\n" in summary
    assert main(["gauss", "--out", str(tmp_path / "sub")]) == 1


def test_greedy_verdict_gates_the_run(tmp_path, monkeypatch, capsys):
    # a greedy set holding the forbidden difference 1 fails the greedy audit
    monkeypatch.setattr(search, "greedy_avoiding", lambda F, X: search.AvoidingSet.from_members(X, [1, 2]))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINIMAL, "tasks": [{"name": "greedy", "params": {"x_values": [100]}}]}))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 1
    assert json.loads(capsys.readouterr().out)["failed_required"] == ["greedy"]
    assert _task_record(run)["result"]["rows"] == [{"X": 100, "size": 2, "x_pow": 10.0, "verified": False}]
    assert "- greedy: FAILED\n" in emit_report(run)


def test_a_task_that_raises_keeps_the_records_before_it(tmp_path, monkeypatch, capsys):
    def boom(ctx, params):
        raise ArithmeticError("sieve went wrong")

    monkeypatch.setitem(TASKS, "sieve", dataclasses.replace(TASKS["sieve"], run=boom))
    tasks = [*MINIMAL["tasks"], {"name": "gauss", "params": {"q_max": 20}}, {"name": "sieve"}, {"name": "weight"}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**MINIMAL, "tasks": tasks}))
    run = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 1
    assert "ArithmeticError: sieve went wrong" in capsys.readouterr().err
    records = [json.loads(line) for line in (run / "records.jsonl").read_text().splitlines()]
    assert "config" in records[0]
    assert [r["task"] for r in records[1:]] == ["f_eval", "gauss", "sieve"]  # the run stops there
    assert "result" in records[2] and (run / "gauss.csv").exists()
    assert "result" not in records[3]
    assert records[3]["error"] == {"type": "ArithmeticError", "message": "sieve went wrong"}
    assert not (run / "weight_decay.csv").exists()
    summary = emit_report(run)
    assert "- gauss: passed\n" in summary and "- sieve: FAILED (ArithmeticError)\n" in summary
    # a task without a verdict fails the same way
    monkeypatch.setitem(TASKS, "f_eval", dataclasses.replace(TASKS["f_eval"], run=boom))
    with pytest.raises(ArithmeticError):
        run_experiment(ExperimentConfig.from_dict(MINIMAL), tmp_path / "f")
    assert "- f_eval: FAILED (ArithmeticError)\n" in emit_report(tmp_path / "f")


def test_records_are_written_as_each_task_ends(tmp_path, monkeypatch):
    seen = []

    def spy(ctx, params):
        seen.append((tmp_path / "records.jsonl").read_text().splitlines())
        return {}

    monkeypatch.setitem(TASKS, "weight", dataclasses.replace(TASKS["weight"], run=spy))
    tasks = [*MINIMAL["tasks"], {"name": "weight"}]
    run_experiment(ExperimentConfig.from_dict({**MINIMAL, "tasks": tasks}), tmp_path)
    [lines] = seen
    assert len(lines) == 2 and json.loads(lines[1])["task"] == "f_eval"


# sha256 of each exact-integer task result of configs/default.json, as the
# canonical JSON its record holds; float results stay out, since their last
# bits may move with numpy
DEFAULT_EXACT_DIGESTS = {
    "check": "8632565275ef59f7ef5735a664c4473c5d60824ff5cdbdc2e4e7a59f43fe2528",
    "aux": "bd32f6e75f9bcd4941c5b9391ee6077be39170eb8e58a7f04f33340061f99ff2",
    "sieve": "a3bda108a4b5e5b122d6f2ad9923b23857b51c293ddd20bc4a2644d9cc04f57c",
    "dmax": "0deb107d9cba46e73b8182657f52520dcd139993ef10d558c1a212da4b49b66e",
}
# (X, size, verified) of each greedy row of configs/default.json; x_pow is a
# float, so it stays out
DEFAULT_GREEDY_ROWS = [(1000, 115, True), (10000, 579, True)]


def test_default_config_exact_results_are_pinned(tmp_path):
    run_experiment(ExperimentConfig.load(DEFAULT_CONFIG), tmp_path)
    digests = {}
    for line in (tmp_path / "records.jsonl").read_text().splitlines()[1:]:
        rec = json.loads(line)
        if rec["task"] in DEFAULT_EXACT_DIGESTS:
            blob = json.dumps(rec["result"], sort_keys=True, separators=(",", ":"))
            digests[rec["task"]] = hashlib.sha256(blob.encode()).hexdigest()
        if rec["task"] == "greedy":
            rows = [(r["X"], r["size"], r["verified"]) for r in rec["result"]["rows"]]
    assert digests == DEFAULT_EXACT_DIGESTS
    assert rows == DEFAULT_GREEDY_ROWS


@pytest.mark.parametrize(
    "U, members, verdict",
    [(17, 184320, "passed"), (19, None, "not decided")],
)
def test_sieve_counts_periods_up_to_the_cap(tmp_path, U, members, verdict):
    # U = 17: period 1,021,020 is counted; U = 19: 19,399,380 is past the cap
    assert main(["sieve", "--U", str(U), "--out", str(tmp_path)]) == 0
    result = _task_record(tmp_path)["result"]
    assert result["members_per_period"] == members
    assert f"- sieve: {verdict}\n" in emit_report(tmp_path)


def test_default_config_verdicts(tmp_path):
    assert main(["run", "--config", str(DEFAULT_CONFIG), "--out", str(tmp_path)]) == 0
    audits = emit_report(tmp_path).split("## Audits\n")[1].splitlines()
    assert sorted(audits) == [
        "- gauss: passed",
        "- greedy: passed",
        "- iterate: passed",
        "- leveld: not decided",
        "- sieve: passed",
    ]


def test_verdicts_survive_json_round_trip():
    cfg = ExperimentConfig.load(DEFAULT_CONFIG)
    ctx = RunContext(cfg)
    checked = set()
    for task in cfg.tasks:
        name, verdict = task["name"], TASKS[task["name"]].verdict
        result = TASKS[name].run(ctx, {**TASKS[name].params, **task["params"]})
        if verdict is not None:
            value = verdict(result)
            assert value is None or type(value) is bool
            assert value == verdict(json.loads(dumps_record(result)))
            checked.add(name)
    assert checked == {"gauss", "greedy", "iterate", "sieve", "leveld"}
    # leveld decides only on trials whose hypotheses hold
    leveld = TASKS["leveld"].verdict
    trial = {"hypotheses_ok": True, "dichotomy_ok": False}
    assert leveld({"trials": [trial]}) is False
    assert leveld({"trials": [{**trial, "dichotomy_ok": True}]}) is True
    assert leveld({"trials": [{**trial, "hypotheses_ok": False}]}) is None


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
    assert main(["dmax", "--x-max", "30", "--budget", "600", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "dmax.csv").exists()
    assert _task_record(tmp_path / "d")["params"] == {"x_max": 30, "budget": 600.0}
    assert main(["report", "--out", str(tmp_path / "d")]) == 0
    assert main(["greedy", "--x-values", "500,1000", "--out", str(tmp_path / "g")]) == 0
    assert _task_record(tmp_path / "g")["params"] == {"x_values": [500, 1000]}
    assert main(["gauss", "--q-max", "20", "--out", str(tmp_path / "q")]) == 0
    assert _task_record(tmp_path / "q")["params"] == {"q_max": 20, "U": 100.0}
    # without flags, a subcommand records the TASKS defaults of its flags
    for name in ("aux", "mass", "greedy", "weight"):
        assert main([name, "--out", str(tmp_path / name)]) == 0
        params = _task_record(tmp_path / name)["params"]
        assert params and params == {k: TASKS[name].params[k] for k in params}
    # the weight task writes the audit's FFT magnitudes; sampled rows match
    # the direct transform
    rows = (tmp_path / "weight" / "weight_decay.csv").read_text().splitlines()[1::97]
    t, mag = np.array([[float(x) for x in row.split(",")[:2]] for row in rows]).T
    w = smooth_weight_build(TASKS["weight"].params["depth"], TASKS["weight"].params["resolution"])
    assert np.abs(mag - np.abs(w.fourier(t))).max() <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "cfg.json", "--poly", "0,0,1"],
        ["run", "--config", "cfg.json", "--preset", "paper"],
        ["run"],
        ["check", "--config", "cfg.json"],
        ["mass", "--config", "cfg.json", "--x", "300"],
        ["step", "--preset", "desk"],
    ],
)
def test_cli_rejects_flags_it_would_ignore(argv, capsys):
    # --config belongs to run only, --poly to the task subcommands; constants
    # come from a config's "constants", so no subcommand takes --preset
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


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
    # an integral float stays a float, also above 2^53
    for value, text in ((20.0, "20.0"), (1e16, "1e+16")):
        assert isinstance(to_jsonable(value), float)
        assert dumps_record({"v": value}) == f'{{"v":{text}}}'


def test_huge_integers_as_tagged_hex():
    # str() refuses an int past 4,300 decimal digits; hex() has no such limit
    big = 10**5000
    rec = json.loads(dumps_record({"lhs": big, "neg": -big, "edge": 10**4299}))
    assert rec["lhs"] == hex(big) and int(rec["lhs"], 0) == big
    assert int(rec["neg"], 0) == -big
    assert rec["edge"] == str(10**4299)  # every int str() writes keeps its form


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
    cfg = ExperimentConfig.load(DEFAULT_CONFIG)
    assert cfg.polynomial == [0, 0, 1]
    assert cfg.tasks


def _dmax_run(tmp_path, sub, **params):
    cfg = ExperimentConfig.from_dict({**MINIMAL, "tasks": [{"name": "dmax", "params": params}]})
    run_experiment(cfg, tmp_path / sub)
    return _task_record(tmp_path / sub)["result"], (tmp_path / sub / "dmax.csv").read_text().splitlines()


def test_dmax_budget_keeps_a_prefix_of_the_table(tmp_path, monkeypatch):
    full, full_csv = _dmax_run(tmp_path, "full", x_max=60)
    # a clock one second ahead at each reading, read every 64 nodes inside a
    # step: the budget runs out inside the table, at the same row every run
    monkeypatch.setattr(search, "_CLOCK_EVERY", 64)
    readings = itertools.count()
    monkeypatch.setattr(search, "_clock", lambda: float(next(readings)))
    part, part_csv = _dmax_run(tmp_path, "part", x_max=60, budget=60.5)
    n = len(part["table"])
    assert 0 < n < 60 and part["x_max"] == 60
    assert part["table"] == full["table"][:n] and part["final_D"] == part["table"][-1][1]
    assert part_csv == full_csv[: n + 1]


def test_dmax_record_carries_node_counts_outside_result(tmp_path, monkeypatch):
    squares = [n * n for n in range(1, 8)]
    full, _ = _dmax_run(tmp_path, "full", x_max=60)
    record = _task_record(tmp_path / "full")
    assert record["nodes"] == search.dmax_table(squares, 60).nodes
    assert set(record) == {"task", "params", "result", "duration_ms", "nodes"}
    # a table its budget stopped records the counts of the rows it finished
    monkeypatch.setattr(search, "_CLOCK_EVERY", 64)
    readings = itertools.count()
    monkeypatch.setattr(search, "_clock", lambda: float(next(readings)))
    part, _ = _dmax_run(tmp_path, "part", x_max=60, budget=60.5)
    nodes = _task_record(tmp_path / "part")["nodes"]
    assert len(nodes) == len(part["table"]) < 60 and nodes == record["nodes"][: len(nodes)]
    run_experiment(ExperimentConfig.from_dict(MINIMAL), tmp_path / "f_eval")
    assert "nodes" not in _task_record(tmp_path / "f_eval")


def test_dmax_records_final_d_0_for_an_empty_table(tmp_path, monkeypatch):
    # x_max = 0 used to raise IndexError; so did a budget out before row 1
    empty = ["X,D,witness"]
    assert _dmax_run(tmp_path, "zero", x_max=0) == ({"x_max": 0, "final_D": 0, "table": []}, empty)
    readings = iter([0.0])  # the deadline's reading; every later one is late
    monkeypatch.setattr(search, "_clock", lambda: next(readings, 10.0))
    assert _dmax_run(tmp_path, "late", x_max=60, budget=1.0) == ({"x_max": 60, "final_D": 0, "table": []}, empty)


def test_dmax_budget_not_hit_keeps_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_clock", lambda: 0.0)  # a budget that never runs out
    [task] = [t for t in ExperimentConfig.load(DEFAULT_CONFIG).tasks if t["name"] == "dmax"]
    for budget in (0.0, 1.0):
        result, _ = _dmax_run(tmp_path, str(budget), **task["params"], budget=budget)
        blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == DEFAULT_EXACT_DIGESTS["dmax"]


def test_dmax_rejects_a_negative_budget(tmp_path):
    for budget in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="budget"):
            _dmax_run(tmp_path, "bad", x_max=10, budget=budget)
