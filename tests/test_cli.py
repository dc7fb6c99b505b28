"""End-to-end tests for the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import LN2, bell_state, ghz_state
from sq_toolkit import verify
from sq_toolkit.cli import (
    ConfigError,
    _json_text,
    main,
    state_from_json,
    state_to_json,
)
from sq_toolkit.linalg import random_product_state, random_state
from sq_toolkit.scattering import (
    CollisionModel,
    entropy_trajectory,
    gas_run,
    trajectory_to_csv,
)
from sq_toolkit.sq import sq_search


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_state_json_round_trip():
    st = random_product_state((2, 3), 4)
    back = state_from_json(state_to_json(st))
    assert back.factor_dims == st.factor_dims
    np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-15)


def test_state_from_json_rejects_malformed():
    good = state_to_json(bell_state())
    for broken in (
        [],
        {"factor_dims": [2, 2]},
        {**good, "factor_dims": [2, "2"]},
        # true would count as 1, so [True, 2] would fail on the amplitude count
        {**good, "factor_dims": [True, 4]},
        {**good, "amplitudes": good["amplitudes"][:3]},
        {**good, "amplitudes": [[1.0, 0.0, 0.0]] * 4},
        {**good, "amplitudes": [[10**400, 0.0]] + good["amplitudes"][1:]},
    ):
        with pytest.raises(ConfigError):
            state_from_json(broken)


def test_state_from_json_rejects_unnormalized():
    bad = state_to_json(bell_state())
    bad["amplitudes"][0] = [1.0, 0.0]
    with pytest.raises(ConfigError):
        state_from_json(bad)


@pytest.mark.parametrize(
    "cfg",
    [
        {"state_file": 5},
        {"state_file": None},
        {"state_file": ["state.json"]},
        {"state_file": "state\u0000.json"},
        {"random_state": {"factor_dims": [True, 2]}},
    ],
    ids=["int-path", "null-path", "list-path", "nul-in-path", "bool-dim"],
)
def test_malformed_state_request_is_config_error(tmp_path, capsys, cfg):
    assert main(["sq", "--config", write_config(tmp_path, cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_schmidt_bell_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {"state": state_to_json(bell_state())})
    code, report = run_json(capsys, ["schmidt", "--config", cfg])
    assert code == 0
    np.testing.assert_allclose(report["weights"], [0.5, 0.5], atol=1e-12)
    assert report["schmidt_rank"] == 2
    assert report["reconstruction_error"] <= 1e-10


def test_schmidt_product_state_rank_one(tmp_path, capsys):
    st = random_product_state((3, 3), 0)
    cfg = write_config(tmp_path, {"state": state_to_json(st)})
    code, report = run_json(capsys, ["schmidt", "--config", cfg])
    assert code == 0
    assert report["schmidt_rank"] == 1


def test_schmidt_random_state_seed_42(tmp_path, capsys):
    cfg = write_config(tmp_path, {"random_state": {"factor_dims": [4, 4], "seed": 42}})
    code, report = run_json(capsys, ["schmidt", "--config", cfg])
    assert code == 0
    assert abs(sum(report["weights"]) - 1.0) <= 1e-12


def test_schmidt_rejects_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"state": state_to_json(bell_state())})
    assert main(["schmidt", "--config", cfg, "--format", "csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_schmidt_rejects_conflicting_state_keys(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "state": state_to_json(bell_state()),
            "random_state": {"factor_dims": [2, 2], "seed": 0},
        },
    )
    assert main(["schmidt", "--config", cfg]) == 2


def test_sq_closed_form_bell(tmp_path, capsys):
    cfg = write_config(tmp_path, {"state": state_to_json(bell_state())})
    code, report = run_json(capsys, ["sq", "--config", cfg])
    assert code == 0
    assert report["method"] == "closed_form"
    assert abs(report["value"] - LN2) <= 1e-11  # 12 significant digits


def test_sq_search_bell(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"state": state_to_json(bell_state()), "method": "search", "restarts": 10},
    )
    code, report = run_json(capsys, ["sq", "--config", cfg, "--seed", "0"])
    assert code == 0
    assert report["method"] == "search"
    assert abs(report["value"] - LN2) <= 1e-6
    assert abs(report["gap_to_closed_form"]) <= 1e-6


def test_sq_search_three_factor_product(tmp_path, capsys):
    st = random_product_state((2, 2, 2), 3)
    cfg = write_config(
        tmp_path,
        {"state": state_to_json(st), "method": "search", "restarts": 4, "seed": 1},
    )
    code, report = run_json(capsys, ["sq", "--config", cfg])
    assert code == 0
    assert report["value"] <= 1e-6
    assert "gap_to_closed_form" not in report


def test_sq_closed_form_needs_bipartite(tmp_path, capsys):
    cfg = write_config(tmp_path, {"state": state_to_json(ghz_state())})
    assert main(["sq", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_sq_rejects_unknown_method(tmp_path):
    cfg = write_config(
        tmp_path, {"state": state_to_json(bell_state()), "method": "annealing"}
    )
    assert main(["sq", "--config", cfg]) == 2


def test_sq_search_requires_nonneg_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        {"state": state_to_json(bell_state()), "method": "search", "seed": -3},
    )
    assert main(["sq", "--config", cfg]) == 2


def test_verify_defaults_pass(capsys):
    code, report = run_json(capsys, ["verify"])
    assert code == 0
    assert report["passed"] is True
    assert report["samples"] == 200
    assert report["seed"] == 1


def test_cli_defaults_are_the_library_defaults(tmp_path, capsys):
    """The handlers restate the library's defaults, so a default changed in
    only one place fails here: each report equals the library call that
    passes no optional argument."""
    state = random_state((2, 2, 2), 3)
    cfg = write_config(tmp_path, {"method": "search", "state": state_to_json(state)})
    assert main(["sq", "--config", cfg]) == 0
    assert capsys.readouterr().out == _json_text(sq_search(state).to_json())
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == _json_text(verify.run_battery())
    assert main(["gas", "--config", write_config(tmp_path, {})]) == 0
    expected = gas_run(3, 2, 10, CollisionModel.box(2, 2), 0)
    assert capsys.readouterr().out == trajectory_to_csv(expected)
    # scatter's sizes and in-state draw are its own; its model is the box's
    assert main(["scatter"]) == 0
    rng = np.random.default_rng(0)
    in1, in2 = random_state((4,), rng), random_state((4,), rng)
    expected = entropy_trajectory(CollisionModel.box(4, 4), in1, in2, 21)
    assert capsys.readouterr().out == trajectory_to_csv(expected)


def test_verify_single_sample(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": 1})
    code, report = run_json(capsys, ["verify", "--config", cfg])
    assert code == 0
    assert report["passed"] is True


def test_verify_violation_exits_one(tmp_path, capsys, monkeypatch):
    # the equality holds only to roundoff, so a zero bound must fail
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "proof_chain_equality", 0.0)
    cfg = write_config(tmp_path, {"samples": 20, "seed": 2})
    code, report = run_json(capsys, ["verify", "--config", cfg])
    assert code == 1
    assert report["passed"] is False


def test_scatter_free_coupling_stays_flat(tmp_path, capsys):
    cfg = write_config(tmp_path, {"coupling": 0.0, "samples": 5, "seed": 0})
    out = tmp_path / "traj.csv"
    code = main(["scatter", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,sq_estimate,pair_i,pair_j"
    assert len(lines) == 6
    finals = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(finals) <= 1e-9
    summary = capsys.readouterr().out
    assert summary.startswith("initial=")


def test_scatter_generic_coupling_reports_growth(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": 5, "seed": 0})
    out = tmp_path / "traj.csv"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1]
    assert float(last.split(",")[1]) > 0.0
    assert "final=" in capsys.readouterr().out


def test_scatter_initial_entropy_is_not_negative(tmp_path, capsys):
    # the in-state's single Schmidt weight came out as 1 + 4e-16, and the
    # summary once printed initial=-4.4408920985e-16
    cfg = write_config(tmp_path, {"coupling": 0.5, "seed": 5, "d1": 3, "d2": 3})
    assert main(["scatter", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("initial=0 ")
    values = [float(row.split(",")[1]) for row in captured.out.splitlines()[1:]]
    assert min(values) >= 0.0


def test_scatter_stdout_keeps_summary_on_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": 3, "seed": 1})
    assert main(["scatter", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,sq_estimate,pair_i,pair_j")
    assert captured.err.startswith("initial=")


def test_scatter_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": 3, "seed": 1})
    code = main(["scatter", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = capsys.readouterr().out
    report = json.loads(payload.split("initial=")[0])
    assert set(report) == {"times", "sq_estimates", "pair_schedule", "pair_entropies"}
    assert len(report["times"]) == 3


def test_scatter_requires_both_in_states(tmp_path):
    st = state_to_json(random_product_state((4,), 0))
    cfg = write_config(tmp_path, {"in1": st})
    assert main(["scatter", "--config", cfg]) == 2


def test_scatter_explicit_in_states(tmp_path, capsys):
    in1 = state_to_json(random_product_state((4,), 1))
    in2 = state_to_json(random_product_state((4,), 2))
    cfg = write_config(tmp_path, {"in1": in1, "in2": in2, "samples": 3})
    assert main(["scatter", "--config", cfg]) == 0
    capsys.readouterr()


def test_gas_csv_has_initial_plus_collision_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"n": 3, "d": 2, "collisions": 10, "restarts": 2, "seed": 0}
    )
    out = tmp_path / "gas.csv"
    assert main(["gas", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12  # header + initial row + one per collision
    assert lines[1].split(",")[2:] == ["-1", "-1"]
    capsys.readouterr()


def test_gas_too_large_is_domain_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 21, "d": 2, "collisions": 1, "seed": 0})
    assert main(["gas", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": 4, "seed": 3})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scatter", "--config", cfg, "--out", str(a)]) == 0
    assert main(["scatter", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    sq_cfg = write_config(
        tmp_path,
        {"random_state": {"factor_dims": [3, 3], "seed": 5}, "method": "search",
         "restarts": 3, "seed": 6},
        name="sq.json",
    )
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert main(["sq", "--config", sq_cfg, "--out", str(c)]) == 0
    assert main(["sq", "--config", sq_cfg, "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()


def test_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"random_state": {"factor_dims": [3, 3], "seed": 1}})
    _, with_config_seed = run_json(capsys, ["schmidt", "--config", cfg])
    _, with_flag = run_json(capsys, ["schmidt", "--config", cfg, "--seed", "2"])
    assert with_config_seed["weights"] != with_flag["weights"]


def test_missing_config_file_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["schmidt", "--config", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["schmidt", "--config", str(path)]) == 2
    capsys.readouterr()


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["schmidt", "--config", str(path)]) == 2
    capsys.readouterr()


def test_unknown_command_is_config_error(capsys):
    assert main(["warp"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_values_are_rounded_to_12_significant_digits(tmp_path, capsys):
    cfg = write_config(tmp_path, {"random_state": {"factor_dims": [4, 4], "seed": 9}})
    _, report = run_json(capsys, ["sq", "--config", cfg])
    assert report["value"] == float(f"{report['value']:.12g}")
    for w in report["weights"]:
        assert w == float(f"{w:.12g}")


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, {"state": state_to_json(bell_state())})
    proc = subprocess.run(
        [sys.executable, "-m", "sq_toolkit", "sq", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["value"] - LN2) <= 1e-11


def test_subprocess_search_reruns_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {"random_state": {"factor_dims": [3, 3], "seed": 2}, "method": "search",
         "restarts": 4, "seed": 3},
    )
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "sq_toolkit", "sq", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "cfg",
    [
        '{"coupling": NaN}',
        '{"duration": Infinity}',
        '{"coupling": 1e999}',
        '{"coupling": 1' + "0" * 400 + "}",
        '{"free_energies_1": [1, 4, NaN, 16]}',
    ],
    ids=["nan", "infinity", "overflow", "huge-int", "nan-energy"],
)
def test_scatter_rejects_non_finite_numbers(tmp_path, capsys, cfg):
    path = tmp_path / "config.json"
    path.write_text(cfg)
    assert main(["scatter", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_inline_nan_state_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        '{"state": {"factor_dims": [2], "amplitudes": [[NaN, 0], [0, 0]]}}'
    )
    assert main(["schmidt", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_gas_with_too_many_factors_is_a_domain_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 100, "d": 1, "collisions": 1})
    assert main(["gas", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("schmidt", {"random_state": {"factor_dims": [200000, 200000]}}),
        ("sq", {"state": {"factor_dims": [200000, 200000], "amplitudes": []}}),
        ("scatter", {"d1": 10**12}),
        ("scatter", {"d1": 1000, "d2": 1000, "samples": 2}),
        ("gas", {"n": 3, "d": 100, "collisions": 1}),
        ("scatter", {"samples": 10**11}),
        (
            "sq",
            {
                "method": "search",
                "restarts": 10**8,
                "random_state": {"factor_dims": [2, 2], "seed": 1},
            },
        ),
        ("verify", {"dims": [2000, 2000], "samples": 1}),
    ],
)
def test_oversized_states_are_domain_errors(tmp_path, capsys, command, cfg):
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg",
    [
        (
            "sq",
            {
                "method": "search",
                "restarts": 10**8,
                "random_state": {"factor_dims": [2, 2], "seed": 1},
            },
        ),
        # one collision forms only a pair, which needs no search
        ("gas", {"n": 3, "d": 2, "collisions": 1, "restarts": 10**8}),
    ],
)
def test_restart_cap_error_names_the_restarts(tmp_path, capsys, command, cfg):
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "restarts" in err


@pytest.mark.parametrize("command", ["schmidt", "sq", "verify"])
def test_json_only_reports_take_no_format_flag(capsys, command):
    assert main([command, "--format", "json"]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


BELL_JSON = state_to_json(bell_state())
RANDOM_2X2 = {"factor_dims": [2, 2], "seed": 1}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("sq", {"method": "closed_form", "restarts": 3, "random_state": RANDOM_2X2}),
        ("sq", {"max_iters": 5, "random_state": RANDOM_2X2}),
        ("sq", {"seed": 2, "state": BELL_JSON}),
        ("sq", {"random_state": {"factor_dims": [2, 2], "sed": 3}}),
        ("sq", {"method": "search", "restart": 1, "random_state": RANDOM_2X2}),
        ("sq", {"state": {**BELL_JSON, "phase": 0.0}}),
        ("schmidt", {"random_state": RANDOM_2X2, "method": "search"}),
        ("gas", {"n": 3, "colisions": 50}),
        ("verify", {"samples": 1, "dimz": [9, 9]}),
        ("sq", {"method": "search", "tol": float("nan"), "restarts": 1,
                "random_state": RANDOM_2X2}),
        ("verify", {"tolerances": {"convexity_gap": -1e-10}}),
        ("verify", {"tolerances": {"convexity_gap": 10**400}}),
        ("verify", {"tolerances": {"bogus": 1e-10}}),
        ("scatter", {"samples": 2, "d": 2}),
        ("scatter", {"samples": 2, "in1": {**BELL_JSON, "factor_dims": [4], "x": 1},
                     "in2": BELL_JSON}),
        ("scatter", {"samples": 2, "seed": 1,
                     "in1": state_to_json(random_product_state((4,), 1)),
                     "in2": state_to_json(random_product_state((4,), 2))}),
    ],
    ids=[
        "closed-form-restarts", "closed-form-max-iters", "closed-form-seed",
        "random-state-sed", "search-restart", "inline-state-extra",
        "schmidt-method", "gas-colisions", "verify-dimz", "search-nan-tol",
        "verify-negative-tolerance", "verify-tolerance-beyond-a-float",
        "verify-unknown-tolerance", "scatter-d",
        "scatter-in1-extra", "scatter-seed-with-in-states",
    ],
)
def test_keys_that_nothing_reads_are_config_errors(tmp_path, capsys, command, cfg):
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_state_file_with_an_unknown_key_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {**BELL_JSON, "norm": 1.0}, name="state.json")
    assert main(["sq", "--config", write_config(tmp_path, {"state_file": path})]) == 2
    assert "unknown state keys ['norm']" in capsys.readouterr().err
