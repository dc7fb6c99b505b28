"""Command line front end.

Subcommands: schmidt, sq, verify, scatter, gas. Each takes --config PATH
(JSON), --seed N (overrides seeds in the config) and --out PATH; scatter
and gas also take --format {csv,json}. Reports are data only: JSON for
schmidt/sq/verify, delimited or JSON trajectories for scatter/gas. Exit
codes: 0 success, 1 property violation found by verify, 2 config error,
3 domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ToolkitError
from .linalg import StateVector, check_dims, random_state, schmidt
from .scattering import (
    CollisionModel,
    box_energies,
    entropy_trajectory,
    gas_run,
    trajectory_to_csv,
    trajectory_to_json,
)
from .sq import sq_bipartite, sq_search
from .verify import run_battery


class ConfigError(ValueError):
    """Bad config file, bad flag value, or bad inline data."""


# Every key a config may hold, per subcommand and per nested object (inline
# states, state files, in1/in2 and random_state). Any other key is a config
# error, so a misspelt key never quietly leaves its default in place.
_STATE_SOURCES = ("state", "state_file", "random_state")
_SEARCH_KEYS = ("restarts", "max_iters", "seed")
_MODEL_KEYS = ("coupling", "interaction_seed", "duration")
CONFIG_KEYS = {
    "schmidt": {*_STATE_SOURCES},
    "sq": {*_STATE_SOURCES, "method", *_SEARCH_KEYS},
    "verify": {"samples", "seed", "dims"},
    "scatter": {
        "d1", "d2", "samples", "free_energies_1", "free_energies_2", "in1", "in2",
        "seed", *_MODEL_KEYS,
    },
    "gas": {"n", "d", "collisions", "restarts", "free_energies", "seed", *_MODEL_KEYS},
    "state": {"factor_dims", "amplitudes"},
    "random_state": {"factor_dims", "seed"},
}


def _check_keys(obj: dict, kind: str) -> None:
    unknown = sorted(set(obj) - CONFIG_KEYS[kind])
    if unknown:
        raise ConfigError(
            f"unknown {kind} keys {unknown}; the known ones are "
            f"{sorted(CONFIG_KEYS[kind])}"
        )


def state_to_json(state: StateVector) -> dict:
    """State as JSON: factor dims plus flat row-major [re, im] pairs."""
    return {
        "factor_dims": list(state.factor_dims),
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


def _factor_dims(dims, key) -> tuple[int, ...]:
    """A nonempty JSON list of positive integers; true and false are not."""
    if not isinstance(dims, list) or not dims or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise ConfigError(f"{key} must be a list of positive integers, got {dims!r}")
    return tuple(dims)


def state_from_json(obj) -> StateVector:
    if not isinstance(obj, dict) or not {"factor_dims", "amplitudes"} <= set(obj):
        raise ConfigError("state JSON needs 'factor_dims' and 'amplitudes'")
    _check_keys(obj, "state")
    dims = _factor_dims(obj["factor_dims"], "factor_dims")
    expected = math.prod(check_dims(dims))
    pairs = obj["amplitudes"]
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ConfigError(f"amplitudes must be a list of {expected} [re, im] pairs")
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"amplitudes are not numeric: {exc}") from None
    if arr.shape != (expected, 2):
        raise ConfigError("each amplitude must be an [re, im] pair")
    try:
        return StateVector(dims, arr[:, 0] + 1j * arr[:, 1])
    except ValueError as exc:
        raise ConfigError(f"invalid state: {exc}") from None


def _load_json_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _load_config(args) -> dict:
    """The subcommand's config object, holding only keys it reads."""
    if args.config is None:
        return {}
    cfg = _load_json_file(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, args.command)
    return cfg


def _int_param(cfg, key, default, minimum) -> int:
    value = cfg.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _is_finite_number(value) -> bool:
    """A JSON int or float that is a finite double (json.loads accepts NaN,
    Infinity and ints too large for a float)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _float_param(cfg, key, default) -> float:
    value = cfg.get(key, default)
    if not _is_finite_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _seed_param(cfg, key, flag_value, default) -> int:
    if flag_value is not None:
        seed = flag_value
    else:
        seed = cfg.get(key, default)
    if seed is None:
        raise ConfigError(f"a seed is required (config key {key!r} or --seed)")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seeds must be nonnegative integers, got {seed!r}")
    return seed


def _resolve_state(cfg, seed_flag, default_dims) -> StateVector:
    present = [k for k in ("state", "state_file", "random_state") if k in cfg]
    if len(present) > 1:
        raise ConfigError(f"give only one of {present}")
    if "state" in cfg:
        return state_from_json(cfg["state"])
    if "state_file" in cfg:
        path = cfg["state_file"]
        if not isinstance(path, str):
            raise ConfigError(f"state_file must be a path string, got {path!r}")
        return state_from_json(_load_json_file(path))
    request = cfg.get("random_state", {})
    if not isinstance(request, dict):
        raise ConfigError("random_state must be an object")
    _check_keys(request, "random_state")
    dims = _factor_dims(
        request.get("factor_dims", list(default_dims)), "random_state.factor_dims"
    )
    default_seed = 0 if "random_state" in cfg else None
    seed = _seed_param(request, "seed", seed_flag, default_seed)
    return random_state(dims, seed)


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _rounded(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_rounded(obj), indent=2, sort_keys=True) + "\n"


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None


def _cmd_schmidt(args) -> int:
    cfg = _load_config(args)
    state = _resolve_state(cfg, args.seed, default_dims=(2, 2))
    form = schmidt(state)
    error = float(np.abs(form.reconstruct().amplitudes - state.amplitudes).max())
    report = {
        "weights": [float(w) for w in form.weights],
        "schmidt_rank": form.rank,
        "reconstruction_error": error,
    }
    _emit(_json_text(report), args.out)
    return 0


def _cmd_sq(args) -> int:
    cfg = _load_config(args)
    state = _resolve_state(cfg, args.seed, default_dims=(2, 2))
    method = cfg.get("method", "closed_form")
    if method == "closed_form":
        unread = [k for k in _SEARCH_KEYS if k in cfg]
        if unread:
            raise ConfigError(f"{unread} apply only to method 'search'")
        result = sq_bipartite(state)
        report = result.to_json()
    elif method == "search":
        restarts = _int_param(cfg, "restarts", 10, 1)
        max_iters = _int_param(cfg, "max_iters", 800, 1)
        seed = _seed_param(cfg, "seed", args.seed, 0)
        result = sq_search(state, restarts=restarts, max_iters=max_iters, seed=seed)
        report = result.to_json()
        if state.num_factors == 2:
            report["gap_to_closed_form"] = result.value - sq_bipartite(state).value
    else:
        raise ConfigError(f"method must be closed_form or search, got {method!r}")
    _emit(_json_text(report), args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    samples = _int_param(cfg, "samples", 200, 1)
    seed = _seed_param(cfg, "seed", args.seed, 1)
    dims = cfg.get("dims", [3, 3])
    if not isinstance(dims, list) or len(dims) != 2 or not all(
        isinstance(d, int) and d >= 2 for d in dims
    ):
        raise ConfigError("dims must be two integers >= 2")
    check_dims(dims)  # run_battery's errors are config errors, this one is not
    try:
        report = run_battery(samples=samples, seed=seed, dims=dims)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit(_json_text(report), args.out)
    return 0 if report["passed"] else 1


def _energies_param(cfg, key, dim) -> tuple[float, ...]:
    value = cfg.get(key)
    if value is None:
        return box_energies(dim)
    if not isinstance(value, list) or len(value) != dim or not all(
        _is_finite_number(e) for e in value
    ):
        raise ConfigError(f"{key} must be a list of {dim} finite numbers")
    return tuple(float(e) for e in value)


def _summary_line(traj) -> str:
    values = traj.sq_estimates
    return (
        f"initial={values[0]:.12g} final={values[-1]:.12g} max={max(values):.12g}\n"
    )


def _emit_trajectory(traj, args) -> None:
    if args.format == "json":
        _emit(_json_text(trajectory_to_json(traj)), args.out)
    else:
        _emit(trajectory_to_csv(traj), args.out)
    # keep stdout machine-readable when the trajectory itself goes there
    stream = sys.stdout if args.out is not None else sys.stderr
    stream.write(_summary_line(traj))


def _cmd_scatter(args) -> int:
    cfg = _load_config(args)
    d1 = _int_param(cfg, "d1", 4, 1)
    d2 = _int_param(cfg, "d2", 4, 1)
    CollisionModel.check_size(d1, d2)  # before the energy lists are built
    samples = _int_param(cfg, "samples", 21, 2)
    interaction_seed = _int_param(cfg, "interaction_seed", 0, 0)
    model = CollisionModel(
        d1=d1,
        d2=d2,
        free_energies_1=_energies_param(cfg, "free_energies_1", d1),
        free_energies_2=_energies_param(cfg, "free_energies_2", d2),
        coupling=_float_param(cfg, "coupling", 0.5),
        interaction_seed=interaction_seed,
        duration=_float_param(cfg, "duration", 1.0),
    )
    if "in1" in cfg or "in2" in cfg:
        if not ("in1" in cfg and "in2" in cfg):
            raise ConfigError("give both in1 and in2, or neither")
        if "seed" in cfg:
            raise ConfigError("seed draws the in-states; it does not go with in1 and in2")
        in1 = state_from_json(cfg["in1"])
        in2 = state_from_json(cfg["in2"])
    else:
        rng = np.random.default_rng(_seed_param(cfg, "seed", args.seed, 0))
        in1 = random_state((d1,), rng)
        in2 = random_state((d2,), rng)
    traj = entropy_trajectory(model, in1, in2, samples)
    _emit_trajectory(traj, args)
    return 0


def _cmd_gas(args) -> int:
    cfg = _load_config(args)
    n = _int_param(cfg, "n", 3, 3)
    d = _int_param(cfg, "d", 2, 1)
    CollisionModel.check_size(d, d)  # before the energy lists are built
    collisions = _int_param(cfg, "collisions", 10, 0)
    restarts = _int_param(cfg, "restarts", 4, 1)
    interaction_seed = _int_param(cfg, "interaction_seed", 0, 0)
    model = CollisionModel(
        d1=d,
        d2=d,
        free_energies_1=_energies_param(cfg, "free_energies", d),
        free_energies_2=_energies_param(cfg, "free_energies", d),
        coupling=_float_param(cfg, "coupling", 0.5),
        interaction_seed=interaction_seed,
        duration=_float_param(cfg, "duration", 1.0),
    )
    seed = _seed_param(cfg, "seed", args.seed, 0)
    traj = gas_run(n, d, collisions, model, seed, restarts=restarts)
    _emit_trajectory(traj, args)
    return 0


_HANDLERS = {
    "schmidt": _cmd_schmidt,
    "sq": _cmd_sq,
    "verify": _cmd_verify,
    "scatter": _cmd_scatter,
    "gas": _cmd_gas,
}

_HELP = {
    "schmidt": "normal form of a bipartite state: weights, rank, reconstruction error",
    "sq": "minimal product-measurement entropy, closed form or search",
    "verify": "run the randomized property battery",
    "scatter": "two-particle collision: entropy along the interaction time",
    "gas": "n-particle gas under random pairwise collisions",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sq-toolkit",
        description="entropy of pure states under product measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument(
            "--seed", type=int, metavar="N", help="override seeds in the config"
        )
        p.add_argument(
            "--out", metavar="PATH", help="write the report here instead of stdout"
        )
        if name in ("scatter", "gas"):
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
