"""Seeded input generators for the solitonforge benchmark.

Every workload input is a strict-JSON config text, exactly what
``solitonforge --config`` and ``cli.parse_config`` accept: for cli-verify
the shipped files under ``configs/``, for the other workloads generated
specs.  The same ``(workload, seed)`` always gives the same texts, byte for
byte: the generators use only ``random.Random`` seeded from a string (whose
seeding does not depend on hash randomisation) and ``json.dumps`` with
sorted keys.  This module imports nothing from the package, so inputs can
be generated and tested without it.
"""

from __future__ import annotations

import json
import math
import os
import random

# The seven shipped soliton configs that cli-verify serves, read from
# configs/<name>.json in the checkout.
SHIPPED_SOLITONS = ("bryant_d2", "r1_d3", "r1_d4", "r1_d9", "r2_d2_3", "r2_d3_5", "r3_d2_2_3")
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

FAMILY_R = (1, 2, 3)
FAMILY_D1 = (2, 3, 4, 5, 9)
EXTRA_DIMS = (2, 6)              # inclusive range for factors after the first
FAMILY_EPS0 = (1e-7, 1e-5)       # |eps0|, log-uniform; see DEFECT_PROBE
FAMILY_RATIO = (0.5, 8.0)        # eps_i / |eps0|, log-uniform
GROUP_SIZE = 5                   # sweep points per factor spec, as cmd_sweep
RICCI_FLAT_R = (2, 3)
RICCI_FLAT_EPS = (1e-5, 1e-3)    # eps_i, log-uniform
EPS_SLICES = 8                   # strata for the leading seed coefficient

# More inputs than any run can use at the slowest measured request rate;
# a run that reaches the end starts the list again.
FAMILY_GROUPS = 40
RICCI_FLAT_INPUTS = 200
CLI_CYCLES = 20

# Family specs in the corners of |eps0| in [1e-8, 1e-4] where the seed
# commit fails the family gate.  The timed family workload keeps |eps0|
# inside FAMILY_EPS0, where every request passes; the traced family run
# serves these once each and counts how many still fail, so a fix to the
# defect, or a change that makes it worse, shows.  (id, dims, seed coeffs)
DEFECT_PROBE = (
    # d1 = 9 with |eps0| ~ 1e-8: oracle g_dot, potential_boundary_value
    ("d9-eps1e-8", (9,), (-1e-8,)),
    ("d9-4-eps1.5e-8", (9, 4), (-1.5e-8, 3e-8)),
    # large |eps0| and eps_2/|eps0|: noncollapsing_factors
    ("d5-6-5-eps7.6e-5", (5, 6, 5), (-7.6e-5, 3.344e-4, 1.52e-4)),
    # r = 3 with |eps0| above ~4e-5: seed_ratio
    ("d3-4-2-eps8e-5", (3, 4, 2), (-8e-5, 8e-5, 8e-5)),
)


def config_text(dims, seed_coeffs, mode=None) -> str:
    """One config file's text: factors with lambda = dim - 1."""
    cfg = {"factors": [{"dim": int(d), "lambda": float(d - 1)} for d in dims],
           "seed_coeffs": [float(c) for c in seed_coeffs]}
    if mode is not None:
        cfg["mode"] = mode
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_slice(rng: random.Random, lo: float, hi: float, k: int, n: int) -> float:
    """Log-uniform within the k-th of n equal slices of [lo, hi] in log."""
    a, b = math.log(lo), math.log(hi)
    return math.exp(a + (b - a) * (k + rng.random()) / n)


def _deck(rng: random.Random, items):
    """Endless draws that deal every item once per shuffled deck.

    Dealing from small decks rather than drawing independently keeps the
    mix of cheap and expensive inputs in a run close to the population
    mix, so medians and tails vary less between seeds; each draw is still
    uniform over the items.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _extra_dims(rng: random.Random, r: int) -> list[int]:
    return [rng.randint(*EXTRA_DIMS) for _ in range(r - 1)]


def family_inputs(seed: int) -> list[dict]:
    """Soliton sweep points in groups of GROUP_SIZE sharing a factor spec.

    Within a group only eps_2/|eps0| changes, the way ``cmd_sweep`` issues
    its points; other eps_i/|eps0| are fixed per group.  With r = 1 there
    is no ratio to sweep, so the points of a group differ in |eps0|.
    r, d1 and |eps0| come from separate decks (|eps0| in EPS_SLICES
    log slices), and the GROUP_SIZE points of a group take one log slice
    each of their ratio (of |eps0| when r = 1).
    """
    rng = random.Random(f"family-{seed}")
    rs, d1s = _deck(rng, FAMILY_R), _deck(rng, FAMILY_D1)
    eps_slices = _deck(rng, range(EPS_SLICES))
    inputs = []
    for group in range(FAMILY_GROUPS):
        r, d1 = next(rs), next(d1s)
        dims = [d1] + _extra_dims(rng, r)
        eps0 = _log_slice(rng, *FAMILY_EPS0, next(eps_slices), EPS_SLICES)
        fixed = [_log_uniform(rng, *FAMILY_RATIO) for _ in range(r - 2)]
        points = list(range(GROUP_SIZE))
        rng.shuffle(points)
        for point, k in enumerate(points):
            if r == 1:
                coeffs = [-_log_slice(rng, *FAMILY_EPS0, k, GROUP_SIZE)]
            else:
                ratio = _log_slice(rng, *FAMILY_RATIO, k, GROUP_SIZE)
                coeffs = [-eps0, ratio * eps0] + [q * eps0 for q in fixed]
            inputs.append({
                "id": f"g{group:02d}p{point}",
                "config": config_text(dims, coeffs),
            })
    return inputs


def ricci_flat_inputs(seed: int) -> list[dict]:
    """Ricci-flat specs: eps0 = 0 and eps_i log-uniform, r in {2, 3};
    eps_2 is stratified over inputs like |eps0| in the family."""
    rng = random.Random(f"ricci-flat-{seed}")
    rs, d1s = _deck(rng, RICCI_FLAT_R), _deck(rng, FAMILY_D1)
    eps_slices = _deck(rng, range(EPS_SLICES))
    inputs = []
    for k in range(RICCI_FLAT_INPUTS):
        r, d1 = next(rs), next(d1s)
        dims = [d1] + _extra_dims(rng, r)
        coeffs = [0.0, _log_slice(rng, *RICCI_FLAT_EPS, next(eps_slices), EPS_SLICES)]
        coeffs += [_log_uniform(rng, *RICCI_FLAT_EPS) for _ in range(r - 2)]
        inputs.append({
            "id": f"rf{k:03d}",
            "config": config_text(dims, coeffs, mode="ricci_flat"),
        })
    return inputs


def defect_probe_inputs() -> list[dict]:
    """The DEFECT_PROBE specs; the same for every seed."""
    return [{"id": f"probe-{name}", "config": config_text(dims, coeffs)}
            for name, dims, coeffs in DEFECT_PROBE]


def cli_verify_inputs(seed: int) -> list[dict]:
    """The seven shipped soliton configs, each cycle in a seeded order."""
    rng = random.Random(f"cli-verify-{seed}")
    texts = {}
    for name in SHIPPED_SOLITONS:
        with open(os.path.join(CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
            texts[name] = fh.read()
    order = list(SHIPPED_SOLITONS)
    inputs = []
    for cycle in range(CLI_CYCLES):
        rng.shuffle(order)
        for name in order:
            inputs.append({"id": f"c{cycle:02d}-{name}", "config": texts[name]})
    return inputs


GENERATORS = {
    "cli-verify": cli_verify_inputs,
    "family": family_inputs,
    "ricci-flat": ricci_flat_inputs,
}


def inputs_for(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
