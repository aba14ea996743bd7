"""Builtin right-hand sides, forcings and update maps, plus expression trees.

Catalog ids are the stable names the CLI and config files refer to; every
id round-trips through the experiment runner. Expression trees give config
files a small composable language over {+, -, *, sin, cos, ln, exp, abs,
pow, norm} for custom systems.
"""

import numpy as np

from .errors import ConfigError, WindowOutOfDomainError
from .signal import GRID_RTOL, SampledSignal

ROOT2 = np.sqrt(2.0)

MAX_EXPR_DEPTH = 32


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------

def eval_expr(node, t, x, params=None, forcing_value=None, _depth=0):
    """Evaluate a nested-list expression at time t and state x.

    x is one state of shape (d,) or K stacked states of shape (K, d); t is
    a scalar or one time per state. Components are read along the last
    axis, so a node gives a scalar or a (K,) array.

    Nodes: ["t"], ["x"], ["x", i], ["const", c], ["param", name],
    ["forcing"], ["forcing", i], ["norm"], unary ["neg"|"sin"|"cos"|"ln"|
    "exp"|"abs", a], binary ["+"|"-"|"*", a, b], ["pow", a, c_const].
    """
    if _depth > MAX_EXPR_DEPTH:
        raise ConfigError("expression tree deeper than 32 levels", key="expr")
    if not isinstance(node, (list, tuple)) or not node:
        raise ConfigError(f"malformed expression node: {node!r}", key="expr")
    op, *args = node
    ev = lambda a: eval_expr(a, t, x, params, forcing_value, _depth + 1)
    if op == "t":
        return t
    if op == "x":
        if args:
            return x[..., int(args[0])]
        return x
    if op == "const":
        return float(args[0])
    if op == "param":
        if params is None or args[0] not in params:
            raise ConfigError(f"unknown parameter {args[0]!r}", key="params")
        return float(params[args[0]])
    if op == "forcing":
        if forcing_value is None:
            raise ConfigError("expression uses forcing but none was supplied", key="forcing")
        return forcing_value[..., int(args[0]) if args else 0]
    if op == "norm":
        return np.sqrt(np.sum(np.abs(x) ** 2, axis=-1))
    if op == "neg":
        return -ev(args[0])
    if op in ("sin", "cos", "exp", "abs"):
        return getattr(np, op if op != "abs" else "abs")(ev(args[0]))
    if op == "ln":
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.log(ev(args[0]))  # non-finite values surface at the rhs guard
    if op == "pow":
        return ev(args[0]) ** float(args[1])
    if op == "+":
        return ev(args[0]) + ev(args[1])
    if op == "-":
        return ev(args[0]) - ev(args[1])
    if op == "*":
        return ev(args[0]) * ev(args[1])
    raise ConfigError(f"unknown expression op {op!r}", key="expr")


def build_field(kind, table, key, params, expr, forcing):
    """Field f(t, x) for kind "catalog:<id>" (looked up in table) or "expr".

    Every field acts on one state x of shape (d,) or on K stacked states of
    shape (K, d), with t a scalar or one time per state, and returns an
    array of x's shape. An "expr" field evaluates one expression tree per
    component, reading ["forcing"] nodes by linear interpolation of the
    forcing signal. Errors name the config key (``rhs`` or ``map``) the
    kind came from.
    """
    if kind.startswith("catalog:"):
        cid = kind.split(":", 1)[1]
        if cid not in table:
            raise ConfigError(f"unknown {key} id {cid!r}", key=key)
        return table[cid]["builder"](params, forcing)
    if kind == "expr":
        def f(t, x):
            fv = forcing.value_at(t) if forcing is not None else None
            out = np.empty(np.shape(x)[:-1] + (len(expr),))
            for i, tree in enumerate(expr):
                out[..., i] = eval_expr(tree, t, x, params, fv)
            return out

        return f
    raise ConfigError(f"unknown {key} kind {kind!r}", key=key)


# ---------------------------------------------------------------------------
# forcing signals
# ---------------------------------------------------------------------------

def _heq1_forcing(t, amplitude=1.0):
    # the flagship drift-almost-periodic forcing: two incommensurate tones
    # whose phases creep like ln(1+t)
    return amplitude * (np.sin(t + np.log1p(t)) + np.sin(ROOT2 * t + np.log1p(ROOT2 * t)))


FORCING_CATALOG = {
    "heq1_forcing": lambda p: (lambda t: _heq1_forcing(t, p.get("amplitude", 1.0))),
    "rap_sin_log": lambda p: (lambda t: np.sin(t + np.log1p(t))),
    "sin": lambda p: (lambda t: np.sin(p.get("omega", 1.0) * t)),
    "two_tone": lambda p: (lambda t: np.sin(t) + np.sin(ROOT2 * t)),
    "remotely_stationary": lambda p: (lambda t: p.get("c", 0.5) + 1.0 / (1.0 + t)),
    "exp_decay": lambda p: (lambda t: np.exp(-t)),
    "zero": lambda p: (lambda t: np.zeros_like(t)),
    "const": lambda p: (lambda t: np.full_like(t, p.get("c", 1.0))),
    "alternating": lambda p: (lambda t: p.get("amplitude", 1.0) * np.cos(np.pi * t)),
    "chirp": lambda p: (lambda t: np.sin(p.get("rate", 0.002) * t * t)),
    "zhikov_surrogate": lambda p: (lambda t: p.get("offset", 2.0) + np.sin(t) + np.sin(ROOT2 * t)),
}


def build_forcing(fid: str, t0: float, t1: float, dt: float, params=None) -> SampledSignal:
    if fid not in FORCING_CATALOG:
        raise ConfigError(f"unknown forcing id {fid!r}", key="forcing")
    fn = FORCING_CATALOG[fid](params or {})
    return SampledSignal.from_function(fn, t0, t1, dt, label=fid)


# ---------------------------------------------------------------------------
# ODE right-hand sides f(t, x)
# ---------------------------------------------------------------------------

def check_forcing_reads(forcing, lo, hi):
    """Raise WindowOutOfDomainError unless a forcing's span holds [lo, hi]
    (to GRID_RTOL grid steps, as ``SampledSignal.value_at``); no forcing
    passes. Fields built on :func:`scalar_interp` do not check their
    reads, so each ODE and map solve checks all of them here, once."""
    if forcing is None:
        return
    if ((lo - forcing.t0) / forcing.dt < -GRID_RTOL
            or (hi - forcing.t0) / forcing.dt > len(forcing) - 1 + GRID_RTOL):
        raise WindowOutOfDomainError(
            f"the solve reads the forcing on [{lo}, {hi}], but the forcing "
            f"spans [{forcing.t0}, {forcing.t_end}]")


def scalar_interp(forcing):
    """Linear interpolation of the forcing's first column at t.

    t is a scalar or an array (one time per stacked state); integrators
    call the closure once per field evaluation. Times past either end
    extrapolate from the end cells without a warning, so the ODE and map
    solves refuse, through :func:`check_forcing_reads`, any span that
    reads past them. A scalar t gives a Python float, with the
    arithmetic of the array path.
    """
    fv = np.ascontiguousarray(forcing.values[:, 0].real)
    item = fv.item
    t0 = float(forcing.t0)
    dt = float(forcing.dt)
    top = len(fv) - 2

    def at(t):
        pos = (t - t0) / dt
        if isinstance(pos, float):   # one time: Python ints and floats are fastest
            k = int(pos)
            k = 0 if k < 0 else top if k > top else k
            fr = pos - k
            return item(k) * (1.0 - fr) + item(k + 1) * fr
        k = np.minimum(np.maximum(pos.astype(np.intp), 0), top)
        fr = pos - k
        return fv[k] * (1.0 - fr) + fv[k + 1] * fr

    return at


def _rhs_heq1(params, forcing):
    fa = scalar_interp(forcing) if forcing is not None else None

    def f(t, x):
        out = -np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True)) * x
        if fa is not None:
            out.T[0] += fa(t)   # first component of every state
        return out
    return f


def _rhs_linear_decay(params, forcing):
    rate = params.get("rate", 1.0)
    fa = scalar_interp(forcing) if forcing is not None else None

    def f(t, x):
        out = -rate * x
        if fa is not None:
            out.T[0] += fa(t)   # first component of every state
        return out
    return f


def _rhs_zero(params, forcing):
    def f(t, x):
        return np.zeros_like(x)
    return f


def _rhs_norm_decay(params, forcing):
    # pure -|x| x without forcing (Condition (H) reference field)
    def f(t, x):
        return -np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True)) * x
    return f


RHS_CATALOG = {
    "heq1": {"builder": _rhs_heq1, "doc": "x' = -|x| x + forcing (first component)"},
    "norm_decay": {"builder": _rhs_norm_decay, "doc": "x' = -|x| x"},
    "linear_decay": {"builder": _rhs_linear_decay, "doc": "x' = -rate x + forcing"},
    "zero": {"builder": _rhs_zero, "doc": "x' = 0"},
}


# ---------------------------------------------------------------------------
# discrete update maps g(t, u)
# ---------------------------------------------------------------------------

def _map_affine(params, forcing):
    a = params.get("a", 0.5)
    fa = scalar_interp(forcing) if forcing is not None else None

    def g(t, u):
        out = a * u
        if fa is not None:
            out.T[0] += fa(t)   # first component of every state
        return out
    return g


def _map_negate(params, forcing):
    def g(t, u):
        return -u
    return g


MAP_CATALOG = {
    "affine": {"builder": _map_affine, "doc": "u -> a u + forcing(t), default a=0.5"},
    "negate": {"builder": _map_negate, "doc": "u -> -u"},
}


def catalog_listing():
    """Stable listing used by the CLI `catalog` subcommand."""
    out = []
    for fid in sorted(FORCING_CATALOG):
        out.append({"id": fid, "kind": "forcing"})
    for rid in sorted(RHS_CATALOG):
        out.append({"id": rid, "kind": "rhs", "doc": RHS_CATALOG[rid]["doc"]})
    for mid in sorted(MAP_CATALOG):
        out.append({"id": mid, "kind": "map", "doc": MAP_CATALOG[mid]["doc"]})
    return out
