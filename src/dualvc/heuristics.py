"""The four step-size-adaptive search heuristics over dual solutions.

All four share one propose -> evaluate -> select -> adapt loop:

* ``ea``         each edge enters the mutation set I independently with
                 probability 1/m; direction follows the current sign
                 (+1 feasible: raise values; -1 infeasible: lower them).
* ``rls``        one uniformly chosen edge; direction as above.
* ``ea_fifth``   like ``ea`` but the direction is a uniform coin, and step
                 sizes adapt by the success-rule: full promotion (x alpha)
                 on acceptance, quarter-step demotion (x alpha^(-1/4)) of
                 the whole mutation set on rejection.
* ``rls_fifth``  the single-edge analogue.

A proposal moves each selected edge by its own step size sigma(e) =
alpha^(q(e)/4), clamped at zero.  One call of the acceptance functional is
one *evaluation* — the unit every budget and result counts — and proposals
that select nothing still cost one.  Acceptance is decided exactly: the
integer engine covers ea/rls on integer-valued starts, the vector engine
covers quarter-exponent values as integer coefficient vectors; both are
mirrored by a slow reference path over RadicalValues used in tests.

Reproducibility contract: randomness comes from ``random.Random(seed)``
(Mersenne Twister).  The stream also depends on CPython's
``random.sample``/``randrange`` internals, so it is pinned per CPython
version by the golden rows in ``perfbench/golden/``.  Per step, ea draws
one uniform for the binomial selection count and (if nonzero) one sample
of that many edge ids; rls draws one randrange; the fifth variants draw
one direction bit *before* their selection draws.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Optional, Sequence

from . import dual as dual_mod
from .dual import DualSolution
from .instances import DynamicInstance
from .numeric import (Alpha, RadicalValue, canonicalize_alpha, float_value,
                      q_max_for, sign_of_coeffs, step_coeffs, step_value)

ALGORITHMS = ("ea", "rls", "ea_fifth", "rls_fifth")


# ---------------------------------------------------------------------------
# shared random draws (identical streams for engines and reference path)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _binomial_cdf(m: int) -> tuple[float, ...]:
    """P(K <= k) for K ~ Binomial(m, 1/m), exact cumulative then rounded."""
    total = Fraction(0)
    cdf = []
    for k in range(m + 1):
        total += Fraction(comb(m, k) * (m - 1) ** (m - k), m ** m)
        cdf.append(float(total))
    cdf[-1] = 1.0
    return tuple(cdf)


def draw_ea_selection(rng: random.Random, m: int) -> list[int]:
    """Mutation set of the ea variants: distributed exactly as m independent
    1/m coin flips (count first, then a uniform subset of that size)."""
    u = rng.random()
    k = bisect_right(_binomial_cdf(m), u)
    return rng.sample(range(m), k) if k else []


def draw_rls_selection(rng: random.Random, m: int) -> list[int]:
    return [rng.randrange(m)]


def draw_direction(rng: random.Random) -> int:
    return 1 if rng.getrandbits(1) else -1


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    algorithm: str
    alpha: int
    w_max: int
    budget: int
    seed: int
    checkpoint_every: int = 1024

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.alpha < 2:
            raise ValueError("alpha must be >= 2")
        if self.w_max >= 2 and self.alpha > self.w_max:
            raise ValueError(f"alpha={self.alpha} exceeds w_max={self.w_max}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class StepState:
    q: list[int]
    alpha: Alpha
    q_max: int

    @classmethod
    def fresh(cls, m: int, alpha: int, w_max: int) -> "StepState":
        a = canonicalize_alpha(alpha)
        return cls([0] * m, a, q_max_for(a, w_max))

    def sigma(self, e: int) -> RadicalValue:
        return step_value(self.q[e], self.alpha)


@dataclass
class MutationRecord:
    algorithm: str
    edges: tuple[int, ...]
    direction: int
    changes: tuple[tuple[int, RadicalValue, RadicalValue], ...]
    accepted: Optional[bool] = None
    demoted: tuple[int, ...] = ()


@dataclass(frozen=True)
class Checkpoint:
    evaluations: int
    sum_y: float
    violated: int
    q_min: int
    q_max: int


@dataclass(frozen=True)
class RunResult:
    evaluations: int
    success: bool
    final_coeffs: tuple[tuple, ...]
    trajectory: tuple[Checkpoint, ...]
    accepted: int
    final_sign: int


@dataclass(frozen=True)
class TransitionRecord:
    """Per-evaluation hook payload (engine-native values: ints or tuples)."""

    eval_index: int
    accepted: bool
    direction: int
    sign_before: int
    sign_after: int
    edges: tuple[int, ...]
    changed: tuple  # tuples (edge, old, new) for actual changes
    changed_was_violating: tuple  # bool per changed edge, wrt pre-step state
    demoted: tuple[int, ...]


# ---------------------------------------------------------------------------
# reference path: RadicalValue proposals over DualSolution
# ---------------------------------------------------------------------------


def _propose(algorithm: str, y: DualSolution, steps: StepState,
             rng: random.Random, selection: list[int],
             direction: int) -> MutationRecord:
    zero = RadicalValue.zero(y.alpha)
    changes = []
    for e in selection:
        old = y.y[e]
        moved = old + steps.sigma(e).scale(direction)
        new = moved if moved.sign() >= 0 else zero
        changes.append((e, old, new))
    return MutationRecord(algorithm, tuple(selection), direction,
                          tuple(changes))


def propose_ea(y: DualSolution, steps: StepState,
               rng: random.Random) -> MutationRecord:
    return _propose("ea", y, steps, rng,
                    draw_ea_selection(rng, y.graph.m), dual_mod.sign(y))


def propose_rls(y: DualSolution, steps: StepState,
                rng: random.Random) -> MutationRecord:
    return _propose("rls", y, steps, rng,
                    draw_rls_selection(rng, y.graph.m), dual_mod.sign(y))


def propose_ea_fifth(y: DualSolution, steps: StepState,
                     rng: random.Random) -> MutationRecord:
    d = draw_direction(rng)
    return _propose("ea_fifth", y, steps, rng,
                    draw_ea_selection(rng, y.graph.m), d)


def propose_rls_fifth(y: DualSolution, steps: StepState,
                      rng: random.Random) -> MutationRecord:
    d = draw_direction(rng)
    return _propose("rls_fifth", y, steps, rng,
                    draw_rls_selection(rng, y.graph.m), d)


PROPOSERS: dict[str, Callable] = {
    "ea": propose_ea,
    "rls": propose_rls,
    "ea_fifth": propose_ea_fifth,
    "rls_fifth": propose_rls_fifth,
}


def compute_i_prime(y: DualSolution, record: MutationRecord,
                    yp: DualSolution) -> frozenset[int]:
    """Rejected-ea demotion set: selected edges with a violated endpoint in
    the proposal, none of whose violated endpoints is shared with another
    selected edge."""
    violated = dual_mod.violating_vertices(yp)
    cnt: dict[int, int] = {}
    for e in record.edges:
        u, v = y.graph.edges[e]
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    out = []
    for e in record.edges:
        eps = [w for w in y.graph.edges[e] if w in violated]
        if eps and all(cnt[w] == 1 for w in eps):
            out.append(e)
    return frozenset(out)


def select_and_adapt(y: DualSolution, steps: StepState,
                     record: MutationRecord
                     ) -> tuple[DualSolution, StepState, bool]:
    """One evaluation of the acceptance functional plus the step-size update.

    Acceptance: values move to the proposal and every selected edge is
    promoted (q + 4, capped).  Rejection: ea demotes its shared-endpoint-free
    violating edges and rls its single edge by a full step (q - 4), but only
    while feasible; the fifth variants demote the whole selection by a
    quarter step (q - 1) unconditionally.  Floors at q = 0.
    """
    yp = y.copy()
    for e, _old, new in record.changes:
        yp.set_value(e, new)
    outcome = dual_mod.fitness(y, yp)
    if outcome.accept:
        for e in record.edges:
            steps.q[e] = min(steps.q[e] + 4, steps.q_max)
        record.accepted = True
        return yp, steps, True
    record.accepted = False
    algo = record.algorithm
    if algo == "ea":
        if dual_mod.sign(y) > 0:
            demoted = compute_i_prime(y, record, yp)
            for e in demoted:
                steps.q[e] = max(steps.q[e] - 4, 0)
            record.demoted = tuple(sorted(demoted))
    elif algo == "rls":
        if dual_mod.sign(y) > 0:
            (e,) = record.edges
            steps.q[e] = max(steps.q[e] - 4, 0)
            record.demoted = (e,)
    else:  # fifth variants: quarter-step demotion of the whole selection
        for e in record.edges:
            steps.q[e] = max(steps.q[e] - 1, 0)
        record.demoted = tuple(record.edges)
    return y, steps, False


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


class _BaseEngine:
    """Incremental state shared by both engines.

    Tracks per-vertex slack signs (load vs weight), the violated-vertex
    count, per-edge tight-endpoint counts and the count of edges with no
    tight endpoint, so feasibility and maximality are O(1) queries.
    """

    __slots__ = ("graph", "n", "m", "weights", "adj", "w_max", "penalty",
                 "y", "load", "slack", "nviol", "tight_ends", "untight")

    def __init__(self, graph, y_init, w_max: int) -> None:
        self.graph = graph
        self.n = graph.n
        self.m = graph.m
        self.weights = list(graph.weights)
        self.adj = [graph.adjacency(v) for v in range(graph.n)]
        self.w_max = w_max
        self.penalty = graph.m * w_max
        self.y = list(y_init)
        self.load = self._zero_loads()
        for e, (u, v) in enumerate(graph.edges):
            self.load[u] = self._vadd(self.load[u], self.y[e])
            self.load[v] = self._vadd(self.load[v], self.y[e])
        self.slack = [self._slack_sign(self.load[v], self.weights[v])
                      for v in range(graph.n)]
        self.nviol = sum(1 for s in self.slack if s > 0)
        self.tight_ends = [0] * graph.m
        for e, (u, v) in enumerate(graph.edges):
            self.tight_ends[e] = (self.slack[u] == 0) + (self.slack[v] == 0)
        self.untight = sum(1 for t in self.tight_ends if t == 0)

    # subclass-provided value ops ----------------------------------------

    def _zero_loads(self):
        raise NotImplementedError

    def _vadd(self, a, b):
        raise NotImplementedError

    def _slack_sign(self, load, w) -> int:
        raise NotImplementedError

    # shared bookkeeping ---------------------------------------------------

    def sign_now(self) -> int:
        return 1 if self.nviol == 0 else -1

    def is_mfds(self) -> bool:
        return self.nviol == 0 and self.untight == 0

    def edge_violating(self, e: int) -> bool:
        u, v = self.graph.edges[e]
        return self.slack[u] > 0 or self.slack[v] > 0

    def _refresh_vertex(self, v: int) -> None:
        s_new = self._slack_sign(self.load[v], self.weights[v])
        s_old = self.slack[v]
        if s_new == s_old:
            return
        if (s_old > 0) != (s_new > 0):
            self.nviol += 1 if s_new > 0 else -1
        if (s_old == 0) != (s_new == 0):
            delta = 1 if s_new == 0 else -1
            for e in self.adj[v]:
                t_old = self.tight_ends[e]
                t_new = t_old + delta
                self.tight_ends[e] = t_new
                if t_old == 0:
                    self.untight -= 1
                elif t_new == 0:
                    self.untight += 1
        self.slack[v] = s_new

    def commit(self, deltas: Sequence[tuple]) -> None:
        """Apply (edge, new_value) pairs and refresh affected vertices."""
        touched = set()
        for e, new in deltas:
            old = self.y[e]
            self.y[e] = new
            u, v = self.graph.edges[e]
            self.load[u] = self._vadd(self.load[u], self._vsub(new, old))
            self.load[v] = self._vadd(self.load[v], self._vsub(new, old))
            touched.add(u)
            touched.add(v)
        for v in touched:
            self._refresh_vertex(v)

    def _vsub(self, a, b):
        raise NotImplementedError


class _IntEngine(_BaseEngine):
    """ea/rls on integer starting values: every value stays a plain int
    (steps with q = 0 mod 4 are integer powers of alpha)."""

    __slots__ = ("pow_alpha",)

    def __init__(self, graph, y_init, w_max, alpha_int, q_cap) -> None:
        super().__init__(graph, [int(v) for v in y_init], w_max)
        self.pow_alpha = [alpha_int ** k for k in range(q_cap // 4 + 1)]

    def _zero_loads(self):
        return [0] * self.n

    def _vadd(self, a, b):
        return a + b

    def _vsub(self, a, b):
        return a - b

    def _slack_sign(self, load, w) -> int:
        return (load > w) - (load < w)

    def sigma(self, q: int):
        return self.pow_alpha[q >> 2]

    def zero_value(self):
        return 0

    def vsign(self, a) -> int:
        return (a > 0) - (a < 0)

    def scale_int(self, a, k: int):
        return a * k

    def sum_y_float(self) -> float:
        return float(sum(self.y))

    def coeff_rows(self, dim: int) -> tuple:
        pad = (0,) * (dim - 1)
        return tuple((v,) + pad for v in self.y)


class _VecEngine(_BaseEngine):
    """Any algorithm on quarter-exponent values: a value is a tuple of
    basis_dim integer (or rational) coefficients over {1, beta, ...}."""

    __slots__ = ("alpha", "dim", "sigma_table")

    def __init__(self, graph, y_init, w_max, alpha: Alpha, q_cap) -> None:
        self.alpha = alpha
        self.dim = alpha.basis_dim
        values = [self._lift(v) for v in y_init]
        super().__init__(graph, values, w_max)
        self.sigma_table = [step_coeffs(q, alpha) for q in range(q_cap + 1)]

    def _lift(self, v):
        if isinstance(v, RadicalValue):
            if v.alpha != self.alpha:
                raise ValueError(
                    f"value alpha {v.alpha!r} differs from {self.alpha!r}")
            v = v.coeffs
        if isinstance(v, tuple):
            if len(v) != self.dim:
                raise ValueError(f"value {v!r} has wrong dimension")
            return v
        return (v,) + (0,) * (self.dim - 1)

    def _zero_loads(self):
        return [(0,) * self.dim] * self.n

    def _vadd(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _vsub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def _slack_sign(self, load, w) -> int:
        return sign_of_coeffs((load[0] - w,) + load[1:], self.alpha)

    def sigma(self, q: int):
        return self.sigma_table[q]

    def zero_value(self):
        return (0,) * self.dim

    def vsign(self, a) -> int:
        if all(c == 0 for c in a):
            return 0
        return sign_of_coeffs(a, self.alpha)

    def scale_int(self, a, k: int):
        return tuple(c * k for c in a)

    def sum_y_float(self) -> float:
        total = [0] * self.dim
        for val in self.y:
            for i, c in enumerate(val):
                total[i] += c
        return float_value(RadicalValue(self.alpha, total))

    def coeff_rows(self, dim: int) -> tuple:
        assert dim == self.dim
        return tuple(tuple(v) for v in self.y)


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


def _make_engine(instance: DynamicInstance, config: RunConfig):
    alpha = canonicalize_alpha(config.alpha)
    q_cap = q_max_for(alpha, config.w_max)
    integral = all(isinstance(v, int) for v in instance.y_init)
    if config.algorithm in ("ea", "rls") and integral:
        return _IntEngine(instance.graph_star, instance.y_init,
                          config.w_max, alpha.alpha, q_cap), q_cap
    return _VecEngine(instance.graph_star, instance.y_init,
                      config.w_max, alpha, q_cap), q_cap


def _decide_increase(eng, selection, q):
    """Feasible-sign increase: accepted iff no endpoint gets overloaded.
    Returns (accept, deltas, per-vertex added load, per-vertex I-degree)."""
    add: dict = {}
    cnt: dict[int, int] = {}
    for e in selection:
        s = eng.sigma(q[e])
        u, v = eng.graph.edges[e]
        add[u] = eng._vadd(add[u], s) if u in add else s
        add[v] = eng._vadd(add[v], s) if v in add else s
        cnt[u] = cnt.get(u, 0) + 1
        cnt[v] = cnt.get(v, 0) + 1
    accept = True
    for v, extra in add.items():
        if eng._slack_sign(eng._vadd(eng.load[v], extra),
                           eng.weights[v]) > 0:
            accept = False
            break
    deltas = []
    if accept:
        for e in selection:
            deltas.append((e, eng._vadd(eng.y[e], eng.sigma(q[e]))))
    return accept, deltas, add, cnt


def _decide_decrease_infeasible(eng, selection, q):
    """Infeasible-sign decrease: gains on edges at violated vertices fight
    the m*w_max penalty on all other touched edges."""
    gain = eng.zero_value()
    pen = eng.zero_value()
    deltas = []
    for e in selection:
        ycur = eng.y[e]
        s = eng.sigma(q[e])
        if eng.vsign(eng._vsub(ycur, s)) <= 0:
            dec, new = ycur, eng.zero_value()  # clamped to zero
        else:
            dec, new = s, eng._vsub(ycur, s)
        if eng.vsign(dec) == 0:
            continue
        if eng.edge_violating(e):
            gain = eng._vadd(gain, dec)
        else:
            pen = eng._vadd(pen, dec)
        deltas.append((e, new))
    f = eng._vsub(gain, eng.scale_int(pen, eng.penalty))
    if eng.vsign(f) >= 0:
        return True, deltas
    return False, []


def _i_prime_from(eng, selection, add, cnt):
    """Engine-side mirror of compute_i_prime on a rejected increase."""
    violated = set()
    for v, extra in add.items():
        if eng._slack_sign(eng._vadd(eng.load[v], extra),
                           eng.weights[v]) > 0:
            violated.add(v)
    out = []
    for e in selection:
        eps = [w for w in eng.graph.edges[e] if w in violated]
        if eps and all(cnt[w] == 1 for w in eps):
            out.append(e)
    return out


def run(instance: DynamicInstance, config: RunConfig,
        hook: Optional[Callable[[TransitionRecord], None]] = None
        ) -> RunResult:
    """Run one heuristic on a dynamic instance until it reaches a maximal
    feasible solution or exhausts the evaluation budget.

    Deterministic: identical (instance, config) pairs replay evaluation for
    evaluation.  The maximality detector is a certificate check outside the
    evaluation count; it runs once at the start (a carried-over solution may
    already be maximal) and after every accepted transition.
    """
    eng, q_cap = _make_engine(instance, config)
    m = eng.m
    alpha = canonicalize_alpha(config.alpha)
    q = [0] * m
    rng = random.Random(config.seed)
    fifth = config.algorithm.endswith("fifth")
    ea_like = config.algorithm.startswith("ea")
    evals = 0
    accepted_n = 0
    trajectory = []

    def checkpoint():
        trajectory.append(Checkpoint(
            evals, eng.sum_y_float(), eng.nviol,
            min(q) if q else 0, max(q) if q else 0))

    success = eng.is_mfds()
    while not success and evals < config.budget and m > 0:
        if fifth:
            d = draw_direction(rng)
        else:
            d = eng.sign_now()
        selection = (draw_ea_selection(rng, m) if ea_like
                     else draw_rls_selection(rng, m))
        sign_before = eng.sign_now()
        add = cnt = None
        if sign_before > 0:
            if d > 0:
                accept, deltas, add, cnt = _decide_increase(eng, selection, q)
            else:
                accept = all(eng.vsign(eng.y[e]) == 0 for e in selection)
                deltas = []
        else:
            if d > 0:
                accept, deltas = (not selection), []
            else:
                accept, deltas = _decide_decrease_infeasible(
                    eng, selection, q)
        evals += 1
        demoted: tuple[int, ...] = ()
        changed = ()
        changed_viol = ()
        if hook is not None and accept and deltas:
            changed = tuple((e, eng.y[e], new) for e, new in deltas
                            if new != eng.y[e])
            changed_viol = tuple(eng.edge_violating(e)
                                 for e, _o, _n in changed)
        if accept:
            accepted_n += 1
            if deltas:
                eng.commit(deltas)
            for e in selection:
                qe = q[e] + 4
                q[e] = qe if qe < q_cap else q_cap
        else:
            if fifth:
                for e in selection:
                    if q[e]:
                        q[e] -= 1
                demoted = tuple(selection)
            elif sign_before > 0:
                if ea_like:
                    dem = _i_prime_from(eng, selection, add, cnt)
                else:
                    dem = selection
                for e in dem:
                    qe = q[e] - 4
                    q[e] = qe if qe > 0 else 0
                demoted = tuple(dem)
        if hook is not None:
            hook(TransitionRecord(
                evals, accept, d, sign_before, eng.sign_now(),
                tuple(selection), changed, changed_viol, demoted))
        if accept and eng.is_mfds():
            success = True
        if evals % config.checkpoint_every == 0:
            checkpoint()
    if not trajectory or trajectory[-1].evaluations != evals:
        checkpoint()
    return RunResult(evals, success, eng.coeff_rows(alpha.basis_dim),
                     tuple(trajectory), accepted_n,
                     eng.sign_now())


def run_reference(instance: DynamicInstance, config: RunConfig) -> RunResult:
    """Slow mirror of run() over DualSolution/RadicalValue state; consumes
    the random stream identically so results must match evaluation for
    evaluation."""
    alpha = canonicalize_alpha(config.alpha)
    g = instance.graph_star
    if all(isinstance(v, int) for v in instance.y_init):
        y = DualSolution.from_ints(g, alpha, instance.y_init,
                                   w_max=config.w_max)
    else:
        vals = []
        for v in instance.y_init:
            if isinstance(v, RadicalValue):
                vals.append(v)
            elif isinstance(v, tuple):
                vals.append(RadicalValue(alpha, v))
            else:
                vals.append(RadicalValue.from_rational(alpha, v))
        y = DualSolution(g, alpha, vals, w_max=config.w_max)
    steps = StepState.fresh(g.m, config.alpha, config.w_max)
    rng = random.Random(config.seed)
    propose = PROPOSERS[config.algorithm]
    evals = 0
    accepted_n = 0
    trajectory = []

    def checkpoint():
        trajectory.append(Checkpoint(
            evals, float_value(y.sum_y()),
            len(dual_mod.violating_vertices(y)),
            min(steps.q) if steps.q else 0,
            max(steps.q) if steps.q else 0))

    success = dual_mod.is_mfds(y)
    while not success and evals < config.budget and g.m > 0:
        record = propose(y, steps, rng)
        y, steps, accepted = select_and_adapt(y, steps, record)
        evals += 1
        if accepted:
            accepted_n += 1
            if dual_mod.is_mfds(y):
                success = True
        if evals % config.checkpoint_every == 0:
            checkpoint()
    if not trajectory or trajectory[-1].evaluations != evals:
        checkpoint()
    final = tuple(tuple(v.coeffs) for v in y.y)
    return RunResult(evals, success, final, tuple(trajectory), accepted_n,
                     dual_mod.sign(y))
