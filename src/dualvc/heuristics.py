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
integer engine covers integer-valued starts of ea/rls at any alpha and of
all four algorithms where alpha is a perfect fourth power (field degree 1,
so every step beta^q is an integer); the vector engine covers
quarter-exponent values as integer coefficient vectors, and takes a float
approximation's sign only where a rounding bound proves it.  Tests hold
both against ``run_reference``, a slow replay of the same draws over
coefficient rows in which :mod:`dualvc.oracle` decides every evaluation
from scratch: the two emit the same per-evaluation ``TransitionRecord``
stream to a hook, every value in it a coefficient row whichever engine
ran, and the tests compare those streams with ``==``.

The integer engine is kept beside the vector engine because it pays for
itself: on one trial of each of the 36 ``harness.scaling_plan`` cells
(base seed 1, 267,228 evaluations, identical rows either way) it took
2.1-3.5 us per evaluation, against 2.8-4.7 us with the same runs forced
onto the vector engine, and was faster in each of nine alternating pairs
(CPython 3.11.7, 2 vCPUs, three sets of three alternating runs; the
machine's speed drifted by about a third between sets, so compare within
a pair).

``run`` decides each proposal inline, not through one ``_decide`` call
per nonempty selection: that call cut the ``quarter`` benchmark's
``trials_per_s`` by about 20% (59.2-61.1 to 47.1-48.1) and raised its
``trial_ms_p50`` by about 70% (10.9-11.2 to 18.7-19.1 ms), in four
alternating pairs of 10 s runs at seeds 2-5 (CPython 3.11.7, 2 vCPUs).
``tests/engine_decisions.py`` mirrors the inline dispatch.

Reproducibility contract: randomness comes from ``random.Random(seed)``
(Mersenne Twister).  The stream also depends on CPython's
``random.sample``/``randrange`` internals, so it is pinned per CPython
version by the golden rows in ``perfbench/golden/``.  Per step, ea draws
one uniform for the binomial selection count, then one randrange when
that count is 1 (the one draw ``sample(range(m), 1)`` makes, as a test
pins) or one sample of that many edge ids when it is larger; rls draws
one randrange; the fifth variants draw one direction bit *before* their
selection draws.  ``run`` makes these draws inline: the direction bit is
``getrandbits(1)``, the count a bisection of the binomial CDF at
``random()``, and the one-edge randrange CPython 3.11's ``_randbelow(m)``
written out (``getrandbits(m.bit_length())`` until the value is below m).
``run_reference`` makes them through ``draw_direction``,
``draw_ea_selection`` and ``draw_rls_selection``, so the tests that
compare the two streams also check the inline draws.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, nan
from typing import Callable, NamedTuple, Optional, Sequence

from . import oracle
from .instances import DynamicInstance
from .numeric import (Alpha, canonicalize_alpha, q_max_for, sign_of_coeffs,
                      step_coeffs)

ALGORITHMS = ("ea", "rls", "ea_fifth", "rls_fifth")

#: Relative margin of the vector engine's float filter (see _VecEngine).
_FLOAT_TOL = 2.0 ** -40


# ---------------------------------------------------------------------------
# random draws of the reference replay (run() writes the same draws inline)
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
    k = bisect_right(_binomial_cdf(m), rng.random())
    return rng.sample(range(m), k)


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

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.alpha < 2:
            raise ValueError("alpha must be >= 2")
        if self.w_max >= 2 and self.alpha > self.w_max:
            raise ValueError(f"alpha={self.alpha} exceeds w_max={self.w_max}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class RunResult:
    evaluations: int
    success: bool
    final_coeffs: tuple[tuple, ...]
    accepted: int


class TransitionRecord(NamedTuple):
    """Per-evaluation hook payload; every value is a coefficient row over
    the basis of the run's alpha, whichever engine ran."""

    eval_index: int
    accepted: bool
    direction: int
    sign_before: int
    sign_after: int
    edges: tuple[int, ...]
    changed: tuple  # (edge, old row, new row) for actual changes
    changed_was_violating: tuple  # bool per changed edge, wrt pre-step state
    demoted: tuple[int, ...]


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


class _BaseEngine:
    """Incremental state shared by both engines.

    Tracks per-vertex slack signs (load vs weight), the violated-vertex
    count and the count of edges with no tight endpoint, so feasibility and
    maximality are O(1) queries.

    Each engine sets ``zero`` (which also seeds the loads),
    ``sigma_table[q]`` (the exact step beta^q) and ``step_size[q]`` (the
    step ``overloads`` adds) before calling this constructor.  It supplies
    the value operations ``_vadd``, ``_vsub``, ``vsign``, ``scale_int`` and
    ``row`` (a value as a coefficient row), and two load tests:
    ``_load_sign(v)``, the sign of load(v) - W(v), and
    ``overloads(v, extra, selection, q)``, whether
    raising every selected edge e by beta^q[e] puts v's load above W(v),
    `extra` being the sum of ``step_size[q[e]]`` over the selected edges at
    v.
    """

    __slots__ = ("graph", "m", "weights", "nbrs", "w_max", "penalty",
                 "y", "load", "slack", "nviol", "untight",
                 "zero", "sigma_table", "step_size")

    def __init__(self, graph, y_init, w_max: int) -> None:
        self.graph = graph
        self.m = graph.m
        self.weights = list(graph.weights)
        self.nbrs = [[] for _ in range(graph.n)]
        self.w_max = w_max
        self.penalty = graph.m * w_max
        self.y = list(y_init)
        self.load = [self.zero] * graph.n
        for e, (u, v) in enumerate(graph.edges):
            self.nbrs[u].append(v)
            self.nbrs[v].append(u)
            self.load[u] = self._vadd(self.load[u], self.y[e])
            self.load[v] = self._vadd(self.load[v], self.y[e])
        self.slack = [self._load_sign(v) for v in range(graph.n)]
        self.nviol = sum(1 for s in self.slack if s > 0)
        self.untight = sum(1 for u, v in graph.edges
                           if self.slack[u] and self.slack[v])

    # shared bookkeeping ---------------------------------------------------

    def sign_now(self) -> int:
        return 1 if self.nviol == 0 else -1

    def is_mfds(self) -> bool:
        return self.nviol == 0 and self.untight == 0

    def edge_violating(self, e: int) -> bool:
        u, v = self.graph.edges[e]
        return self.slack[u] > 0 or self.slack[v] > 0

    def _refresh_vertex(self, v: int) -> None:
        s_new = self._load_sign(v)
        s_old = self.slack[v]
        if s_new == s_old:
            return
        if (s_old > 0) != (s_new > 0):
            self.nviol += 1 if s_new > 0 else -1
        if (s_old == 0) != (s_new == 0):
            # v's edges to non-tight neighbours lose or gain their only
            # tight endpoint
            slack = self.slack
            free = sum(1 for x in self.nbrs[v] if slack[x])
            self.untight += -free if s_new == 0 else free
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


class _IntEngine(_BaseEngine):
    """Integer starting values whose steps stay integers, so every value
    stays a plain int: ea/rls (q = 0 mod 4, integer powers of alpha) at any
    alpha, and every algorithm at field degree 1.  ``sigma_table[q]`` is
    beta^q, or None where that step is irrational; ``step_size`` is the
    same list.  ``pad`` fills an int out to a coefficient row."""

    __slots__ = ("pad",)

    def __init__(self, graph, y_init, w_max, alpha: Alpha, q_cap) -> None:
        rows = [step_coeffs(q, alpha) for q in range(q_cap + 1)]
        self.pad = (0,) * (alpha.basis_dim - 1)
        self.zero = 0
        self.sigma_table = self.step_size = [
            None if any(row[1:]) else row[0] for row in rows]
        super().__init__(graph, [int(v) for v in y_init], w_max)

    def _vadd(self, a, b):
        return a + b

    def _vsub(self, a, b):
        return a - b

    def _load_sign(self, v: int) -> int:
        load = self.load[v]
        w = self.weights[v]
        return (load > w) - (load < w)

    def overloads(self, v: int, extra, selection, q) -> bool:
        return self.load[v] + extra > self.weights[v]

    def vsign(self, a) -> int:
        return (a > 0) - (a < 0)

    def scale_int(self, a, k: int):
        return a * k

    def row(self, v) -> tuple:
        return (v,) + self.pad


class _VecEngine(_BaseEngine):
    """Any algorithm on quarter-exponent values: a value is a tuple of
    basis_dim integer (or rational) coefficients over {1, beta, ...}.

    Load signs are filtered through floats before the exact sign is taken.
    Per vertex it keeps ``fslack`` = W(v) - load(v) and ``fmag`` = W(v) +
    sum |c_k| beta^k, both in floats; ``step_size[q]`` is beta^q in floats.
    A float sum of n rounded terms is off by less than n * 2^-52 times the
    sum of their magnitudes, so a float gap beyond ``_FLOAT_TOL`` times
    that sum (times the selection size, for the steps added in
    ``overloads``) has the sign of the exact gap.  Closer gaps, tight ones
    among them, and loads beyond the float range (NaN or inf, which fail
    both comparisons) are decided by ``sign_of_coeffs``."""

    __slots__ = ("alpha", "dim", "beta_f", "fslack", "fmag")

    def __init__(self, graph, y_init, w_max, alpha: Alpha, q_cap) -> None:
        self.alpha = alpha
        self.dim = alpha.basis_dim
        self.beta_f = [alpha.alpha ** (k / 4) for k in range(self.dim)]
        self.fslack = [nan] * graph.n
        self.fmag = [inf] * graph.n
        self.zero = (0,) * self.dim
        self.sigma_table = [step_coeffs(q, alpha) for q in range(q_cap + 1)]
        self.step_size = [self._float_of(row)[0]
                          for row in self.sigma_table]
        super().__init__(graph, [self._lift(v) for v in y_init], w_max)

    def _lift(self, v):
        if isinstance(v, tuple):
            if len(v) != self.dim:
                raise ValueError(f"value {v!r} has wrong dimension")
            return v
        return (v,) + (0,) * (self.dim - 1)

    def _vadd(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _vsub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def _slack_sign(self, load, w) -> int:
        return sign_of_coeffs((load[0] - w,) + load[1:], self.alpha)

    def _float_of(self, coeffs) -> tuple[float, float]:
        """(value, sum of |c_k| beta^k) in floats; (nan, inf) beyond the
        float range."""
        value = mag = 0.0
        try:
            for c, b in zip(coeffs, self.beta_f):
                t = c * b
                value += t
                mag += abs(t)
        except OverflowError:
            return nan, inf
        return value, mag

    def _load_sign(self, v: int) -> int:
        load = self.load[v]
        w = self.weights[v]
        value, mag = self._float_of(load)
        try:
            wf = float(w)
        except OverflowError:
            wf = inf
        gap = wf - value
        tol = (mag + wf) * _FLOAT_TOL
        self.fslack[v] = gap
        self.fmag[v] = mag + wf
        if gap > tol:
            return -1
        if gap < -tol:
            return 1
        return self._slack_sign(load, w)

    def overloads(self, v: int, extra, selection, q) -> bool:
        gap = extra - self.fslack[v]
        tol = (self.fmag[v] + extra) * _FLOAT_TOL * len(selection)
        if gap > tol:
            return True
        if gap < -tol:
            return False
        load = self.load[v]
        for e in selection:
            if v in self.graph.edges[e]:
                load = self._vadd(load, self.sigma_table[q[e]])
        return self._slack_sign(load, self.weights[v]) > 0

    def vsign(self, a) -> int:
        if all(c == 0 for c in a):
            return 0
        return sign_of_coeffs(a, self.alpha)

    def scale_int(self, a, k: int):
        return tuple(c * k for c in a)

    def row(self, v) -> tuple:
        return v


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


def _make_engine(instance: DynamicInstance, config: RunConfig):
    alpha = canonicalize_alpha(config.alpha)
    q_cap = q_max_for(alpha, config.w_max)
    integral = all(isinstance(v, int) for v in instance.y_init)
    if integral and (alpha.basis_dim == 1
                     or config.algorithm in ("ea", "rls")):
        return _IntEngine(instance.graph_star, instance.y_init,
                          config.w_max, alpha, q_cap), q_cap
    return _VecEngine(instance.graph_star, instance.y_init,
                      config.w_max, alpha, q_cap), q_cap


def _increase_one(eng, selection, q):
    """Feasible-sign increase of a one-edge selection: accepted iff neither
    endpoint gets overloaded.  Returns the deltas, or None on rejection."""
    e = selection[0]
    s = eng.step_size[q[e]]
    u, v = eng.graph.edges[e]
    if eng.overloads(u, s, selection, q) or eng.overloads(v, s, selection, q):
        return None
    return [(e, eng._vadd(eng.y[e], eng.sigma_table[q[e]]))]


def _decide_increase(eng, selection, q):
    """Feasible-sign increase of a selection of two or more edges: accepted
    iff no endpoint gets overloaded.  Returns (accept, deltas, overloaded
    endpoints), the last listing every one of them on rejection."""
    step = eng.step_size
    edges = eng.graph.edges
    add: dict = {}
    for e in selection:
        s = step[q[e]]
        u, v = edges[e]
        add[u] = add[u] + s if u in add else s
        add[v] = add[v] + s if v in add else s
    over = [w for w, extra in add.items()
            if eng.overloads(w, extra, selection, q)]
    if over:
        return False, [], over
    y = eng.y
    return True, [(e, eng._vadd(y[e], eng.sigma_table[q[e]]))
                  for e in selection], over


def _decide_decrease_infeasible(eng, selection, q):
    """Infeasible-sign decrease: gains on edges at violated vertices fight
    the m*w_max penalty on all other touched edges."""
    gain = pen = eng.zero
    deltas = []
    for e in selection:
        ycur = eng.y[e]
        if ycur == eng.zero:  # values are never negative: nothing to lower
            continue
        s = eng.sigma_table[q[e]]
        if eng.vsign(eng._vsub(ycur, s)) <= 0:
            dec, new = ycur, eng.zero  # clamped to zero
        else:
            dec, new = s, eng._vsub(ycur, s)
        if eng.edge_violating(e):
            gain = eng._vadd(gain, dec)
        else:
            pen = eng._vadd(pen, dec)
        deltas.append((e, new))
    f = eng._vsub(gain, eng.scale_int(pen, eng.penalty))
    if eng.vsign(f) >= 0:
        return True, deltas
    return False, []


def _i_prime_from(eng, selection, over):
    """Demotion set of a rejected ea increase: selected edges with an
    endpoint in `over` (the endpoints the proposal overloads), none of
    whose overloaded endpoints is shared with another selected edge."""
    touches = dict.fromkeys(over, 0)
    edges = eng.graph.edges
    for e in selection:
        u, v = edges[e]
        if u in touches:
            touches[u] += 1
        if v in touches:
            touches[v] += 1
    out = []
    for e in selection:
        u, v = edges[e]
        tu = touches.get(u)
        tv = touches.get(v)
        if (tu or tv) and tu in (None, 1) and tv in (None, 1):
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
    already be maximal) and after every accepted transition that changes a
    value.
    """
    eng, q_cap = _make_engine(instance, config)
    m = eng.m
    q = [0] * m
    rng = random.Random(config.seed)
    # the draw_* functions written out (see the module docstring)
    getrandbits = rng.getrandbits
    uniform = rng.random
    sample = rng.sample
    m_bits = m.bit_length()
    cdf = _binomial_cdf(m) if config.algorithm.startswith("ea") else None
    fifth = config.algorithm.endswith("fifth")
    budget = config.budget
    evals = 0
    accepted_n = 0
    success = eng.is_mfds()
    y = eng.y
    zero = eng.zero
    while not success and evals < budget:
        sign_before = 1 if eng.nviol == 0 else -1
        if fifth:
            d = 1 if getrandbits(1) else -1
        else:
            d = sign_before
        k = bisect_right(cdf, uniform()) if cdf else 1
        if k == 1:
            e = getrandbits(m_bits)
            while e >= m:
                e = getrandbits(m_bits)
            selection = [e]
        else:
            selection = sample(range(m), k) if k else []
        over = ()
        if not k:
            accept, deltas = True, []  # a no-op: every branch accepts it
        elif sign_before > 0:
            if d < 0:
                accept = (y[e] == zero if k == 1
                          else all(y[e] == zero for e in selection))
                deltas = []
            elif k == 1:
                deltas = _increase_one(eng, selection, q)
                accept = deltas is not None
            else:
                accept, deltas, over = _decide_increase(eng, selection, q)
        elif d > 0:
            accept, deltas = False, []
        else:
            accept, deltas = _decide_decrease_infeasible(eng, selection, q)
        evals += 1
        demoted = ()
        changed = ()
        changed_viol = ()
        if hook is not None and accept and deltas:
            row = eng.row
            changed = tuple((e, row(y[e]), row(new)) for e, new in deltas)
            changed_viol = tuple(eng.edge_violating(e)
                                 for e, _o, _n in changed)
        if accept:
            accepted_n += 1
            if deltas:
                eng.commit(deltas)
            if k == 1:
                qe = q[e] + 4
                q[e] = qe if qe < q_cap else q_cap
            else:
                for e in selection:
                    qe = q[e] + 4
                    q[e] = qe if qe < q_cap else q_cap
        elif fifth:
            if k == 1:
                if q[e]:
                    q[e] -= 1
            else:
                for e in selection:
                    if q[e]:
                        q[e] -= 1
            demoted = selection
        elif sign_before > 0:
            # one selected edge alone touches its overloaded endpoint
            if k == 1:
                qe = q[e] - 4
                q[e] = qe if qe > 0 else 0
                demoted = selection
            else:
                demoted = _i_prime_from(eng, selection, over)
                for e in demoted:
                    qe = q[e] - 4
                    q[e] = qe if qe > 0 else 0
        if hook is not None:
            hook(TransitionRecord(
                evals, accept, d, sign_before, eng.sign_now(),
                tuple(selection), changed, changed_viol, tuple(demoted)))
        # an accepted step without deltas leaves the state the last check
        # found not maximal
        if accept and deltas and eng.is_mfds():
            success = True
    return RunResult(evals, success, tuple(map(eng.row, y)), accepted_n)


# ---------------------------------------------------------------------------
# reference replay: the same draws, every evaluation decided by the oracle
# ---------------------------------------------------------------------------


def _reference_proposal(alpha: Alpha, y: list, q: list,
                        selection: Sequence[int], direction: int) -> list:
    """Coefficient rows after moving each selected edge by sigma(e) =
    alpha^(q(e)/4) in `direction`, clamped at zero."""
    proposed = list(y)
    for e in selection:
        moved = tuple(c + direction * s
                      for c, s in zip(y[e], step_coeffs(q[e], alpha)))
        if sign_of_coeffs(moved, alpha) < 0:
            moved = (0,) * alpha.basis_dim
        proposed[e] = moved
    return proposed


def _reference_step(g, config: RunConfig, y: list, sign: int, q: list,
                    selection: Sequence[int], direction: int
                    ) -> tuple[list, bool, tuple[int, ...]]:
    """One evaluation recomputed from scratch over coefficient rows.

    `sign` is y's sign (+1 feasible, -1 infeasible).  Accepts the clamped
    proposal by ``oracle.reference_fitness``.  Updates `q` in place:
    acceptance promotes the selection (q + 4, capped at q_max).  Rejection
    demotes by a quarter step (q - 1) the whole selection of a fifth
    variant, and, only while y is feasible, by a full step (q - 4) the
    single edge of rls, or those edges of ea that have a violated endpoint
    in the proposal and share none of their violated endpoints with another
    selected edge.  Floors at q = 0.
    Returns (values after the step, accepted, demoted edges).
    """
    alpha = canonicalize_alpha(config.alpha)
    proposed = _reference_proposal(alpha, y, q, selection, direction)
    fitness = oracle.reference_fitness(g, alpha, y, proposed, config.w_max)
    if fitness.accept:
        q_cap = q_max_for(alpha, config.w_max)
        for e in selection:
            q[e] = min(q[e] + 4, q_cap)
        return proposed, True, ()
    if config.algorithm.endswith("fifth"):
        demoted = tuple(selection)
        step = 1
    elif sign < 0:
        return y, False, ()
    elif config.algorithm == "rls":
        demoted = tuple(selection)
        step = 4
    else:
        slack = fitness.proposed_slack  # y is feasible here
        touches = Counter(w for e in selection for w in g.edges[e])
        out = []
        for e in selection:
            ends = [w for w in g.edges[e] if slack[w] > 0]
            if ends and all(touches[w] == 1 for w in ends):
                out.append(e)
        demoted = tuple(out)
        step = 4
    for e in demoted:
        q[e] = max(q[e] - step, 0)
    return y, False, demoted


def run_reference(instance: DynamicInstance, config: RunConfig,
                  hook: Optional[Callable[[TransitionRecord], None]] = None
                  ) -> RunResult:
    """Slow replay of run(): the same random draws, each evaluation decided
    by ``_reference_step``, with y carried as coefficient rows.  Signs,
    violating edges and maximality are read from the oracle's cover
    certificate, computed once for the start and once after each accepted
    step; a rejected step leaves y, and so its certificate, as it was.
    With a hook, every evaluation emits the TransitionRecord run() emits,
    so the two streams must be equal."""
    alpha = canonicalize_alpha(config.alpha)
    g = instance.graph_star
    y = oracle.coefficient_rows(alpha, instance.y_init)
    q = [0] * g.m
    rng = random.Random(config.seed)
    fifth = config.algorithm.endswith("fifth")
    draw = (draw_ea_selection if config.algorithm.startswith("ea")
            else draw_rls_selection)
    evals = 0
    accepted_n = 0
    cert = oracle.cover_certificate(g, alpha, y)
    success = cert.defect is None
    while not success and evals < config.budget:
        before = cert
        sign_before = 1 if before.feasible else -1
        d = draw_direction(rng) if fifth else sign_before
        selection = draw(rng, g.m)
        y_new, accepted, demoted = _reference_step(
            g, config, y, sign_before, q, selection, d)
        evals += 1
        if accepted:
            accepted_n += 1
            cert = oracle.cover_certificate(g, alpha, y_new)
            success = cert.defect is None
        if hook is not None:
            changed = tuple((e, y[e], y_new[e]) for e in selection
                            if y_new[e] != y[e])
            hook(TransitionRecord(
                evals, accepted, d, sign_before, 1 if cert.feasible else -1,
                tuple(selection), changed,
                tuple(any(before.slack[w] > 0 for w in g.edges[e])
                      for e, _o, _n in changed),
                demoted))
        y = y_new
    return RunResult(evals, success, tuple(map(tuple, y)), accepted_n)
