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
quarter-exponent values as integer coefficient vectors.  Every sign either
engine takes is exact; no float decides one.  Tests hold
both against ``run_reference``, a slow replay of the same draws over
coefficient rows in which :mod:`dualvc.oracle` decides every evaluation
from scratch: the two emit the same per-evaluation ``TransitionRecord``
stream to a hook, every value in it a coefficient row whichever engine
ran, and the tests compare those streams with ``==``.  ``run`` builds
each record as ``tuple.__new__(TransitionRecord, fields)``, which is what the
named tuple's own ``__new__`` does, without that method's Python frame: the
frame cost about 0.16 us a record on CPython 3.11, a third or more of what
handing records to a no-op hook cost per evaluation.  It reads the changed
rows only for a step it commits.

``run`` decides each proposal by the selection size k, the sign before
the step and the direction d; plain ea and rls move along the sign, so
only the fifth variants reach the second and fourth columns.  An entry
names the per-edge state of ``_BaseEngine`` or the helper that decides
it and, after a semicolon, the edges plain ea demotes by 4 on a rejection:

==== ====================== ========== =========================== ==========
k    feasible increase      feasible   infeasible decrease         infeasible
                            decrease                               increase
==== ====================== ========== =========================== ==========
0    accepted               accepted   accepted                    accepted
1    q <= lim; the edge     at_zero    at_zero, else viol          rejected
2    q <= lim of both, then at_zero of _decide_decrease_infeasible rejected
     _decide_increase; q >  both
     lim if the masks are
     disjoint, else
     _ea_demotions
>= 3 _decide_increase;      at_zero of _decide_decrease_infeasible rejected
     _ea_demotions          all
==== ====================== ========== =========================== ==========

A feasible decrease is accepted only unchanged; an infeasible one-edge
decrease unchanged at zero, else with the clamped step where ``viol`` is
set.  Acceptance raises each selected q by 4 up to q_cap.  Rejection
lowers each selected q of a fifth variant by 1; rls demotes as ea does,
and neither plain variant demotes while infeasible.  ``run`` moves every
q through the two tables ``_moves`` builds once per run, ``up[q]`` and
``down[q]``, so no exponent arithmetic sits in its loop.  Over 99% of the
benchmark's evaluations change no value, hence the per-edge state, which
``commit`` keeps.  ``run`` decides inline because one decision call per
nonempty selection slowed the ``quarter`` workload.  The integer engine
stays because the same runs on the vector engine were slower on every
``harness.scaling_plan`` cell.  The one-edge branches hold no loop over
the selection because such loops were slower.  CHANGES.md records these
measurements, and ``BENCH_21.json``, ``BENCH_23.json``, ``BENCH_24.json``
and ``BENCH_25.json`` the gains of ``fit`` and of the per-edge state.

Reproducibility contract: randomness comes from ``random.Random(seed)``
(Mersenne Twister).  The stream also depends on CPython's
``random.sample``/``randrange`` internals, so it is pinned per CPython
version by the golden rows in ``perfbench/golden/``.  Per step, ea draws
one uniform for the binomial selection count, then one randrange when
that count is 1 (the one draw ``sample(range(m), 1)`` makes, as a test
pins) or one sample of that many edge ids when it is larger; rls draws
one randrange; the fifth variants draw one direction bit *before* their
selection draws.  ``run`` makes these draws through ``getrandbits`` and
``random`` alone: the direction bit is ``getrandbits(1)``, the count a
bisection of the binomial CDF at ``random()``, the one-edge randrange
CPython 3.11's ``_randbelow(m)`` written out (``getrandbits(m.bit_length())``
until the value is below m), and a selection of two or more edges
CPython 3.11's ``sample(range(m), k)`` written out, with its pool and set
branches: inline in ``run`` for two edges, as ``_sample_range`` for more.
Tests pin ``_sample_range`` against ``random.sample`` across both
branches' boundaries, and ``run``'s two-edge draw at m = 21 (pool) and
m = 22 (set).  ``run_reference`` makes the draws
through ``draw_direction``, ``draw_ea_selection`` (which still calls
``rng.sample``) and ``draw_rls_selection``, so the tests that compare the
two streams also check the written-out draws against the library.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, log
from operator import add, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence

from . import oracle
from .instances import DynamicInstance
from .numeric import (Alpha, canonicalize_alpha, q_max_for, sign_of_coeffs,
                      step_coeffs)

ALGORITHMS = ("ea", "rls", "ea_fifth", "rls_fifth")


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
    the basis of the run's alpha, whichever engine ran.  ``run`` builds
    it with ``tuple.__new__``, which checks no arity (module docstring)."""

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

    It also keeps ``fit[v]``, the largest q <= q_cap with load(v) + beta^q
    <= W(v), or -1 when no such q exists, computed for every vertex here
    and again by ``commit`` for each touched vertex.  beta^q rises strictly
    in q, so a step of exponent q fits at v exactly when q <= fit[v], and
    a vertex's load is tested once per commit, not once per proposal.

    Per edge it keeps ``lim[e] = min(fit[u], fit[v])``, so a step of
    exponent q on e fits at both endpoints exactly when q <= lim[e];
    ``at_zero[e]``, whether y[e] is zero; ``viol[e]``, whether an endpoint
    of e is violated; and the fixed ``mask[e] = (1 << u) | (1 << v)``, so
    two edges share an endpoint exactly when their masks share a bit.  The
    module docstring's table says which of these ``run`` reads for each
    proposal.  ``commit`` refreshes the flag of each committed edge, and
    ``lim`` and ``viol`` of every edge at a touched vertex, committed or
    not, once every touched vertex's slack is new: a new load at u moves
    fit[u] and the sign of u's slack, and with them the limit and the flag
    of each edge at u.

    Each engine sets ``zero`` (which also seeds the loads) and
    ``sigma_table[q]`` (the exact step beta^q) before calling this
    constructor.  It supplies the value operations ``_vadd(a, b)``,
    ``_vsub(a, b)``, ``scale_int(a, k)`` (a times an int) and ``row(a)``
    (a as a coefficient row); ``_gap_sign(load, w)``, the exact sign of
    load - w, which with w = 0 is the sign of a value; and ``_fit(v)``,
    the ``fit`` entry of v.  Every load test is an exact sign: no float
    decides one.
    """

    __slots__ = ("graph", "m", "weights", "nbrs", "w_max", "penalty",
                 "y", "load", "slack", "nviol", "untight", "fit", "lim",
                 "at_zero", "viol", "mask", "zero", "sigma_table")

    def __init__(self, graph, y_init, w_max: int) -> None:
        self.graph = graph
        self.m = graph.m
        self.weights = list(graph.weights)
        self.nbrs = [[] for _ in range(graph.n)]  # (edge, neighbour) pairs
        self.w_max = w_max
        self.penalty = graph.m * w_max
        self.y = list(y_init)
        self.load = [self.zero] * graph.n
        for e, (u, v) in enumerate(graph.edges):
            self.nbrs[u].append((e, v))
            self.nbrs[v].append((e, u))
            self.load[u] = self._vadd(self.load[u], self.y[e])
            self.load[v] = self._vadd(self.load[v], self.y[e])
        self.slack = [self._load_sign(v) for v in range(graph.n)]
        fit = self.fit = [self._fit(v) for v in range(graph.n)]
        self.lim = [min(fit[u], fit[v]) for u, v in graph.edges]
        self.at_zero = [v == self.zero for v in self.y]
        slack = self.slack
        self.viol = [slack[u] > 0 or slack[v] > 0 for u, v in graph.edges]
        self.mask = [(1 << u) | (1 << v) for u, v in graph.edges]
        self.nviol = sum(1 for s in slack if s > 0)
        self.untight = sum(1 for u, v in graph.edges if slack[u] and slack[v])

    # shared bookkeeping ---------------------------------------------------

    def sign_now(self) -> int:
        return 1 if self.nviol == 0 else -1

    def is_mfds(self) -> bool:
        return self.nviol == 0 and self.untight == 0

    def _load_sign(self, v: int) -> int:
        return self._gap_sign(self.load[v], self.weights[v])

    def overloads(self, v: int, steps) -> bool:
        """Whether adding every step in `steps` puts v's load above W(v)."""
        load = self.load[v]
        for s in steps:
            load = self._vadd(load, s)
        return self._gap_sign(load, self.weights[v]) > 0

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
            free = sum(1 for _e, x in self.nbrs[v] if slack[x])
            self.untight += -free if s_new == 0 else free
        self.slack[v] = s_new

    def commit(self, deltas: Sequence[tuple]) -> None:
        """Apply (edge, new_value) pairs and refresh affected vertices, then
        the limit and violation flag of every edge at them."""
        touched = set()
        for e, new in deltas:
            old = self.y[e]
            self.y[e] = new
            self.at_zero[e] = new == self.zero
            u, v = self.graph.edges[e]
            change = self._vsub(new, old)
            self.load[u] = self._vadd(self.load[u], change)
            self.load[v] = self._vadd(self.load[v], change)
            touched.add(u)
            touched.add(v)
        fit = self.fit
        for v in touched:
            self._refresh_vertex(v)
            fit[v] = self._fit(v)
        lim = self.lim
        viol = self.viol
        slack = self.slack
        for v in touched:
            for e, x in self.nbrs[v]:
                lim[e] = min(fit[v], fit[x])
                viol[e] = slack[v] > 0 or slack[x] > 0


class _IntEngine(_BaseEngine):
    """Integer starting values whose steps stay integers, so every value
    stays a plain int: ea/rls (q = 0 mod 4, integer powers of alpha) at any
    alpha, and every algorithm at field degree 1.  ``sigma_table[q]`` is
    beta^q, or None where that step is irrational.  ``pad`` fills an int
    out to a coefficient row.  ``fit`` ranges over the q of the integer
    steps, the only ones a run here holds: ``int_steps`` lists those steps
    in rising order, and ``fit_q[i]`` the q of the i-th of them, with
    ``fit_q[0] = -1``, so ``fit`` is ``fit_q`` at the count of steps that
    fit in the slack."""

    __slots__ = ("pad", "int_steps", "fit_q")

    def __init__(self, graph, y_init, w_max, alpha: Alpha, q_cap) -> None:
        rows = [step_coeffs(q, alpha) for q in range(q_cap + 1)]
        self.pad = (0,) * (alpha.basis_dim - 1)
        self.zero = 0
        self.sigma_table = [None if any(row[1:]) else row[0] for row in rows]
        qs = [q for q, s in enumerate(self.sigma_table) if s is not None]
        self.int_steps = [self.sigma_table[q] for q in qs]
        self.fit_q = [-1] + qs
        super().__init__(graph, [int(v) for v in y_init], w_max)

    _vadd = staticmethod(add)
    _vsub = staticmethod(sub)
    scale_int = staticmethod(mul)

    def _gap_sign(self, load, w) -> int:
        return (load > w) - (load < w)

    def _fit(self, v: int) -> int:
        return self.fit_q[bisect_right(self.int_steps,
                                       self.weights[v] - self.load[v])]

    def row(self, v) -> tuple:
        return (v,) + self.pad


class _VecEngine(_BaseEngine):
    """Any algorithm on quarter-exponent values: a value is a tuple of
    basis_dim integer (or rational) coefficients over {1, beta, ...}.

    Every load test is one exact ``sign_of_coeffs``.  ``_fit`` starts from
    a float estimate of the slack, floor(4 log_alpha(W(v) - load(v))),
    and walks from there in exact signs: down while the step does not fit,
    then up while the next one does.  The float only picks where the walk
    starts; where it is far off, or beyond the float range, the walk is
    longer, not wrong."""

    __slots__ = ("alpha", "dim", "beta_f", "log_beta")

    def __init__(self, graph, y_init, w_max, alpha: Alpha, q_cap) -> None:
        self.alpha = alpha
        self.dim = alpha.basis_dim
        self.beta_f = [alpha.alpha ** (k / 4) for k in range(self.dim)]
        self.log_beta = log(alpha.alpha) / 4
        self.zero = (0,) * self.dim
        self.sigma_table = [step_coeffs(q, alpha) for q in range(q_cap + 1)]
        super().__init__(graph, [self._lift(v) for v in y_init], w_max)

    def _lift(self, v):
        if isinstance(v, tuple):
            if len(v) != self.dim:
                raise ValueError(f"value {v!r} has wrong dimension")
            return v
        return (v,) + (0,) * (self.dim - 1)

    def _vadd(self, a, b):
        return tuple(map(add, a, b))

    def _vsub(self, a, b):
        return tuple(map(sub, a, b))

    def _gap_sign(self, load, w) -> int:
        return sign_of_coeffs((load[0] - w,) + load[1:], self.alpha)

    def _fit(self, v: int) -> int:
        load = self.load[v]
        w = self.weights[v]
        sigma = self.sigma_table
        q_cap = len(sigma) - 1
        try:
            slack = w - sum(c * b for c, b in zip(load, self.beta_f))
            q = floor(log(slack) / self.log_beta) if slack > 0 else -1
        except OverflowError:
            q = q_cap
        q = min(max(q, -1), q_cap)
        gap_sign = self._gap_sign
        vadd = self._vadd
        while q >= 0 and gap_sign(vadd(load, sigma[q]), w) > 0:
            q -= 1
        while q < q_cap and gap_sign(vadd(load, sigma[q + 1]), w) <= 0:
            q += 1
        return q

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
                          config.w_max, alpha, q_cap)
    return _VecEngine(instance.graph_star, instance.y_init,
                      config.w_max, alpha, q_cap)


def _decide_increase(eng, selection, q):
    """Feasible-sign increase of a selection of two or more edges: accepted
    iff no endpoint gets overloaded.  Every step is positive, so the first
    edge whose q exceeds its ``lim`` settles the rejection; only when every
    step fits on its own does an endpoint that two or more selected edges
    touch sum their steps through ``overloads``.  Returns the deltas, or
    None on rejection."""
    lim = eng.lim
    for e in selection:
        if q[e] > lim[e]:
            return None
    edges = eng.graph.edges
    sigma = eng.sigma_table
    ends = [w for e in selection for w in edges[e]]
    for w in {w for w in ends if ends.count(w) > 1}:
        if eng.overloads(w, [sigma[q[e]] for e in selection if w in edges[e]]):
            return None
    return [(e, eng._vadd(eng.y[e], sigma[q[e]])) for e in selection]


def _ea_demotions(eng, selection, q):
    """Plain ea's rejected increase of two or more edges: the selected
    edges that have an overloaded endpoint and share none of their
    overloaded endpoints with another selected edge.  A q above ``lim``
    overloads an endpoint; where no endpoint is shared, that alone decides.
    At an endpoint two or more selected edges touch, ``overloads`` sums
    their steps, which covers that case too."""
    lim = eng.lim
    edges = eng.graph.edges
    ends = [w for e in selection for w in edges[e]]
    distinct = set(ends)
    if len(distinct) == len(ends):
        return [e for e in selection if q[e] > lim[e]]
    sigma = eng.sigma_table
    over = {w for w in distinct if ends.count(w) > 1 and eng.overloads(
        w, [sigma[q[e]] for e in selection if w in edges[e]])}
    demoted = []
    for e in selection:
        u, v = edges[e]
        if q[e] > lim[e] and u not in over and v not in over:
            demoted.append(e)
    return demoted


def _decide_decrease_infeasible(eng, selection, q):
    """Infeasible-sign decrease of two or more edges: gains on edges at
    violated vertices fight the m*w_max penalty on all other touched edges;
    deltas or None."""
    gain = pen = eng.zero
    deltas = []
    for e in selection:
        if eng.at_zero[e]:  # values are never negative: nothing to lower
            continue
        ycur = eng.y[e]
        s = eng.sigma_table[q[e]]
        if eng._gap_sign(eng._vsub(ycur, s), 0) <= 0:
            dec, new = ycur, eng.zero  # clamped to zero
        else:
            dec, new = s, eng._vsub(ycur, s)
        if eng.viol[e]:
            gain = eng._vadd(gain, dec)
        else:
            pen = eng._vadd(pen, dec)
        deltas.append((e, new))
    f = eng._vsub(gain, eng.scale_int(pen, eng.penalty))
    return deltas if eng._gap_sign(f, 0) >= 0 else None


def _sample_range(getrandbits, m: int, k: int) -> list[int]:
    """CPython 3.11's ``Random.sample(range(m), k)`` for k >= 2 written out
    over ``getrandbits``: the same list from the same draws.  Each index is
    ``_randbelow``'s draw (``getrandbits(n.bit_length())`` until below n),
    from a shrinking pool while m is at most ``setsize``, else redrawn
    while already taken."""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    out = []
    if m <= setsize:
        pool = list(range(m))
        for n in range(m, m - k, -1):
            bits = n.bit_length()
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[n - 1]
        return out
    bits = m.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= m or j in out:
            j = getrandbits(bits)
        out.append(j)
    return out


def _moves(q_cap: int, step: int) -> tuple[list[int], list[int]]:
    """``run``'s exponent tables over q in 0..q_cap: ``up[q]`` promotes q
    by 4 up to q_cap, ``down[q]`` demotes it by `step` down to 0.  Built
    here, since a comprehension inside ``run`` would make its locals
    cells."""
    qs = range(q_cap + 1)
    return ([min(q + 4, q_cap) for q in qs],
            [max(q - step, 0) for q in qs])


def _changes(eng, deltas):
    """The hook's (edge, old row, new row) triples of an accepted step and
    whether each edge had a violated endpoint, read before the commit."""
    row, y, viol = eng.row, eng.y, eng.viol
    changed = tuple((e, row(y[e]), row(new)) for e, new in deltas)
    return changed, tuple(viol[e] for e, _o, _n in changed)


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
    eng = _make_engine(instance, config)
    fifth = config.algorithm.endswith("fifth")
    up, down = _moves(len(eng.sigma_table) - 1, 1 if fifth else 4)
    m = eng.m
    q = [0] * m
    rng = random.Random(config.seed)
    # the draw_* functions written out (see the module docstring)
    getrandbits = rng.getrandbits
    uniform = rng.random
    m_bits = m.bit_length()
    m1 = m - 1
    m1_bits = m1.bit_length()
    # sample(range(m), 2) draws from a pool, else a set; the pool draw
    # stays inline, since quarter's E- cells run at m* = 21 (24 edges less
    # a 3-edge removal), and through _sample_range their trial_ms_tail rose
    # from 11.1-11.5 to 13.1-13.9 ms over three seeds
    pool2 = m <= 21
    cdf = _binomial_cdf(m) if config.algorithm.startswith("ea") else None
    if cdf:
        cdf0, cdf1 = (cdf + (1.0,))[:2]  # with m = 0 there is no cdf[1]
    budget = config.budget
    evals = 0
    accepted_n = 0
    success = eng.is_mfds()
    sign_before = 1 if eng.nviol == 0 else -1  # refreshed after a commit
    y = eng.y
    lim = eng.lim
    at_zero = eng.at_zero
    viol = eng.viol
    mask = eng.mask
    sigma = eng.sigma_table
    zero = eng.zero
    vadd = eng._vadd
    vsub = eng._vsub
    gap_sign = eng._gap_sign
    record = tuple.__new__  # TransitionRecord's __new__ without its frame
    # no comprehension reads these locals: it would make them cells, and
    # each read in the loop slower (rls_fifth on quarter, by about 2%)
    while not success and evals < budget:
        if fifth:
            d = 1 if getrandbits(1) else -1
        else:
            d = sign_before
        if cdf:
            r = uniform()
            if r < cdf0:
                # an empty selection changes nothing and is accepted
                evals += 1
                accepted_n += 1
                if hook is not None:
                    hook(record(TransitionRecord, (
                        evals, True, d, sign_before, sign_before,
                        (), (), (), ())))
                continue
            k = 1 if r < cdf1 else bisect_right(cdf, r)
        else:
            k = 1
        if k < 3:
            e = getrandbits(m_bits)
            while e >= m:
                e = getrandbits(m_bits)
            if k == 2:
                if pool2:
                    f = getrandbits(m1_bits)
                    while f >= m1:
                        f = getrandbits(m1_bits)
                    if f == e:
                        f = m1
                else:
                    f = getrandbits(m_bits)
                    while f >= m or f == e:
                        f = getrandbits(m_bits)
                selection = (e, f)
        else:
            selection = tuple(_sample_range(getrandbits, m, k))
        if sign_before > 0:
            if d < 0:
                # accepted only where every selected value is zero
                if k == 1:
                    unchanged = at_zero[e]
                elif k == 2:
                    unchanged = at_zero[e] and at_zero[f]
                else:
                    unchanged = all(map(at_zero.__getitem__, selection))
                deltas = () if unchanged else None
            elif k == 1:
                deltas = ([(e, vadd(y[e], sigma[q[e]]))]
                          if q[e] <= lim[e] else None)
            elif k == 2 and (q[e] > lim[e] or q[f] > lim[f]):
                deltas = None
            else:
                deltas = _decide_increase(eng, selection, q)
        elif d > 0:
            deltas = None
        elif k == 1:
            # a zero value stays; a nonzero one falls by a positive amount,
            # a gain where e has a violated endpoint, else a penalty that
            # m * w_max >= 1 weighs and nothing offsets
            if at_zero[e]:
                deltas = ()
            elif viol[e]:
                new = vsub(y[e], sigma[q[e]])
                deltas = [(e, new if gap_sign(new, 0) > 0 else zero)]
            else:
                deltas = None
        else:
            deltas = _decide_decrease_infeasible(eng, selection, q)
        accept = deltas is not None
        evals += 1
        demoted = ()
        if accept:
            accepted_n += 1
            if k == 1:
                q[e] = up[q[e]]
            else:
                for e in selection:
                    q[e] = up[q[e]]
        elif fifth or sign_before > 0:
            if k == 1:
                q[e] = down[q[e]]
                demoted = (e,)
            elif fifth:
                for e in selection:
                    q[e] = down[q[e]]
                demoted = selection
            else:
                # demote each selected edge that has an overloaded endpoint
                # and shares none of them with another selected edge
                if k == 2 and not mask[e] & mask[f]:
                    demoted = ((e,) if q[e] > lim[e] else ()) + (
                        (f,) if q[f] > lim[f] else ())
                else:
                    demoted = tuple(_ea_demotions(eng, selection, q))
                for e in demoted:
                    q[e] = down[q[e]]
        # an accepted step without deltas leaves the state, and so its
        # sign, as they were, and the last check found it not maximal
        if deltas:
            if hook is not None:
                changed, changed_viol = _changes(eng, deltas)
            eng.commit(deltas)
            sign_after = 1 if eng.nviol == 0 else -1
            if hook is not None:
                hook(record(TransitionRecord, (
                    evals, True, d, sign_before, sign_after,
                    (e,) if k == 1 else selection, changed, changed_viol,
                    ())))
            success = eng.is_mfds()
            sign_before = sign_after
        elif hook is not None:
            hook(record(TransitionRecord, (
                evals, accept, d, sign_before, sign_before,
                (e,) if k == 1 else selection, (), (), demoted)))
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
