"""Geometric programming: posynomial modeling and an interior-point solver.

A monomial is c * prod(x_j^a_j) with c > 0; a posynomial is a sum of
monomials.  A program minimizes a posynomial subject to posynomial <= 1
constraints.  Substituting x = exp(u) turns every posynomial into
log-sum-exp(A u + b), a smooth convex function, and the program into a
standard convex one.  The solver below works on that compiled form with a
primal-dual interior-point method whose Newton systems are assembled and
factored as sparse matrices.  Their pattern, and so their fill-reducing
order, is fixed when the form compiles: the order is computed once per
form, each Newton matrix is assembled already permuted, and each step
factors it in natural order.  A phase-1 stage finds a strictly feasible
start or certifies infeasibility.

Contract: a solution with status "optimal" has relative KKT residual at most
1e-6 and every constraint satisfied to within 1e-8 (iterates are kept
strictly feasible, so the latter holds with margin).  Runs are deterministic:
no randomness is used anywhere.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max-iterations"
STATUS_NUMERICAL = "numerical-failure"


class GpError(Exception):
    """Modeling error: bad coefficient, unknown variable, malformed text."""


@dataclass(frozen=True)
class Monomial:
    """coef * prod(var^exp); exponents are kept sorted and nonzero."""
    coef: float
    exponents: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not (self.coef > 0 and math.isfinite(self.coef)):
            raise GpError(f"monomial coefficient must be positive, got {self.coef}")

    @staticmethod
    def make(coef: float, exponents=()) -> "Monomial":
        merged: dict[str, float] = {}
        items = exponents.items() if hasattr(exponents, "items") else exponents
        for var, exp in items:
            merged[var] = merged.get(var, 0.0) + float(exp)
        canon = tuple(sorted((v, e) for v, e in merged.items() if e != 0.0))
        return Monomial(float(coef), canon)

    def value(self, point) -> float:
        return self.coef * math.prod(point[v] ** e for v, e in self.exponents)


@dataclass(frozen=True)
class Posynomial:
    terms: tuple[Monomial, ...]

    def __post_init__(self):
        if not self.terms:
            raise GpError("posynomial needs at least one term")

    def value(self, point) -> float:
        return sum(t.value(point) for t in self.terms)

    @property
    def variables(self) -> set[str]:
        return {v for t in self.terms for v, _ in t.exponents}

    def __add__(self, other: "Posynomial") -> "Posynomial":
        return Posynomial(self.terms + other.terms)


@dataclass(frozen=True)
class GpProgram:
    """minimize objective subject to each constraint posynomial <= 1."""
    objective: Posynomial
    constraints: tuple[tuple[str, Posynomial], ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        known = set(self.variables)
        if len(known) != len(self.variables):
            raise GpError("duplicate variable names")
        used = self.objective.variables.union(
            *(p.variables for _, p in self.constraints)) if self.constraints \
            else self.objective.variables
        stray = used - known
        if stray:
            raise GpError(f"undeclared variables {sorted(stray)}")

    def constraint(self, name: str) -> Posynomial:
        for n, p in self.constraints:
            if n == name:
                return p
        raise GpError(f"no constraint named {name!r}")


def assemble(objective: Posynomial, constraints) -> GpProgram:
    """Build a program, inferring variable order from first appearance."""
    seen: dict[str, None] = {}
    for term in objective.terms:
        for v, _ in term.exponents:
            seen.setdefault(v)
    for _, posy in constraints:
        for term in posy.terms:
            for v, _ in term.exponents:
                seen.setdefault(v)
    return GpProgram(objective, tuple(constraints), tuple(seen))


def program_size(program: GpProgram) -> tuple[int, int]:
    """(number of variables, number of constraints) actually instantiated."""
    return len(program.variables), len(program.constraints)


def fix_variable(program: GpProgram, values: dict[str, float]) -> GpProgram:
    """Substitute variables by constants and drop them from the program.

    `values` maps variable names to positive values.  Within a term the
    pins multiply into the coefficient in the mapping's order, so one call
    gives the same floats as a chain of single pins in that order.
    Constraints that become constant are checked and removed; a constant
    constraint above 1 means the fix is infeasible and raises GpError.
    """
    for name, value in values.items():
        if name not in program.variables:
            raise GpError(f"unknown variable {name!r}")
        if not value > 0:
            raise GpError(f"fixed value for {name} must be positive")
    rank = {name: k for k, name in enumerate(values)}

    def subst(posy: Posynomial) -> Posynomial:
        out = []
        for t in posy.terms:
            coef = t.coef
            for _, v, e in sorted((rank[v], v, e) for v, e in t.exponents
                                  if v in rank):
                coef *= values[v] ** e
            out.append(Monomial(coef, tuple((v, e) for v, e in t.exponents
                                            if v not in rank)))
        return Posynomial(tuple(out))

    objective = subst(program.objective)
    constraints = []
    for cname, posy in program.constraints:
        new = subst(posy)
        if new.variables:
            constraints.append((cname, new))
        else:
            const = new.value({})
            if const > 1.0 + 1e-9:
                pins = ", ".join(f"{n}={v:g}" for n, v in values.items())
                raise GpError(f"fixing {pins} violates {cname} "
                              f"({const:.9g} > 1)")
    variables = tuple(v for v in program.variables if v not in rank)
    return GpProgram(objective, tuple(constraints), variables)


def evaluate(program: GpProgram, point) -> tuple[float, dict[str, float]]:
    """Objective and every constraint value at a positive point."""
    return (program.objective.value(point),
            {n: p.value(point) for n, p in program.constraints})


# --------------------------------------------------------------------------
# text round trip
# --------------------------------------------------------------------------

def _term_text(t: Monomial) -> str:
    parts = [repr(t.coef)] + [f"{v}^{repr(e)}" for v, e in t.exponents]
    return " ".join(parts)


def _parse_term(line: str, lineno: int) -> Monomial:
    parts = line.split()
    try:
        coef = float(parts[0])
        exps = []
        for tok in parts[1:]:
            v, _, e = tok.rpartition("^")
            exps.append((v, float(e)))
        return Monomial.make(coef, exps)
    except (ValueError, IndexError):
        raise GpError(f"line {lineno}: bad term {line!r}") from None


def to_text(program: GpProgram) -> str:
    lines = ["gp 1"]
    lines += [f"var {v}" for v in program.variables]
    lines.append("minimize")
    lines += ["  " + _term_text(t) for t in program.objective.terms]
    for name, posy in program.constraints:
        lines.append(f"st {name}")
        lines += ["  " + _term_text(t) for t in posy.terms]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> GpProgram:
    variables: list[str] = []
    objective: list[Monomial] = []
    constraints: list[tuple[str, list[Monomial]]] = []
    section = None
    lines = text.splitlines()
    if not lines or lines[0].split() != ["gp", "1"]:
        raise GpError("missing 'gp 1' header")
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "var":
            variables.append(rest.strip())
        elif head == "minimize":
            section = objective
        elif head == "st":
            constraints.append((rest.strip(), []))
            section = constraints[-1][1]
        elif section is not None:
            section.append(_parse_term(line, lineno))
        else:
            raise GpError(f"line {lineno}: unexpected {line!r}")
    return GpProgram(Posynomial(tuple(objective)),
                     tuple((n, Posynomial(tuple(ts))) for n, ts in constraints),
                     tuple(variables))


# --------------------------------------------------------------------------
# compiled log-space form
# --------------------------------------------------------------------------

def _indptr(major, size):
    """Index pointer of sorted major indices (rows of CSR, columns of CSC)."""
    return np.concatenate(([0], np.cumsum(np.bincount(major, minlength=size))))


def _pairs(indptr):
    """(group, first, second) entry indices of every pair first <= second
    within each group of an index pointer; k entries give k(k+1)/2 pairs.

    Pair r of a group is (r - b(b+1)/2, b) with b(b+1)/2 <= r < (b+1)(b+2)/2,
    so b is the floor of (sqrt(8r + 1) - 1) / 2, exact in floating point
    for any r below 2^40.
    """
    counts = np.diff(indptr).astype(np.int64)
    sizes = counts * (counts + 1) // 2
    group = np.repeat(np.arange(len(counts)), sizes)
    r = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    second = ((np.sqrt(8.0 * r + 1.0) - 1.0) // 2.0).astype(np.int64)
    start = np.asarray(indptr, dtype=np.int64)[group]
    return group, start + r - second * (second + 1) // 2, start + second


class ConvexForm:
    """log-sum-exp compilation of a program over u = log x."""

    def __init__(self, program: GpProgram):
        self.variables = program.variables
        self.n = len(self.variables)
        col = {v: i for i, v in enumerate(self.variables)}
        self.obj_A, self.obj_b = self._matrix(program.objective.terms, col)
        terms: list[Monomial] = []
        ptr = [0]
        for _, posy in program.constraints:
            terms.extend(posy.terms)
            ptr.append(len(terms))
        self.m = len(program.constraints)
        self.con_A, self.con_b = self._matrix(terms, col)
        self.ptr = np.asarray(ptr)
        self.seg = np.repeat(np.arange(self.m), np.diff(self.ptr))
        self._compile()

    def _matrix(self, terms, col):
        rows, cols, vals = [], [], []
        b = np.empty(len(terms))
        for r, t in enumerate(terms):
            b[r] = math.log(t.coef)
            for v, e in t.exponents:
                rows.append(r)
                cols.append(col[v])
                vals.append(e)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(len(terms), self.n))
        return A, b

    def _compile(self):
        """Fix the sparsity patterns of the Jacobian and the Newton system.

        Every entry of J = S diag(sigma) con_A (S sums the terms of each
        constraint) and of K = [[H_s, g0], [g0^T, 1]] (see `_hessian`) is a
        sum of weight x fixed-coefficient products.  The index arrays built
        here say which product lands on which stored entry, so each call
        fills J.data, or K's upper triangle, with one bincount.

        K's pattern is fixed here, and so is its symmetric fill-reducing
        order: SuperLU's MMD computes it once, on a diagonally dominant
        matrix with K's upper-triangle pattern, and K is stored already
        permuted, P K P^T with row and column i of K at `_kkt_perm[i]`.
        """
        n, N = self.n, self.n + 1
        C = self.con_A
        # J: entry e of con_A, in term t and column j, adds to J[seg[t], j]
        self._con_term = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
        self._obj_term = np.repeat(np.arange(self.obj_A.shape[0]),
                                   np.diff(self.obj_A.indptr))
        keys, self._jac_pos = np.unique(
            self.seg[self._con_term] * n + C.indices, return_inverse=True)
        self._jac_rows, self._jac_indices = np.divmod(keys, max(n, 1))
        self._jac_indptr = _indptr(self._jac_rows, self.m)
        # K: the term pairs of A0^T diag(sigma0) A0 and C^T diag(w) C, the
        # row pairs of J^T diag(c) J, the g0 border and the diagonal, each
        # summed once into K's upper triangle (CSC key: column * N + row)
        T = sp.vstack([self.obj_A, C]).tocsr()
        self._pair_term, p, q = _pairs(T.indptr)
        self._pair_coef = T.data[p] * T.data[q]
        self._jac_pair_row, self._jac_p, self._jac_q = _pairs(
            self._jac_indptr)
        self._border = np.unique(self.obj_A.indices)
        diag = np.arange(N)
        i = np.concatenate((T.indices[p], self._jac_indices[self._jac_p],
                            self._border, diag))
        j = np.concatenate((T.indices[q], self._jac_indices[self._jac_q],
                            np.full(len(self._border), n), diag))
        upper = np.maximum(i, j) * N + np.minimum(i, j)
        # free the product-length temporaries before the sort and ordering
        del T, p, q, i, j
        upper, self._kkt_pos = np.unique(upper, return_inverse=True)
        col, row = np.divmod(upper, N)
        # MMD orders the pattern of A^T + A, so K's upper triangle is probe
        # enough; being diagonally dominant, it factors on its diagonal.
        # perm_c is a view that keeps the whole probe factor alive: copy it
        probe = sp.csc_matrix((np.where(row == col, float(N), -1.0), row,
                               _indptr(col, N)), shape=(N, N))
        perm = spla.splu(probe, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).perm_c.astype(
                             np.int64)
        del probe
        self._kkt_perm = perm
        self._kkt_order = np.argsort(perm)
        # the full symmetric pattern, permuted: K[r, c] sits at
        # (perm[r], perm[c]); each slot reads its upper entry.  Within a
        # column the rows keep K's own order, the order in which SuperLU
        # visits them when it applies the permutation itself, so the factor
        # holds the same floats (key: permuted column * N + row of K)
        off = np.flatnonzero(row != col)
        keys = np.concatenate((perm[col] * N + row,
                               perm[row[off]] * N + col[off]))
        order = np.argsort(keys)
        keys = keys[order]
        self._kkt_mirror = np.concatenate((np.arange(len(upper)), off))[order]
        self._kkt_indices = perm[keys % N]
        self._kkt_indptr = _indptr(keys // N, N)
        # slots of K[j, j], j < n
        self._kkt_diag = np.searchsorted(keys, perm[:-1] * N + diag[:-1])
        # K[n, n] = 1; the zeros keep every diagonal slot stored for shifts
        self._kkt_diag_weight = np.append(np.zeros(n), 1.0)

    def objective_eval(self, u):
        """(value, gradient, term weights) of the compiled objective."""
        z = self.obj_A @ u + self.obj_b
        zmax = z.max()
        e = np.exp(z - zmax)
        total = e.sum()
        sigma = e / total
        grad = np.bincount(self.obj_A.indices, sigma[self._obj_term]
                           * self.obj_A.data, minlength=self.n)
        return zmax + math.log(total), grad, sigma

    def constraint_eval(self, u):
        """(values, term weights) of all compiled constraints."""
        if self.m == 0:
            return np.empty(0), np.empty(0)
        z = self.con_A @ u + self.con_b
        zmax = np.maximum.reduceat(z, self.ptr[:-1])
        e = np.exp(z - zmax[self.seg])
        sums = np.add.reduceat(e, self.ptr[:-1])
        return zmax + np.log(sums), e / sums[self.seg]

    def with_slack(self) -> "ConvexForm":
        """Phase-1 form over (u, s): minimize s subject to F_i(u) - s <= 0.

        The objective is the single monomial s, so this is an ordinary
        compiled program and runs through the same solver as phase 2.
        """
        ext = copy.copy(self)
        ext.variables = self.variables + ("<slack>",)
        ext.n = self.n + 1
        ext.obj_A = sp.csr_matrix(([1.0], ([0], [self.n])), shape=(1, ext.n))
        ext.obj_b = np.zeros(1)
        rows = self.con_A.shape[0]
        extra = sp.csr_matrix(
            (-np.ones(rows), (np.arange(rows), np.zeros(rows))),
            shape=(rows, 1))
        ext.con_A = sp.hstack([self.con_A, extra]).tocsr()
        ext._compile()
        return ext

    def jacobian(self, sigma):
        """Constraint gradients (m x n, sparse) from the term weights."""
        return sp.csr_matrix((self._jac_data(sigma), self._jac_indices,
                              self._jac_indptr), shape=(self.m, self.n))

    def _jac_data(self, sigma):
        """J's data in the compiled CSR pattern."""
        return np.bincount(self._jac_pos,
                           sigma[self._con_term] * self.con_A.data)

    def _jac_t(self, jdata, y):
        """J^T y from J's data."""
        return np.bincount(self._jac_indices, jdata * y[self._jac_rows],
                           minlength=self.n)

    def _jac_dot(self, jdata, du):
        """J du from J's data."""
        return np.bincount(self._jac_rows, jdata * du[self._jac_indices],
                           minlength=self.m)


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GpSolution:
    status: str
    variables: dict[str, float]
    objective: float
    duals: tuple[float, ...]
    constraint_values: tuple[float, ...]
    iterations: int
    kkt: float
    message: str = ""

    def value(self, name: str) -> float:
        return self.variables[name]


# gap reduction target per iteration; gentler values take more but cheaper
# iterations on programs with weakly determined coordinates
_MU = 3.0
_ARMIJO = 0.01
_BACKTRACK = 0.5
_MAX_STEP = 20.0  # cap on the infinity norm of a Newton step in log space


def _hessian(form: ConvexForm, sigma0, g0, lam, F, sigma, jdata):
    """Data of K = [[H_s, g0], [g0^T, 1]] in the form's compiled pattern.

    The Newton matrix is H = H_s - g0 g0^T with
    H_s = A0^T diag(sigma0) A0 + C^T diag(lam_seg sigma) C
          + J^T diag(lam (1/(-F) - 1)) J.
    Its rank-1 term is dense, so it enters K as a border instead: the Schur
    complement of K's last entry is H, so K is positive definite exactly
    when H is, and K [du; -g0^T du] = [rhs; 0] solves H du = rhs.  `jdata`
    is J's data from `form._jac_data`.  The pattern is the permuted one of
    `ConvexForm._compile`.
    """
    weights = np.concatenate((sigma0, lam[form.seg] * sigma))
    coefs = lam * (1.0 / (-F) - 1.0)
    upper = np.bincount(form._kkt_pos, np.concatenate((
        weights[form._pair_term] * form._pair_coef,
        coefs[form._jac_pair_row] * jdata[form._jac_p] * jdata[form._jac_q],
        g0[form._border], form._kkt_diag_weight)))
    return upper[form._kkt_mirror]


def _shifted(form: ConvexForm, kdata, shift):
    """K's data with `shift` added to the diagonal of its H_s block."""
    out = kdata.copy()
    out[form._kkt_diag] += shift
    return out


def _factor(K):
    """SuperLU factor of a symmetric CSC matrix K, or None unless K is
    positive definite.

    K is factored in its natural order with diagonal pivots, so the factor
    is accepted exactly when every pivot is positive, the test a Cholesky
    factorization makes.  The fill-reducing order is already in K: a
    compiled form stores its Newton system permuted (`ConvexForm._compile`).
    """
    try:
        lu = spla.splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    pivots = lu.U.diagonal()
    return lu if np.isfinite(pivots).all() and (pivots > 0).all() else None


def _solve_newton(form: ConvexForm, kdata, rhs):
    """H du = rhs by one factor of K; None unless H is positive definite."""
    K = sp.csc_matrix((kdata, form._kkt_indices, form._kkt_indptr),
                      shape=(form.n + 1, form.n + 1))
    # no duplicates, and rows in K's order on purpose (see
    # `ConvexForm._compile`): keep splu from sorting them
    K.has_canonical_format = True
    lu = _factor(K)
    if lu is None:
        return None
    # P K P^T (P x) = P b: gather b into the order, x back out of it
    x = lu.solve(np.append(rhs, 0.0)[form._kkt_order])
    return x[form._kkt_perm[:-1]]


def _trust_region_step(form: ConvexForm, kdata, rhs):
    """Newton step of H + nu I for the first nu of one escalating ladder.

    Far from the central path H can lose rank or definiteness.  Try nu = 0,
    then nu0 growing tenfold, and take the first positive definite H + nu I
    whose step is finite and fits a fixed log-space box; None after 41 tries.
    """
    shift = 0.0
    for _ in range(41):
        du = _solve_newton(
            form, _shifted(form, kdata, shift) if shift else kdata, rhs)
        if du is not None and np.isfinite(du).all() and \
                float(np.abs(du).max(initial=0.0)) <= _MAX_STEP:
            return du
        shift = shift * 10.0 if shift else max(
            1e-14, 1e-6 * float(np.abs(rhs).max(initial=0.0)) / _MAX_STEP)
    return None


def _point(form: ConvexForm, u):
    """(F, sigma, F0, g0, sigma0, J's data) at u, or None unless u is
    strictly feasible: all that `_pdipm` reads of a point, computed once."""
    F, sigma = form.constraint_eval(u)
    if (F >= 0).any():
        return None
    return (F, sigma, *form.objective_eval(u), form._jac_data(sigma))


def _residual_norm(r_dual, lam, F, t):
    """Euclidean norm of the dual and centering residuals."""
    r_cent = -lam * F - 1.0 / t
    return float(np.sqrt(np.sum(r_dual ** 2) + np.sum(r_cent ** 2)))


def _pdipm(form: ConvexForm, u, gap_tol, feas_tol, max_iter,
           early_stop=None):
    """Primal-dual interior point from a strictly feasible u.

    Returns (u, lam, status, iterations, kkt).  `early_stop(u, F)` may end the
    run as soon as the phase-1 goal is reached.  A program without
    constraints runs the same loop with empty duals: it reduces to damped
    Newton on the objective.
    """
    m = form.m
    point = _point(form, u)
    if point is None:
        raise GpError("interior-point start is not strictly feasible")
    lam = -1.0 / point[0]
    kkt = math.inf
    resets = 2
    for it in range(1, max_iter + 1):
        F, sigma, F0, g0, sigma0, jdata = point
        jt_lam = form._jac_t(jdata, lam)
        r_dual = g0 + jt_lam
        eta = float(-(F @ lam))
        scale = max(1.0, float(np.abs(g0).max(initial=0.0)),
                    float(np.abs(jt_lam).max(initial=0.0)))
        dual_rel = float(np.abs(r_dual).max(initial=0.0)) / scale
        gap_rel = eta / max(1.0, abs(F0))
        kkt = max(dual_rel, gap_rel)
        if early_stop is not None and early_stop(u, F):
            return u, lam, STATUS_OPTIMAL, it, kkt
        if dual_rel <= max(feas_tol, 1e-12) and gap_rel <= max(gap_tol, 1e-12):
            return u, lam, STATUS_OPTIMAL, it, kkt
        t = _MU * m / eta if m else math.inf
        rhs = -g0 - form._jac_t(jdata, 1.0 / (t * (-F)))
        du = _trust_region_step(
            form, _hessian(form, sigma0, g0, lam, F, sigma, jdata), rhs)
        if du is None:
            return u, lam, STATUS_NUMERICAL, it, kkt
        dlam = -lam - 1.0 / (t * F) - (lam / F) * form._jac_dot(jdata, du)
        step = 1.0
        neg = dlam < 0
        if neg.any():
            step = min(1.0, 0.99 * float((-lam[neg] / dlam[neg]).min()))
        base = _residual_norm(r_dual, lam, F, t)
        while step > 1e-13:
            trial_u = u + step * du
            trial_lam = lam + step * dlam
            trial = _point(form, trial_u)
            norm = math.inf if trial is None else _residual_norm(
                trial[3] + form._jac_t(trial[5], trial_lam), trial_lam,
                trial[0], t)
            if norm <= (1.0 - _ARMIJO * step) * base and norm < base:
                u, lam, point = trial_u, trial_lam, trial
                break
            step *= _BACKTRACK
        else:
            # stalled: residual cannot be reduced further in this direction
            if kkt <= 1e-6:
                return u, lam, STATUS_OPTIMAL, it, kkt
            if m and resets:
                # runaway duals can poison the search direction; re-center
                # them on the current barrier and try again at this point
                resets -= 1
                lam = -1.0 / F
                continue
            return u, lam, STATUS_NUMERICAL, it, kkt
        if not np.isfinite(u).all():
            return u, lam, STATUS_NUMERICAL, it, kkt
    return u, lam, STATUS_MAX_ITER, max_iter, kkt


def _solve_phase1(form: ConvexForm, u0, feas_tol, max_iter):
    """Find a strictly feasible point or certify infeasibility."""
    F, _ = form.constraint_eval(u0)
    if (F < -1e-9).all():  # also when there are no constraints
        return u0, STATUS_OPTIMAL, 0
    u = np.append(u0, F.max() + 1.0)

    def reached(uu, Fext):
        # constraint values of the original program are F_ext + s
        return float((Fext + uu[-1]).max()) <= -1e-6

    u, _, status, iters, _ = _pdipm(form.with_slack(), u, gap_tol=1e-9,
                                    feas_tol=feas_tol, max_iter=max_iter,
                                    early_stop=reached)
    F, _ = form.constraint_eval(u[:-1])
    if float(F.max()) <= -1e-6:
        return u[:-1], STATUS_OPTIMAL, iters
    if status == STATUS_OPTIMAL:
        # converged with nonnegative slack: no strictly feasible point
        return u[:-1], STATUS_INFEASIBLE, iters
    return u[:-1], status, iters


def solve(program: GpProgram, x0=None, *, gap_tol: float = 1e-8,
          feas_tol: float = 1e-8, max_iterations: int = 200) -> GpSolution:
    """Solve a geometric program.

    x0 maps variable names to positive starting values; missing names start
    at 1 and names the program lacks are ignored.  A strictly feasible
    start skips phase 1.
    """
    form = ConvexForm(program)
    u0 = np.zeros(form.n)
    if x0:
        for i, v in enumerate(form.variables):
            if v in x0:
                if not x0[v] > 0:
                    raise GpError(f"start value for {v} must be positive")
                u0[i] = math.log(x0[v])

    u0, p1_status, p1_iters = _solve_phase1(form, u0, feas_tol,
                                            max_iterations)
    if p1_status == STATUS_INFEASIBLE:
        return GpSolution(STATUS_INFEASIBLE, {}, math.inf, (), (), p1_iters,
                          math.inf, "phase 1 found no strictly feasible point")
    if p1_status != STATUS_OPTIMAL:
        return GpSolution(p1_status, {}, math.inf, (), (), p1_iters,
                          math.inf, "phase 1 did not converge")

    u, lam, status, iters, kkt = _pdipm(form, u0, gap_tol, feas_tol,
                                        max_iterations)
    x = {v: math.exp(u[i]) if u[i] < 709.0 else math.inf
         for i, v in enumerate(form.variables)}
    objective, con_vals = evaluate(program, x)
    return GpSolution(status, x, objective, tuple(lam),
                      tuple(con_vals.values()), p1_iters + iters, kkt)
