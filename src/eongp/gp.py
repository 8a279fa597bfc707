"""Geometric programming: posynomial modeling and an interior-point solver.

A monomial is c * prod(x_j^a_j) with c > 0; a posynomial is a sum of
monomials.  A program minimizes a posynomial subject to posynomial <= 1
constraints.  Substituting x = exp(u) turns every posynomial into
log-sum-exp(A u + b), a smooth convex function, and the program into a
standard convex one.  The compiled form keeps A and b as plain arrays,
one (term, column, exponent) per entry, and the solver below works on it
with a primal-dual interior-point method.  Each Newton matrix is assembled
as its upper triangle, in a pattern fixed when the form compiles.  A small
one (`_DENSE_MAX` rows at most) is factored by LAPACK's Cholesky, which
reads only that triangle.  A larger one is factored by SuperLU, the one
user of scipy.sparse: its fill-reducing order is computed once per form,
and each step gathers the triangle into the full matrix, already
permuted.  Both factors accept a matrix exactly when it is positive
definite.  A phase-1 stage finds a strictly feasible start or reports
the program infeasible; its slack starts 0.1 above the largest constraint
value, so a start that is nearly feasible leaves it in a few iterations.
Pinning x_j = v shifts each offset by a_j log v and drops column j's
entries, so `fix_variable` transforms a compiled form: a program compiles
once, however often it is pinned, and its solution reports each pinned
variable at its pinned value.

Contract: a solution with status "optimal" has relative KKT residual at most
1e-6 and every constraint satisfied to within 1e-8 (iterates are kept
strictly feasible, so the latter holds with margin).  Runs are deterministic
at a fixed BLAS thread count: no randomness is used anywhere, but LAPACK's
Cholesky rounds differently on several threads.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs

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
        for var, exp in self.exponents:
            if not math.isfinite(exp):
                raise GpError(f"exponent of {var} must be finite, got {exp}")

    @staticmethod
    def make(coef: float, exponents=()) -> "Monomial":
        """From (variable, exponent) pairs; repeats add, zeros drop."""
        merged: dict[str, float] = {}
        for var, exp in exponents:
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
            *(p.variables for _, p in self.constraints))
        stray = used - known
        if stray:
            raise GpError(f"undeclared variables {sorted(stray)}")


def assemble(objective: Posynomial, constraints) -> GpProgram:
    """Build a program, inferring variable order from first appearance."""
    posys = [objective] + [posy for _, posy in constraints]
    seen = dict.fromkeys(v for posy in posys for term in posy.terms
                         for v, _ in term.exponents)
    return GpProgram(objective, tuple(constraints), tuple(seen))


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
    except (ValueError, IndexError, GpError) as exc:
        raise GpError(f"line {lineno}: bad term {line!r}: {exc}") from None


def to_text(program: GpProgram) -> str:
    lines = ["gp 1", *(f"var {v}" for v in program.variables), "minimize"]
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


def _pairs(groups, size):
    """(group, first, second) entry indices of every pair first <= second
    in one group, for entries sorted by `groups`: k entries give k(k+1)/2.

    Pair r of a group is (r - b(b+1)/2, b) with b(b+1)/2 <= r < (b+1)(b+2)/2,
    so b is the floor of (sqrt(8r + 1) - 1) / 2, exact in floating point
    for any r below 2^40.
    """
    counts = np.bincount(groups, minlength=size)
    sizes = counts * (counts + 1) // 2
    group = np.repeat(np.arange(size), sizes)
    r = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    second = ((np.sqrt(8.0 * r + 1.0) - 1.0) // 2.0).astype(np.int64)
    start = (np.cumsum(counts) - counts)[group]
    return group, start + r - second * (second + 1) // 2, start + second


def _affine(entries, u):
    """A u + b of `_Entries` A and b.  Each term sums its products in
    column order from 0, as a CSR product `A @ u` does, so the floats are
    those of `A @ u + b`."""
    term, col, exp, b = entries
    return np.bincount(term, exp * u.take(col), minlength=len(b)) + b


# Newton matrices of at most this many rows are factored by dense Cholesky,
# larger ones by SuperLU in a fill-reducing order.  Timed per step on
# Cost239 psa forms and their phase-1 forms (one BLAS thread), dense was
# faster on all 26 forms of up to 325 rows (3.3x at 151, 1.14x at 325),
# the two were within 30% of each other from 340 to 387 rows, and SuperLU
# was faster on all 18 forms from 408 rows up (2.1x at 738).
_DENSE_MAX = 300


# a matrix of monomial exponents and each row's offset (see `ConvexForm`)
_Entries = namedtuple("_Entries", "term col exp b")


def _entries(terms, col) -> _Entries:
    """The entries of monomials `terms` over the column map `col`; np.unique
    sorts them, and sums the exponents of a variable repeated in a term."""
    keys, pos = np.unique(np.array(
        [r * len(col) + col[v] for r, t in enumerate(terms)
         for v, _ in t.exponents], dtype=np.int64), return_inverse=True)
    exps = [e for t in terms for _, e in t.exponents]
    term, column = np.divmod(keys, max(len(col), 1))
    return _Entries(term, column, np.bincount(pos, exps, len(keys)),
                    np.array([math.log(t.coef) for t in terms]))


class ConvexForm:
    """log-sum-exp compilation of a program over u = log x; `variables` are
    the free ones and `fixed` maps each pinned one to its value.  `obj` and
    `con` are `_Entries` of A0, b0 and of C, b: entry k is exponent exp[k]
    of column col[k] in term term[k], sorted by term and then by column;
    b[t] is term t's offset, and `ptr[i]:ptr[i + 1]` are constraint i's."""

    def __init__(self, program: GpProgram):
        self.variables = program.variables
        self.fixed: dict[str, float] = {}
        self.constraints = tuple(name for name, _ in program.constraints)
        col = {v: i for i, v in enumerate(self.variables)}
        self.obj = _entries(program.objective.terms, col)
        self.con = _entries(
            [t for _, posy in program.constraints for t in posy.terms], col)
        sizes = [len(posy.terms) for _, posy in program.constraints]
        self.ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self._compile()

    def _compile(self):
        """Fix the sizes and the sparsity patterns of J and the Newton system.

        Every entry of J = S diag(sigma) C (S sums the terms of each
        constraint) and of K = [[H_s, g0], [g0^T, 1]] (see `_hessian`) is a
        sum of weight x fixed-coefficient products.  Index arrays built here
        from `obj` and `con` say which product lands on which stored entry,
        so one bincount fills J's data or K's upper triangle.

        On both paths K's data is its upper triangle, one slot per entry
        in column-major order.  For a K of at most `_DENSE_MAX` rows,
        `_kkt_dense` holds each slot's offset in K stored densely by
        columns.  A larger K gets its symmetric fill-reducing order here:
        SuperLU's MMD computes it once, on a diagonally dominant matrix with
        K's upper-triangle pattern, and `_kkt_mirror` gathers the slots into
        K stored permuted in CSC form, P K P^T with row and column i of K at
        `_kkt_perm[i]`.
        """
        self.n, self.m = len(self.variables), len(self.constraints)
        self.seg = np.repeat(np.arange(self.m), np.diff(self.ptr))
        n, N = self.n, self.n + 1
        obj, con = self.obj, self.con
        # J: entry e of C, in term t and column j, adds to J[seg[t], j]
        keys, self._jac_pos = np.unique(self.seg[con.term] * n + con.col,
                                        return_inverse=True)
        self._jac_rows, self._jac_indices = np.divmod(keys, max(n, 1))
        # K: the term pairs of A0^T diag(sigma0) A0 and C^T diag(w) C, the
        # row pairs of J^T diag(c) J, the g0 border and the diagonal, each
        # summed once into K's upper triangle (CSC key: column * N + row)
        cols = np.concatenate((obj.col, con.col))
        exps = np.concatenate((obj.exp, con.exp))
        self._pair_term, p, q = _pairs(np.concatenate(
            (obj.term, con.term + len(obj.b))), len(obj.b) + len(con.b))
        self._pair_coef = exps[p] * exps[q]
        self._jac_pair_row, self._jac_p, self._jac_q = _pairs(
            self._jac_rows, self.m)
        self._border = np.unique(obj.col)
        diag = np.arange(N)
        i = np.concatenate((cols[p], self._jac_indices[self._jac_p],
                            self._border, diag))
        j = np.concatenate((cols[q], self._jac_indices[self._jac_q],
                            np.full(len(self._border), n), diag))
        upper = np.maximum(i, j) * N + np.minimum(i, j)
        # free the product-length temporaries before the sort and ordering
        del cols, exps, p, q, i, j
        upper, self._kkt_pos = np.unique(upper, return_inverse=True)
        # slots of K[j, j], j < n; K[n, n] = 1, and the zeros keep every
        # diagonal slot stored for shifts
        self._kkt_diag = np.searchsorted(upper, diag[:-1] * (N + 1))
        self._kkt_diag_weight = np.append(np.zeros(n), 1.0)
        if N <= _DENSE_MAX:
            # a slot's key is its offset in K stored densely by columns; the
            # SuperLU arrays are cleared, so a copy keeps none of a parent's
            self._kkt_dense = upper
            self._kkt_perm = self._kkt_order = self._kkt_mirror = None
            self._kkt_indices = self._kkt_indptr = None
            return
        self._kkt_dense = None
        col, row = np.divmod(upper, N)
        # MMD orders the pattern of A^T + A, so K's upper triangle is probe
        # enough; being diagonally dominant, it factors on its diagonal.
        # perm_c is a view that keeps the whole probe factor alive: copy it
        probe = sp.csc_matrix((np.where(row == col, float(N), -1.0), row,
                               _indptr(col, N)), shape=(N, N))
        self._kkt_perm = perm = spla.splu(
            probe, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}).perm_c.astype(np.int64)
        del probe
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
        # splu takes C ints: stored so, they are not cast on every step
        self._kkt_indices = perm[keys % N].astype(np.intc)
        self._kkt_indptr = _indptr(keys // N, N).astype(np.intc)

    def objective_eval(self, u):
        """(value, gradient, term weights) of the compiled objective."""
        z = _affine(self.obj, u)
        zmax = z.max()
        e = np.exp(z - zmax)
        total = e.sum()
        sigma = e / total
        grad = np.bincount(self.obj.col, sigma[self.obj.term] * self.obj.exp,
                           minlength=self.n)
        return zmax + math.log(total), grad, sigma

    def constraint_eval(self, u):
        """(values, term weights) of all compiled constraints."""
        if self.m == 0:
            return np.empty(0), np.empty(0)
        z = _affine(self.con, u)
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
        ext.obj = _Entries(np.zeros(1, np.int64), np.array([self.n]),
                           np.ones(1), np.zeros(1))
        # every term, one without variables too, ends in (slack, -1)
        term, col, exp, b = self.con
        ends = _indptr(term, len(b))[1:]
        ext.con = _Entries(np.insert(term, ends, np.arange(len(b))),
                           np.insert(col, ends, self.n),
                           np.insert(exp, ends, -1.0), b)
        ext._compile()
        return ext

    def _jac_data(self, sigma):
        """J's data in the compiled CSR pattern."""
        return np.bincount(self._jac_pos, sigma[self.con.term] * self.con.exp)

    def _jac_t(self, jdata, y):
        """J^T y from J's data."""
        return np.bincount(self._jac_indices, jdata * y[self._jac_rows],
                           minlength=self.n)

    def _jac_dot(self, jdata, du):
        """J du from J's data."""
        return np.bincount(self._jac_rows, jdata * du[self._jac_indices],
                           minlength=self.m)


def _compiled(program) -> ConvexForm:
    """A program's compiled form; a form is returned as it is."""
    return program if isinstance(program, ConvexForm) else ConvexForm(program)


def fix_variable(program, values: dict[str, float]) -> ConvexForm:
    """Substitute variables by constants and drop them from the compiled form.

    `values` maps variable names to positive values; a GpProgram is compiled
    first.  Each pin x_j = v adds a_j log v to every term's offset, in the
    mapping's order, so one call gives the same floats as a chain of pins.
    Constraints that become constant are checked and removed; a constant
    constraint above 1 means the fix is infeasible and raises GpError.  The
    result's `fixed` holds every pin of the chain, which `solve` reports.
    """
    form = _compiled(program)
    column = {v: i for i, v in enumerate(form.variables)}
    for name, value in values.items():
        if name not in column:
            raise GpError(f"unknown variable {name!r}")
        if not 0 < value < math.inf:
            raise GpError(f"fixed value for {name} must be positive")
    free = np.array([v not in values for v in form.variables], dtype=bool)
    renumber = np.cumsum(free) - 1

    def shift(entries):
        term, col, exp, b = entries
        b = b.copy()
        for name, value in values.items():
            hit = col == column[name]
            b[term[hit]] += exp[hit] * math.log(value)
        keep = free[col]
        return _Entries(term[keep], renumber[col[keep]], exp[keep], b)

    out = copy.copy(form)
    out.obj = shift(form.obj)
    term, col, exp, b = shift(form.con)
    live = np.bincount(form.seg[term], minlength=form.m) > 0
    for r in np.flatnonzero(~live):
        const = float(np.exp(b[form.ptr[r]:form.ptr[r + 1]]).sum())
        if const > 1.0 + 1e-9:
            pins = ", ".join(f"{n}={v:g}" for n, v in values.items())
            raise GpError(f"fixing {pins} violates {form.constraints[r]} "
                          f"({const:.9g} > 1)")
    out.variables = tuple(v for v, f in zip(form.variables, free) if f)
    out.fixed = {**form.fixed, **values}
    out.constraints = tuple(c for c, k in zip(form.constraints, live) if k)
    kept = live[form.seg]
    out.con = _Entries((np.cumsum(kept) - 1)[term], col, exp, b[kept])
    out.ptr = np.concatenate(([0], np.cumsum(np.diff(form.ptr)[live])))
    out._compile()
    return out


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GpSolution:
    """`variables` maps every variable of the original program to its value,
    a pinned one to its pinned value; it is empty when phase 1 fails.
    `iterations` counts both phases, `phase1_iterations` phase 1's share."""
    status: str
    variables: dict[str, float]
    objective: float
    duals: tuple[float, ...]
    constraint_values: tuple[float, ...]
    iterations: int
    kkt: float
    phase1_iterations: int


# gap reduction target per iteration; gentler values take more but cheaper
# iterations on programs with weakly determined coordinates
_MU = 3.0
_ARMIJO = 0.01
_BACKTRACK = 0.5
_MAX_STEP = 20.0  # cap on the infinity norm of a Newton step in log space
# a phase is optimal at this relative gap and dual residual, within the cap;
# phase 1 ends sooner, once every constraint holds with this log-space margin
_TOL = 1e-8
_PHASE1_MARGIN = 1e-6
# phase 1 starts its slack this far above the largest constraint value
_PHASE1_SLACK = 0.1
_MAX_ITERATIONS = 200


def _hessian(form: ConvexForm, sigma0, g0, lam, F, sigma, jdata):
    """Data of K = [[H_s, g0], [g0^T, 1]] in the form's compiled pattern.

    The Newton matrix is H = H_s - g0 g0^T with
    H_s = A0^T diag(sigma0) A0 + C^T diag(lam_seg sigma) C
          + J^T diag(lam (1/(-F) - 1)) J.
    Its rank-1 term is dense, so it enters K as a border instead: the Schur
    complement of K's last entry is H, so K is positive definite exactly
    when H is, and K [du; -g0^T du] = [rhs; 0] solves H du = rhs.  `jdata`
    is J's data from `form._jac_data`.  The data is K's upper triangle in
    the slot order of `ConvexForm._compile`.
    """
    weights = np.concatenate((sigma0, lam[form.seg] * sigma))
    coefs = lam * (1.0 / (-F) - 1.0)
    return np.bincount(form._kkt_pos, np.concatenate((
        weights[form._pair_term] * form._pair_coef,
        coefs[form._jac_pair_row] * jdata[form._jac_p] * jdata[form._jac_q],
        g0[form._border], form._kkt_diag_weight)))


def _shifted(form: ConvexForm, kdata, shift):
    """K's data with `shift` added to the diagonal of its H_s block."""
    out = kdata.copy()
    out[form._kkt_diag] += shift
    return out


def _factor(K):
    """SuperLU factor of a CSC K, or None unless K is positive definite.

    K is factored in its natural order with diagonal pivots, so the factor
    is accepted exactly when every pivot is positive, the test that LAPACK's
    Cholesky makes on the dense path.  The fill-reducing order is already
    in K: a compiled form stores its Newton system permuted
    (`ConvexForm._compile`).
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
    """H du = rhs by one factor of K; None unless H is positive definite.

    The one place a step branches on the form's path.  A small form
    (`_DENSE_MAX`) scatters K's upper triangle into a dense array for
    LAPACK's Cholesky; a larger one gathers it into K's permuted CSC matrix
    for `_factor`.
    """
    N = form.n + 1
    b = np.append(rhs, 0.0)
    if form._kkt_dense is not None:
        K = np.zeros(N * N)
        K[form._kkt_dense] = kdata
        c, info = dpotrf(K.reshape(N, N, order="F"), clean=0, overwrite_a=1)
        return dpotrs(c, b)[0][:-1] if info == 0 else None
    K = sp.csc_matrix((kdata[form._kkt_mirror], form._kkt_indices,
                       form._kkt_indptr), shape=(N, N))
    # no duplicates, and rows in K's order on purpose (see
    # `ConvexForm._compile`): keep splu from sorting them
    K.has_canonical_format = True
    lu = _factor(K)
    if lu is None:
        return None
    # P K P^T (P x) = P b: gather b into the order, x back out of it
    return lu.solve(b[form._kkt_order])[form._kkt_perm[:-1]]


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
    return math.sqrt((r_dual ** 2).sum() + (r_cent ** 2).sum())


def _pdipm(form: ConvexForm, u, early_stop=None):
    """Primal-dual interior point from a strictly feasible u.

    Returns (u, lam, point, status, iterations, kkt), where point is what
    `_point` gives at the final u.  `early_stop(u, F)` may end the run as
    soon as the phase-1 goal is reached.  A program without constraints
    runs the same loop with empty duals: it reduces to damped Newton on the
    objective.
    """
    m = form.m
    point = _point(form, u)
    if point is None:
        raise GpError("interior-point start is not strictly feasible")
    lam = -1.0 / point[0]
    kkt = math.inf
    resets = 2
    for it in range(1, _MAX_ITERATIONS + 1):
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
            return u, lam, point, STATUS_OPTIMAL, it, kkt
        if dual_rel <= _TOL and gap_rel <= _TOL:
            return u, lam, point, STATUS_OPTIMAL, it, kkt
        t = _MU * m / eta if m else math.inf
        rhs = -g0 - form._jac_t(jdata, 1.0 / (t * (-F)))
        du = _trust_region_step(
            form, _hessian(form, sigma0, g0, lam, F, sigma, jdata), rhs)
        if du is None:
            return u, lam, point, STATUS_NUMERICAL, it, kkt
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
                return u, lam, point, STATUS_OPTIMAL, it, kkt
            if m and resets:
                # runaway duals can poison the search direction; re-center
                # them on the current barrier and try again at this point
                resets -= 1
                lam = -1.0 / F
                continue
            return u, lam, point, STATUS_NUMERICAL, it, kkt
        if not np.isfinite(u).all():
            return u, lam, point, STATUS_NUMERICAL, it, kkt
    return u, lam, point, STATUS_MAX_ITER, _MAX_ITERATIONS, kkt


def _exp(z: float) -> float:
    return math.exp(z) if z < 709.0 else math.inf


def solve(program, x0=None) -> GpSolution:
    """Solve a geometric program, given as a GpProgram or a compiled form.

    x0 maps variable names to positive starting values; missing names start
    at 1 and names the program lacks are ignored.  Unless every constraint
    row is below -1e-9 at the start, phase 1 runs first: the `with_slack()`
    form from there, its slack 0.1 above the largest constraint value,
    until the program's constraints hold with a margin of 1e-6 in log
    space.  Each phase stops at relative gap and dual residual 1e-8 or
    after 200 iterations, whichever comes first; a phase 1 that stops at
    the gap without the margin reports the program infeasible.  The
    solution reports a pinned form's pins among its variables, and phase
    1's share of its iterations.
    """
    form = _compiled(program)
    u = np.zeros(form.n)
    for i, v in enumerate(form.variables):
        if x0 and v in x0:
            if not 0 < x0[v] < math.inf:
                raise GpError(f"start value for {v} must be positive")
            u[i] = math.log(x0[v])

    F, _ = form.constraint_eval(u)
    p1_iters = 0
    if not (F < -1e-9).all():  # an empty F is strictly feasible
        # the program's own constraint values are those of the slack form
        # plus the slack s = us[-1]
        us, _, _, status, p1_iters, _ = _pdipm(
            form.with_slack(), np.append(u, F.max() + _PHASE1_SLACK),
            early_stop=lambda us, Fs: (Fs + us[-1]).max() <= -_PHASE1_MARGIN)
        u = us[:-1]
        if float(form.constraint_eval(u)[0].max()) > -_PHASE1_MARGIN:
            # no strictly feasible point: infeasible if phase 1 converged
            # (with nonnegative slack), else phase 1's own status
            return GpSolution(
                STATUS_INFEASIBLE if status == STATUS_OPTIMAL else status, {},
                math.inf, (), (), p1_iters, math.inf, p1_iters)

    u, lam, (F, _, F0, *_), status, iters, kkt = _pdipm(form, u)
    x = {v: _exp(u[i]) for i, v in enumerate(form.variables)}
    return GpSolution(status, {**x, **form.fixed}, _exp(F0), tuple(lam),
                      tuple(np.exp(F)), p1_iters + iters, kkt, p1_iters)
