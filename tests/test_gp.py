import copy
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from eongp import gp, psa
from eongp.gp import (
    ConvexForm, GpError, GpProgram, GpSolution, Monomial, Posynomial, assemble,
    fix_variable, from_text, solve, to_text,
)
from eongp.model import load_instance, partition_traffic
from eongp.routing import solve_routing


def mono(coef, **kw):
    # keyword helper for tests with simple variable names
    return Monomial.make(coef, kw.items())


def posy(*terms):
    return Posynomial(tuple(terms))


# ---------------------------------------------------------------- modeling

def test_monomial_canonical_form():
    m = Monomial.make(2.0, [("y", 1.0), ("x", 2.0), ("y", -1.0)])
    assert m.exponents == (("x", 2.0),)
    assert m.value({"x": 3.0}) == 18.0
    with pytest.raises(GpError):
        Monomial.make(-1.0, [("x", 1.0)])
    with pytest.raises(GpError):
        Monomial.make(0.0, [])
    with pytest.raises(GpError):
        Posynomial(())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["exponent", "start", "pin"])
def test_non_finite_input_is_rejected(entry, bad):
    # an exponent, a start value or a pin that is not finite would reach
    # the offsets or the start as NaN or infinity
    program = from_text("gp 1\nvar x\nvar y\nminimize\n  1 x^-1\n  1 y^1\n"
                        "st cap\n  0.5 x^1 y^-1\n")
    with pytest.raises(GpError):
        if entry == "exponent":
            from_text(f"gp 1\nvar x\nminimize\n  1 x^-1\n"
                      f"st cap\n  0.5 x^{bad!r}\n")
        elif entry == "start":
            solve(program, {"x": bad})
        else:
            fix_variable(program, {"x": bad})


def test_program_validation():
    obj = posy(mono(1.0, x=1.0))
    with pytest.raises(GpError):
        GpProgram(obj, (), ("x", "x"))
    with pytest.raises(GpError):
        GpProgram(obj, (), ("y",))
    prog = assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("cap", posy(mono(1.0, z=-1.0)))])
    assert prog.variables == ("x", "y", "z")
    assert (len(prog.variables), len(prog.constraints)) == (3, 1)
    assert dict(prog.constraints)["cap"].terms[0].exponents == \
        (("z", -1.0),)


# ---------------------------------------------------------------- solving

def am_gm_program():
    # min x + y  s.t.  1/(x*y) <= 1; optimum 2 at x = y = 1
    return assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("prod", posy(mono(1.0, x=-1.0, y=-1.0)))])


def test_am_gm_minimum():
    sol = solve(am_gm_program())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert sol.variables["x"] == pytest.approx(1.0, abs=1e-5)
    assert sol.variables["y"] == pytest.approx(1.0, abs=1e-5)
    assert sol.kkt <= 1e-6
    assert all(v <= 1 + 1e-8 for v in sol.constraint_values)
    assert all(l >= 0 for l in sol.duals)
    assert sol.duals[0] > 0.1  # the product floor is active


def test_weighted_am_gm_analytic():
    # min x + 2y s.t. xy >= 6: optimum x = 2*sqrt(3), y = sqrt(3)
    prog = assemble(posy(mono(1.0, x=1.0), mono(2.0, y=1.0)),
                    [("prod", posy(mono(6.0, x=-1.0, y=-1.0)))])
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-6)
    assert sol.variables["x"] == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-5)


def test_asymmetric_against_grid_search():
    # min 3x + y s.t. x*y^2 >= 2
    prog = assemble(posy(mono(3.0, x=1.0), mono(1.0, y=1.0)),
                    [("c", posy(mono(2.0, x=-1.0, y=-2.0)))])
    sol = solve(prog)
    y_star = 12.0 ** (1.0 / 3.0)
    want = 6.0 * 12.0 ** (-2.0 / 3.0) + y_star
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(want, rel=1e-6)
    # coarse log-grid search cannot beat the reported optimum
    xs = np.exp(np.linspace(-4, 4, 300))
    ys = np.exp(np.linspace(-4, 4, 300))
    X, Y = np.meshgrid(xs, ys)
    feas = X * Y ** 2 >= 2.0
    best = (3 * X + Y)[feas].min()
    assert sol.objective <= best + 1e-9
    assert sol.objective == pytest.approx(best, rel=5e-2)


def test_unconstrained_newton():
    # min x + 4/x: optimum 4 at x = 2
    prog = assemble(posy(mono(1.0, x=1.0), mono(4.0, x=-1.0)), [])
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(4.0, rel=1e-8)
    assert sol.variables["x"] == pytest.approx(2.0, rel=1e-6)


def test_infeasible_program():
    # x <= 1 and x >= 2 cannot hold together
    prog = assemble(posy(mono(1.0, x=1.0)),
                    [("hi", posy(mono(1.0, x=1.0))),
                     ("lo", posy(mono(2.0, x=-1.0)))])
    sol = solve(prog)
    assert sol.status == "infeasible"
    assert sol.objective == math.inf


def test_empty_interior_reported_infeasible():
    # x <= 1 and x >= 1 pin x exactly: no strict interior to work in
    prog = assemble(posy(mono(1.0, x=1.0)),
                    [("hi", posy(mono(1.0, x=1.0))),
                     ("lo", posy(mono(1.0, x=-1.0)))])
    assert solve(prog).status == "infeasible"


def test_iteration_budget(monkeypatch):
    monkeypatch.setattr(gp, "_MAX_ITERATIONS", 1)
    sol = solve(am_gm_program())
    assert sol.status != "optimal"


def test_warm_start_and_bad_start():
    prog = am_gm_program()
    warm = solve(prog, {"x": 3.0, "y": 3.0})  # strictly feasible start
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(2.0, abs=1e-6)
    cold = solve(prog, {"x": 10.0, "y": 0.01})  # infeasible start: phase 1
    assert cold.status == "optimal"
    assert cold.objective == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(GpError):
        solve(prog, {"x": -1.0})


def test_phase1_iterations_are_counted_within_the_total():
    prog = am_gm_program()
    assert solve(prog, {"x": 3.0, "y": 3.0}).phase1_iterations == 0
    cold = solve(prog, {"x": 10.0, "y": 0.01})
    assert 0 < cold.phase1_iterations < cold.iterations
    # x <= 1 and x >= 2: phase 1 fails and is the whole run
    bad = solve(assemble(posy(mono(1.0, x=1.0)),
                         [("hi", posy(mono(1.0, x=1.0))),
                          ("lo", posy(mono(2.0, x=-1.0)))]))
    assert bad.status == "infeasible"
    assert bad.phase1_iterations == bad.iterations > 0


@pytest.fixture
def no_trial_accepted(monkeypatch):
    # every residual reads infinite, so each line search runs out of steps
    # and `_pdipm` takes its stall branch
    monkeypatch.setattr(gp, "_residual_norm", lambda *args: math.inf)


def test_stall_at_a_converged_start_is_optimal(no_trial_accepted,
                                               monkeypatch):
    # min x + 4/x from x = 2 e^1e-8: the KKT residual is about 1e-8, above
    # the zero tolerances yet within the 1e-6 that a stall accepts
    monkeypatch.setattr(gp, "_TOL", 0.0)
    start = 2.0 * math.exp(1e-8)
    sol = solve(assemble(posy(mono(1.0, x=1.0), mono(4.0, x=-1.0)), []),
                {"x": start})
    assert sol.status == "optimal"
    assert sol.iterations == 1
    assert 1e-12 < sol.kkt <= 1e-6
    assert sol.variables["x"] == math.exp(math.log(start))


def test_stall_recenters_the_duals_twice_then_fails(no_trial_accepted):
    # at a strictly feasible start the gap residual is far above 1e-6: each
    # of two stalls re-centers the duals and retries at the same point, and
    # the third gives up
    start = {"x": 3.0, "y": 3.0}
    sol = solve(am_gm_program(), start)
    assert sol.status == "numerical-failure"
    assert sol.iterations == 3
    assert sol.kkt > 1e-6
    assert sol.variables == pytest.approx(start, rel=1e-15)
    assert sol.duals == pytest.approx((1.0 / math.log(9.0),), rel=1e-15)
    # without constraints there are no duals to re-center
    unconstrained = solve(assemble(posy(mono(1.0, x=1.0),
                                        mono(4.0, x=-1.0)), []), {"x": 3.0})
    assert unconstrained.status == "numerical-failure"
    assert unconstrained.iterations == 1


def test_tightening_constraint_raises_optimum():
    values = []
    for floor in (4.0, 9.0):
        prog = assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                        [("prod", posy(mono(floor, x=-1.0, y=-1.0)))])
        sol = solve(prog)
        assert sol.status == "optimal"
        values.append(sol.objective)
    assert values[0] == pytest.approx(4.0, rel=1e-6)
    assert values[1] == pytest.approx(6.0, rel=1e-6)


@pytest.fixture(scope="module")
def cost239_routing(data_dir):
    # 24 Cost239 requests on shortest paths
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = partition_traffic(inst.demands, 100e9, 24, seed=0)
    return inst, solve_routing(inst.topology, requests, "spr",
                               span_km=inst.physics.span_km)


@pytest.fixture(scope="module")
def cost239_program(cost239_routing):
    # 116 variables, 178 rows
    inst, routing = cost239_routing
    return psa.build_program(routing, inst.physics, inst.scenario)


@pytest.fixture(scope="module")
def cost239_forms(cost239_routing):
    # the six formulations, each also as its phase-1 form, with the dense
    # reference matrices of each
    inst, routing = cost239_routing
    forms = []
    for f in sorted(psa.FORMULATION_FIT):
        program = psa.build_program(
            routing, inst.physics, replace(inst.scenario, formulation=f))
        form = ConvexForm(program)
        forms += [(form, dense_reference(program)),
                  (form.with_slack(), dense_reference(program, slack=True))]
    return forms


def test_solver_is_deterministic(cost239_program):
    # the psa program exceeds 100 variables, so the fill-reducing ordering
    # of the sparse Newton step has real work to do
    assert len(cost239_program.variables) > 100
    for prog in (am_gm_program(), cost239_program):
        one, two = solve(prog), solve(prog)
        assert one.status == "optimal"
        assert one == two  # every float, bit for bit


@settings(deadline=None, derandomize=True)
@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0),
       alpha=st.floats(0.25, 3.0), beta=st.floats(0.25, 3.0),
       lo_exp=st.floats(-2.0, 2.0), width_exp=st.floats(0.05, 3.0),
       feasible=st.booleans())
def test_one_variable_program_against_closed_form(a, b, alpha, beta, lo_exp,
                                                  width_exp, feasible):
    # min a x^alpha + b x^-beta  s.t.  x/hi <= 1, lo/x <= 1
    lo = 10.0 ** lo_exp
    hi = lo * 10.0 ** width_exp if feasible else lo / 10.0 ** width_exp
    prog = assemble(posy(mono(a, x=alpha), mono(b, x=-beta)),
                    [("hi", posy(mono(1.0 / hi, x=1.0))),
                     ("lo", posy(mono(lo, x=-1.0)))])
    sol = solve(prog)
    if not feasible:  # lo >= 1.1 hi
        assert sol.status == "infeasible"
        return
    free = (b * beta / (a * alpha)) ** (1.0 / (alpha + beta))
    best = min(max(free, lo), hi)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(a * best ** alpha
                                          + b * best ** -beta, rel=1e-6)
    # x itself is accurate to 1e-6 only away from the bounds: with the free
    # optimum within a few percent of a bound the multiplier is near zero
    # and the iterates converge in x like sqrt(gap), up to 4e-4 relative
    if min(abs(math.log(free / lo)), abs(math.log(free / hi))) >= 0.1:
        assert sol.variables["x"] == pytest.approx(best, rel=1e-6)


@pytest.mark.parametrize("program, status, objective", [
    (fix_variable(assemble(posy(mono(1.0, x=1.0), mono(3.0)), []),
                  {"x": 2.0}), "optimal", 5.0),
    (from_text("gp 1\nminimize\n  2.0\nst c\n  0.5\n"), "optimal", 2.0),
    (from_text("gp 1\nminimize\n  2.0\nst c\n  1.5\n"), "infeasible",
     math.inf),
], ids=["last-variable-pinned", "constant-row-met", "constant-row-violated"])
def test_program_without_variables(program, status, objective):
    sol = solve(program)
    assert sol.status == status
    assert sol.objective == pytest.approx(objective)


# ---------------------------------------------------------------- gradients

def dense_reference(program, pins=None, slack=False):
    """(A0, b0, C, b, ptr) of `program`, built densely from its posynomials
    without the compiled form.  `pins` are substituted: each adds a_j log v
    to the offsets, in the mapping's order, its column is dropped and so is
    every constraint left without a free variable.  `slack` gives the
    phase-1 program: objective s, and a -1 entry for s in every
    constraint term."""
    pins = {} if pins is None else pins
    free = [v for v in program.variables if v not in pins]
    col = {v: j for j, v in enumerate(free)}

    def matrix(terms):
        A = np.zeros((len(terms), len(free)))
        b = np.empty(len(terms))
        for t, term in enumerate(terms):
            exps = dict(term.exponents)
            b[t] = math.log(term.coef)
            for name, value in pins.items():
                if name in exps:
                    b[t] += exps[name] * math.log(value)
            for v, e in exps.items():
                if v in col:
                    A[t, col[v]] = e
        return A, b

    rows = [posy for _, posy in program.constraints
            if not pins or posy.variables - set(pins)]
    A0, b0 = matrix(program.objective.terms)
    C, b = matrix([term for posy in rows for term in posy.terms])
    if slack:
        A0, b0 = np.eye(len(free) + 1)[-1:], np.zeros(1)
        C = np.hstack((C, -np.ones((len(C), 1))))
    ptr = np.cumsum([0] + [len(posy.terms) for posy in rows])
    return A0, b0, C, b, ptr


def assert_entries_are(entries, A, b):
    """`entries` hold exactly the nonzeros of A, in (term, column) order,
    and the offsets b."""
    term, col, exp, offsets = entries
    rows, cols = np.nonzero(A)
    assert np.array_equal(term, rows) and np.array_equal(col, cols)
    assert np.array_equal(exp, A[rows, cols])
    assert np.array_equal(offsets, b)


def jacobian(form, sigma):
    """J as a csr_matrix, from `_jac_data` and the compiled pattern."""
    return sp.csr_matrix((form._jac_data(sigma),
                          (form._jac_rows, form._jac_indices)),
                         shape=(form.m, form.n))


def constant_term_program():
    """A random program with a second constraint whose middle term is a
    constant, a term without entries."""
    prog = random_program(np.random.default_rng(3))
    row = posy(mono(0.25, v1=1.0), mono(0.5), mono(0.125, v0=2.0, v3=-1.0))
    return GpProgram(prog.objective, prog.constraints + (("k", row),),
                     prog.variables)


@pytest.mark.parametrize("case", ["constant term", "psa", "pinned",
                                  "phase 1"])
def test_entries_match_the_dense_reference(cost239_program, case):
    # the compiled form's entry arrays against A0, C and the offsets built
    # from the posynomials: pinning drops columns and dead rows and shifts
    # offsets, and the phase-1 form adds s to every term, constants too
    program = cost239_program if case in ("psa", "pinned") else \
        constant_term_program()
    pins = {psa.c_var(0): 4.0, psa.c_var(5): 8.0} if case == "pinned" \
        else None
    form = ConvexForm(program)
    if pins:
        form = fix_variable(form, pins)
        assert form.m < len(program.constraints)
    if case == "phase 1":
        form = form.with_slack()
    A0, b0, C, b, ptr = dense_reference(program, pins, case == "phase 1")
    assert_entries_are(form.obj, A0, b0)
    assert_entries_are(form.con, C, b)
    assert np.array_equal(form.ptr, ptr)


def random_program(rng, n_vars=4, n_terms=3):
    names = [f"v{i}" for i in range(n_vars)]
    terms = []
    for _ in range(n_terms):
        exps = [(v, float(rng.uniform(-2, 2))) for v in names
                if rng.random() < 0.7]
        terms.append(Monomial.make(float(np.exp(rng.normal())), exps))
    obj = posy(mono(1.0, **{names[0]: 1.0}))
    return GpProgram(obj, (("c", Posynomial(tuple(terms))),), tuple(names))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(which=st.integers(0, 11), scale=st.floats(0.01, 30.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_point_evaluation_forms_the_sparse_products(cost239_forms, which,
                                                    scale, seed):
    # objective_eval and constraint_eval form A u + b by a bincount over
    # the stored term of each entry; the floats are those of A @ u + b
    form, (A0, b0, C, b, _) = cost239_forms[which]
    u = np.random.default_rng(seed).normal(scale=scale, size=form.n)
    for entries, A, b in ((form.obj, A0, b0), (form.con, C, b)):
        assert np.array_equal(gp._affine(entries, u),
                              sp.csr_matrix(A) @ u + b)


def test_compiled_gradient_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prog = random_program(rng)
        form = ConvexForm(prog)
        u = rng.uniform(-1, 1, size=form.n)
        _, sigma = form.constraint_eval(u)
        grad = jacobian(form, sigma)[0].toarray().ravel()
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(form.n):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            fd[j] = (form.constraint_eval(up)[0][0]
                     - form.constraint_eval(um)[0][0]) / (2 * h)
        assert np.abs(grad - fd).max() < 1e-5


def test_with_slack_is_the_phase1_program():
    rng = np.random.default_rng(11)
    for _ in range(10):
        program = random_program(rng)
        form = ConvexForm(program)
        A0, b0, C, b, _ = dense_reference(program)
        before = (form.n, form.variables)
        ext = form.with_slack()
        assert ext.n == form.n + 1 and ext.m == form.m
        u = rng.uniform(-1, 1, size=form.n)
        s = float(rng.uniform(-2, 2))
        point = np.append(u, s)
        # F_ext(u, s) = F(u) - s
        np.testing.assert_allclose(ext.constraint_eval(point)[0],
                                   form.constraint_eval(u)[0] - s,
                                   rtol=1e-12, atol=1e-12)
        # the objective is the monomial s: value s, gradient e_s
        value, grad, _ = ext.objective_eval(point)
        assert value == s
        assert np.array_equal(grad, np.eye(ext.n)[-1])
        # the base form is left untouched
        assert form.n == before[0] and form.variables == before[1]
        assert_entries_are(form.obj, A0, b0)
        assert_entries_are(form.con, C, b)


def dense_newton_matrix(form, A0, C, sigma0, g0, lam, F, sigma, J):
    """The Newton matrix H, assembled densely term by term."""
    A0, C = sp.csr_matrix(A0), sp.csr_matrix(C)
    H = (A0.T @ sp.diags(sigma0) @ A0).toarray()
    H -= np.outer(g0, g0)
    H += (C.T @ sp.diags(lam[form.seg] * sigma) @ C).toarray()
    Jd = J.toarray()
    H += (Jd * (lam * (1.0 / (-F) - 1.0))[:, None]).T @ Jd
    return H


def check_sparse_newton_step(program, seed):
    rng = np.random.default_rng(seed)
    base = ConvexForm(program)
    for form, slack in ((base, False), (base.with_slack(), True)):
        A0, _, C, _, _ = dense_reference(program, slack=slack)
        u = rng.uniform(-1.0, 1.0, form.n)
        _, g0, sigma0 = form.objective_eval(u)
        _, sigma = form.constraint_eval(u)
        S = sp.csr_matrix((np.ones(len(form.seg)),
                           (form.seg, np.arange(len(form.seg)))),
                          shape=(form.m, len(form.seg)))
        J = S @ sp.diags(sigma) @ sp.csr_matrix(C)
        want = J.toarray()
        # equal up to the order in which each entry's terms are summed
        np.testing.assert_allclose(jacobian(form, sigma).toarray(), want,
                                   rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max(initial=0.0))
        # duals and values with F in (-1, 0) keep every term of H PSD
        lam = rng.uniform(0.1, 2.0, form.m)
        F = -rng.uniform(0.05, 0.95, form.m)
        H = dense_newton_matrix(form, A0, C, sigma0, g0, lam, F, sigma, J)
        kdata = gp._hessian(form, sigma0, g0, lam, F, sigma,
                            form._jac_data(sigma))
        eigs = np.linalg.eigvalsh(H)
        if eigs[0] < 1e-6 * max(eigs[-1], 1.0):
            # near singular: the factor may reject K, and np.linalg.solve
            # is no reference; compare on H + I
            H += np.eye(form.n)
            kdata = gp._shifted(form, kdata, 1.0)
        rhs = rng.normal(size=form.n)
        want = np.linalg.solve(H, rhs)
        got = gp._solve_newton(form, kdata, rhs)
        assert got is not None
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        # the solver's J^T lam, J^T (1/(t(-F))) and J du, formed from J's
        # data, against the products of the same J as a csr_matrix
        jdata, Jc = form._jac_data(sigma), jacobian(form, sigma)
        for mine, ref in ((form._jac_t(jdata, lam), Jc.T @ lam),
                          (form._jac_t(jdata, 1.0 / (-F)), Jc.T @ (1.0 / (-F))),
                          (form._jac_dot(jdata, got), Jc @ got)):
            np.testing.assert_allclose(
                mine, ref, rtol=1e-14,
                atol=1e-14 * np.abs(ref).max(initial=0.0))


def test_sparse_newton_step_on_a_psa_program(cost239_program):
    check_sparse_newton_step(cost239_program, seed=3)


def test_newton_factor_keeps_the_compiled_fill(cost239_program, monkeypatch):
    # the compiled form stores K in its fill-reducing order and `_factor`
    # keeps that order; a fold that left the identity order would keep
    # every step correct and lose the saving, and fails here
    accepted = []

    def recording(K, factor=gp._factor):
        lu = factor(K)
        if lu is not None:
            accepted.append((K, lu))
        return lu

    monkeypatch.setattr(gp, "_factor", recording)
    # with the dense bound just below it, this form is factored sparse
    monkeypatch.setattr(gp, "_DENSE_MAX", len(cost239_program.variables))
    rng = np.random.default_rng(5)
    base = ConvexForm(cost239_program)
    for form in (base, base.with_slack()):
        u = rng.uniform(-1.0, 1.0, form.n)
        _, g0, sigma0 = form.objective_eval(u)
        _, sigma = form.constraint_eval(u)
        lam = rng.uniform(0.1, 2.0, form.m)
        F = -rng.uniform(0.05, 0.95, form.m)
        kdata = gp._hessian(form, sigma0, g0, lam, F, sigma,
                            form._jac_data(sigma))
        rhs = rng.normal(size=form.n)
        accepted.clear()
        step = gp._solve_newton(form, kdata, rhs)
        assert step is not None
        (K, lu), = accepted
        options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        mmd = spla.splu(K, **options)
        assert lu.L.nnz + lu.U.nnz <= 1.01 * (mmd.L.nnz + mmd.U.nnz)
        # undo the fold: SuperLU ordering K itself finds the same order
        # and, bit for bit, the same step
        coo, back = K.tocoo(), form._kkt_order
        own = spla.splu(sp.csc_matrix((coo.data, (back[coo.row],
                                                  back[coo.col])),
                                      shape=K.shape), **options)
        assert np.array_equal(own.perm_c, form._kkt_perm)
        assert np.array_equal(own.solve(np.append(rhs, 0.0))[:-1], step)


def test_each_point_is_evaluated_once(cost239_program, monkeypatch):
    # the accepted trial of a line search is the next iteration's point:
    # evaluating it again at the top of the iteration is wasted work
    points = []

    def recording(self, u, evaluate=ConvexForm.objective_eval):
        points.append(u.copy())
        return evaluate(self, u)

    monkeypatch.setattr(ConvexForm, "objective_eval", recording)
    assert solve(cost239_program).status == "optimal"
    assert len(points) > 10
    repeats = [k for k in range(1, len(points))
               if np.array_equal(points[k - 1], points[k])]
    assert not repeats


def newton_system(program, seed, F_range):
    """(form, K's data, rhs) at a random point with F drawn from F_range."""
    rng = np.random.default_rng(seed)
    form = ConvexForm(program)
    u = rng.uniform(-1.0, 1.0, form.n)
    _, g0, sigma0 = form.objective_eval(u)
    _, sigma = form.constraint_eval(u)
    lam = rng.uniform(0.1, 2.0, form.m)
    F = -rng.uniform(*F_range, form.m)
    kdata = gp._hessian(form, sigma0, g0, lam, F, sigma,
                        form._jac_data(sigma))
    return form, kdata, rng.normal(size=form.n)


def test_shift_ladder_gives_up_after_41_factors(cost239_program, monkeypatch):
    # the cap counts factor attempts on either path: LAPACK's Cholesky on
    # the dense one, then SuperLU on the sparse one
    calls = []

    def failing(path, result):
        def factor(K, **kwargs):
            calls.append(path)
            return result
        return factor

    monkeypatch.setattr(gp, "dpotrf", failing("dense", (None, 1)))
    monkeypatch.setattr(gp, "_factor", failing("sparse", None))
    for bound, path in ((gp._DENSE_MAX, "dense"), (0, "sparse")):
        calls.clear()
        monkeypatch.setattr(gp, "_DENSE_MAX", bound)
        form, kdata, rhs = newton_system(cost239_program, 1, (0.05, 0.95))
        assert gp._trust_region_step(form, kdata, rhs) is None
        assert len(calls) <= 41
        # the solver reports the failure as a status, not as an exception
        sol = solve(am_gm_program())
        assert sol.status == gp.STATUS_NUMERICAL
        assert 0 < len(calls) - 41 <= 41
        assert set(calls) == {path}


def test_indefinite_newton_matrix_still_gives_a_descent_step(cost239_program):
    # with F < -1 the weights lam (1/(-F) - 1) of the J^T diag(.) J term of
    # H are negative, and this far inside H is near singular: the unshifted
    # step leaves the box, and the shift ladder must still return a bounded
    # step along which the barrier decreases
    form, kdata, rhs = newton_system(cost239_program, 2, (10.0, 100.0))
    assert np.abs(gp._solve_newton(form, kdata, rhs)).max() > gp._MAX_STEP
    du = gp._trust_region_step(form, kdata, rhs)
    assert du is not None
    assert np.isfinite(du).all()
    assert np.abs(du).max() <= gp._MAX_STEP
    assert rhs @ du > 0


@settings(deadline=None, derandomize=True)
@given(n=st.integers(1, 6), scale=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 32 - 1), singular=st.booleans())
def test_sparse_factor_accepts_exactly_positive_definite(n, scale, seed,
                                                         singular):
    # K = [[H_s, g0], [g0^T, 1]] must be accepted exactly when
    # H = H_s - g0 g0^T passes Cholesky; H_s is SPD, so H has at most one
    # negative eigenvalue, kept clear of 0 so the verdict is robust.  A
    # singular draw zeroes a row and column of H_s and that entry of g0, so
    # K is exactly singular.  The dense and the sparse factor give the same
    # verdict and the same step
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    Hs = B @ B.T + 0.1 * np.eye(n)
    g0 = scale * rng.normal(size=n)
    if singular:
        k = rng.integers(n)
        Hs[k, :] = Hs[:, k] = g0[k] = 0.0
    H = Hs - np.outer(g0, g0)
    eigs = np.abs(np.linalg.eigvalsh(H))
    assume(singular or eigs.min() >= 1e-3 * eigs.max())
    dense = np.block([[Hs, g0[:, None]], [g0[None, :], 1.0]])
    try:
        np.linalg.cholesky(H)
        positive_definite = True
    except np.linalg.LinAlgError:
        positive_definite = False
    assert not (singular and positive_definite)
    rhs = rng.normal(size=n + 1)
    factor = gp._factor(sp.csc_matrix(dense))
    assert (factor is not None) == positive_definite
    # the dense path hands LAPACK only K's upper triangle: poison the rest
    upper = np.triu(dense) + np.tril(np.full_like(dense, np.nan), -1)
    c, info = gp.dpotrf(np.asfortranarray(upper), clean=0)
    assert (info == 0) == positive_definite
    if positive_definite:
        sparse, dense_step = factor.solve(rhs), gp.dpotrs(c, rhs)[0]
        assert np.linalg.norm(dense_step - sparse) <= \
            1e-12 * np.linalg.norm(sparse)


def recording_splu(monkeypatch):
    """The permc_spec of every splu call from now on."""
    calls = []

    def recording(A, *args, splu=spla.splu, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def test_small_forms_compute_no_sparse_order(cost239_program, monkeypatch):
    # below the dense bound no compile, slack form or pin runs SuperLU's
    # MMD ordering, and no Newton step runs splu at all
    calls = recording_splu(monkeypatch)
    form = ConvexForm(cost239_program)
    assert form.n + 1 <= gp._DENSE_MAX
    sol = solve(form)
    assert sol.status == "optimal"
    name = form.variables[0]
    assert solve(fix_variable(form, {name: sol.variables[name]})).status == \
        "optimal"
    assert calls == []


def test_form_just_above_the_dense_bound_factors_sparse(cost239_program,
                                                        monkeypatch):
    # the choice rests on K's size alone: with N = n + 1 rows the form is
    # dense at a bound of N and sparse, in its MMD order, at a bound of
    # N - 1; both factors give the same step
    n = len(cost239_program.variables)
    calls = recording_splu(monkeypatch)
    runs, steps = [], []
    for bound in (n + 1, n):
        calls.clear()
        monkeypatch.setattr(gp, "_DENSE_MAX", bound)
        form, kdata, rhs = newton_system(cost239_program, 4, (0.05, 0.95))
        assert (form._kkt_dense is None) == (bound == n)
        assert (form._kkt_perm is None) == (bound > n)
        if bound == n:
            assert not np.array_equal(form._kkt_perm, np.arange(n + 1))
        steps.append(gp._solve_newton(form, kdata, rhs))
        runs.append(list(calls))
    # the sparse form orders K once at compile and factors it once per step
    assert runs == [[], ["MMD_AT_PLUS_A", "NATURAL"]]
    dense, sparse = steps
    assert np.linalg.norm(dense - sparse) <= 1e-12 * np.linalg.norm(sparse)


def test_pin_that_crosses_the_dense_bound_factors_dense(cost239_program,
                                                       monkeypatch):
    # at a bound of n the base form (N = n + 1) is sparse and a form with
    # one variable pinned (N = n) is dense: it keeps none of its parent's
    # SuperLU arrays and factors every step by LAPACK
    n = len(cost239_program.variables)
    monkeypatch.setattr(gp, "_DENSE_MAX", n)
    base = ConvexForm(cost239_program)
    assert base._kkt_dense is None
    # a loose solve stops strictly inside every constraint, so the pinned
    # form starts there without a phase-1 form (N = n + 1, sparse)
    with monkeypatch.context() as loose:
        loose.setattr(gp, "_TOL", 1e-4)
        sol = solve(base)
    name = base.variables[0]
    pins = {name: sol.variables[name]}
    calls = recording_splu(monkeypatch)
    pinned = fix_variable(base, pins)
    assert pinned._kkt_dense is not None
    assert all(getattr(pinned, attr) is None for attr in (
        "_kkt_perm", "_kkt_order", "_kkt_mirror", "_kkt_indices",
        "_kkt_indptr"))
    dense = solve(pinned, sol.variables)
    assert calls == []
    # the same pin with the bound lowered stays sparse
    monkeypatch.setattr(gp, "_DENSE_MAX", n - 1)
    sparse_form = fix_variable(ConvexForm(cost239_program), pins)
    assert sparse_form._kkt_dense is None
    sparse = solve(sparse_form, sol.variables)
    assert calls
    assert dense.status == sparse.status == "optimal"
    assert dense.objective == pytest.approx(sparse.objective, rel=1e-9)


# ---------------------------------------------------------------- fixing

def test_fix_variable_substitutes():
    prog = am_gm_program()
    fixed = fix_variable(prog, {"x": 1.0})
    assert fixed.variables == ("y",)
    sol = solve(fixed)
    assert sol.objective == pytest.approx(2.0, abs=1e-6)  # 1 + y at y = 1


def test_fix_variable_drops_satisfied_constant_rows():
    prog = assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("cap", posy(mono(0.25, x=1.0))),
                     ("link", posy(mono(1.0, x=-1.0, y=-1.0)))])
    fixed = fix_variable(prog, {"x": 2.0})
    assert fixed.constraints == ("link",)
    with pytest.raises(GpError, match=r"^fixing x=8 violates cap \(2 > 1\)$"):
        fix_variable(prog, {"x": 8.0})  # cap becomes 2 > 1
    with pytest.raises(GpError):
        fix_variable(prog, {"zz": 1.0})
    with pytest.raises(GpError):
        fix_variable(prog, {"x": 0.0})


_NAMES = ("a", "b", "x", "y")
_term = st.builds(
    lambda coef, exps: Monomial.make(
        coef, [(v, e) for v, e in zip(_NAMES, exps) if e is not None]),
    st.floats(0.1, 10.0),
    st.lists(st.none() | st.floats(-3.0, 3.0), min_size=4, max_size=4))
_posy = st.lists(_term, min_size=1, max_size=3).map(
    lambda terms: Posynomial(tuple(terms)))


@settings(deadline=None, derandomize=True)
@given(objective=_posy, rows=st.lists(_posy, max_size=4),
       va=st.floats(0.1, 10.0), vb=st.floats(0.1, 10.0))
def test_one_substitution_equals_a_chain_of_pins(objective, rows, va, vb):
    # terms may hold both pins, whose factors must multiply in the mapping's
    # order (b before a, unlike the sorted exponents); rows on a and b alone
    # become constant and are checked or dropped
    prog = GpProgram(objective,
                     tuple((f"r{k}", row) for k, row in enumerate(rows)),
                     _NAMES)
    try:
        once = fix_variable(prog, {"b": vb, "a": va})
    except GpError:
        with pytest.raises(GpError):
            fix_variable(fix_variable(prog, {"b": vb}), {"a": va})
        return
    chain = fix_variable(fix_variable(prog, {"b": vb}), {"a": va})
    assert once.variables == chain.variables == ("x", "y")
    assert once.constraints == chain.constraints
    assert np.array_equal(once.ptr, chain.ptr)
    A0, b0, C, b, ptr = dense_reference(prog, {"b": vb, "a": va})
    assert np.array_equal(once.ptr, ptr)
    for mine, theirs, (A, offsets) in ((once.obj, chain.obj, (A0, b0)),
                                       (once.con, chain.con, (C, b))):
        assert_entries_are(mine, A, offsets)
        for part, other in zip(mine, theirs):
            assert np.array_equal(part, other)


@settings(deadline=None, derandomize=True)
@given(objective=_posy, rows=st.lists(_posy, max_size=4),
       pins=st.dictionaries(st.sampled_from(_NAMES), st.floats(0.1, 10.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pinned_form_matches_the_posynomials(objective, rows, pins, seed):
    # the pins move into the compiled offsets; the posynomials of the
    # original program, evaluated at the merged point, are the reference
    names = [f"r{k}" for k in range(len(rows))]
    prog = GpProgram(objective, tuple(zip(names, rows)), _NAMES)
    constant = {name: row.value(pins) for name, row in zip(names, rows)
                if row.variables <= set(pins)}
    assume(all(abs(value - 1.0) > 1e-6 for value in constant.values()))
    if any(value > 1.0 + 1e-9 for value in constant.values()):
        with pytest.raises(GpError):
            fix_variable(prog, pins)
        return
    form = fix_variable(prog, pins)
    assert form.variables == tuple(v for v in _NAMES if v not in pins)
    assert form.constraints == tuple(n for n in names if n not in constant)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, form.n)
    point = {**pins, **dict(zip(form.variables, np.exp(u)))}
    np.testing.assert_allclose(form.objective_eval(u)[0],
                               math.log(objective.value(point)),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        form.constraint_eval(u)[0],
        [math.log(row.value(point)) for name, row in zip(names, rows)
         if name not in constant], rtol=0, atol=1e-12)


@settings(deadline=None, derandomize=True)
@given(objective=_posy, rows=st.lists(_posy, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_newton_step_on_random_programs(objective, rows, seed):
    program = assemble(objective, [(f"r{k}", row)
                                   for k, row in enumerate(rows)])
    assume(program.variables)
    check_sparse_newton_step(program, seed)


def test_pinned_solution_reports_every_pin():
    # min a + b + x + y  s.t.  1/(a x) <= 1, 1/(b y) <= 1, pinned a = 2 and
    # then b = 4: x = 1/2, y = 1/4 and the objective 6.75
    prog = assemble(posy(mono(1.0, a=1.0), mono(1.0, b=1.0),
                         mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("ax", posy(mono(1.0, a=-1.0, x=-1.0))),
                     ("by", posy(mono(1.0, b=-1.0, y=-1.0)))])
    once = fix_variable(prog, {"a": 2.0})
    twice = fix_variable(once, {"b": 4.0})
    assert (once.fixed, twice.fixed) == ({"a": 2.0}, {"a": 2.0, "b": 4.0})
    assert twice.variables == ("x", "y")
    sol = solve(twice)
    assert sol.status == "optimal"
    assert set(sol.variables) == set(prog.variables)
    assert sol.variables["a"] == 2.0 and sol.variables["b"] == 4.0
    assert sol.objective == pytest.approx(6.75, rel=1e-8)
    assert sol.variables["x"] == pytest.approx(0.5, rel=1e-6)
    assert sol.variables["y"] == pytest.approx(0.25, rel=1e-6)
    # the free variables are those of the same pinned form solved without
    # the record of its pins
    bare = copy.copy(twice)
    bare.fixed = {}
    assert solve(bare).variables == {"x": sol.variables["x"],
                                     "y": sol.variables["y"]}


def test_fix_keeps_constant_objective_terms():
    prog = am_gm_program()
    fixed = fix_variable(prog, {"x": 5.0})
    # objective is 5 + y; constraint 0.2/y <= 1 pushes y to 0.2
    sol = solve(fixed)
    assert sol.objective == pytest.approx(5.2, abs=1e-6)


# ---------------------------------------------------------------- text form

def test_text_round_trip():
    prog = assemble(
        posy(Monomial.make(2.5e-3, [("p[0]", 1.0)]),
             Monomial.make(1.0, [("d[0,1]", -1.0), ("tau", 0.5)])),
        [("qos[0]", posy(Monomial.make(1.7e20, [("p[0]", -1.0), ("c[0]", 3.292)]),
                         Monomial.make(3.0, [("p[0]", 2.0)])))])
    text = to_text(prog)
    again = from_text(text)
    assert again == prog
    assert to_text(again) == text  # byte-stable
    assert "qos[0]" in text


def test_text_errors():
    with pytest.raises(GpError):
        from_text("nope\n")
    with pytest.raises(GpError):
        from_text("gp 1\nminimize\n  banana x^1\n")
    with pytest.raises(GpError):
        from_text("gp 1\n  1.0 x^1\n")
    # terms that Monomial itself rejects still name their line
    for term in ("0 x^1", "-2 x^1", "1 x^nan", "1 x^inf"):
        with pytest.raises(GpError, match="^line 4: .* must be "):
            from_text(f"gp 1\nvar x\nminimize\n  {term}\n")
