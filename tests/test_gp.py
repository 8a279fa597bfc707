import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from eongp import gp, psa
from eongp.gp import (
    ConvexForm, GpError, GpProgram, GpSolution, Monomial, Posynomial, assemble,
    evaluate, fix_variable, from_text, program_size, solve, to_text,
)
from eongp.model import load_instance, partition_traffic, select_requests
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


def test_program_validation():
    obj = posy(mono(1.0, x=1.0))
    with pytest.raises(GpError):
        GpProgram(obj, (), ("x", "x"))
    with pytest.raises(GpError):
        GpProgram(obj, (), ("y",))
    prog = assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("cap", posy(mono(1.0, z=-1.0)))])
    assert prog.variables == ("x", "y", "z")
    assert program_size(prog) == (3, 1)
    assert prog.constraint("cap").terms[0].exponents == (("z", -1.0),)
    with pytest.raises(GpError):
        prog.constraint("nope")


def test_evaluate():
    prog = assemble(posy(mono(2.0, x=1.0)), [("c", posy(mono(0.5, x=1.0)))])
    obj, cons = evaluate(prog, {"x": 3.0})
    assert obj == 6.0 and cons == {"c": 1.5}


# ---------------------------------------------------------------- solving

def am_gm_program():
    # min x + y  s.t.  1/(x*y) <= 1; optimum 2 at x = y = 1
    return assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                    [("prod", posy(mono(1.0, x=-1.0, y=-1.0)))])


def test_am_gm_minimum():
    sol = solve(am_gm_program())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-6)
    assert sol.value("x") == pytest.approx(1.0, abs=1e-5)
    assert sol.value("y") == pytest.approx(1.0, abs=1e-5)
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
    assert sol.value("x") == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-5)


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
    assert sol.value("x") == pytest.approx(2.0, rel=1e-6)


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


def test_iteration_budget():
    sol = solve(am_gm_program(), max_iterations=1)
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
def cost239_program(data_dir):
    # 24 Cost239 requests on shortest paths: 135 variables, 197 rows
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = select_requests(partition_traffic(inst.demands, 100e9), 24,
                               seed=0)
    routing = solve_routing(inst.topology, requests, "spr")
    return psa.build_program(routing, inst.physics, inst.scenario)


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
        assert sol.value("x") == pytest.approx(best, rel=1e-6)


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

def random_program(rng, n_vars=4, n_terms=3):
    names = [f"v{i}" for i in range(n_vars)]
    terms = []
    for _ in range(n_terms):
        exps = [(v, float(rng.uniform(-2, 2))) for v in names
                if rng.random() < 0.7]
        terms.append(Monomial.make(float(np.exp(rng.normal())), exps))
    obj = posy(mono(1.0, **{names[0]: 1.0}))
    return GpProgram(obj, (("c", Posynomial(tuple(terms))),), tuple(names))


def test_compiled_gradient_matches_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prog = random_program(rng)
        form = ConvexForm(prog)
        u = rng.uniform(-1, 1, size=form.n)
        _, sigma = form.constraint_eval(u)
        grad = form.jacobian(sigma)[0].toarray().ravel()
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
        form = ConvexForm(random_program(rng))
        before = (form.n, form.variables, form.obj_A.toarray(),
                  form.obj_b.copy(), form.con_A.toarray())
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
        assert np.array_equal(form.obj_A.toarray(), before[2])
        assert np.array_equal(form.obj_b, before[3])
        assert np.array_equal(form.con_A.toarray(), before[4])


def dense_newton_matrix(form, sigma0, g0, lam, F, sigma, J):
    """The Newton matrix H, assembled densely term by term."""
    H = (form.obj_A.T @ sp.diags(sigma0) @ form.obj_A).toarray()
    H -= np.outer(g0, g0)
    H += (form.con_A.T @ sp.diags(lam[form.seg] * sigma)
          @ form.con_A).toarray()
    Jd = J.toarray()
    H += (Jd * (lam * (1.0 / (-F) - 1.0))[:, None]).T @ Jd
    return H


def check_sparse_newton_step(program, seed):
    rng = np.random.default_rng(seed)
    base = ConvexForm(program)
    for form in (base, base.with_slack()):
        u = rng.uniform(-1.0, 1.0, form.n)
        _, g0, sigma0 = form.objective_eval(u)
        _, sigma = form.constraint_eval(u)
        S = sp.csr_matrix((np.ones(len(form.seg)),
                           (form.seg, np.arange(len(form.seg)))),
                          shape=(form.m, len(form.seg)))
        J = S @ sp.diags(sigma) @ form.con_A
        want = J.toarray()
        # equal up to the order in which each entry's terms are summed
        np.testing.assert_allclose(form.jacobian(sigma).toarray(), want,
                                   rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max(initial=0.0))
        # duals and values with F in (-1, 0) keep every term of H PSD
        lam = rng.uniform(0.1, 2.0, form.m)
        F = -rng.uniform(0.05, 0.95, form.m)
        H = dense_newton_matrix(form, sigma0, g0, lam, F, sigma, J)
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
        jdata, Jc = form._jac_data(sigma), form.jacobian(sigma)
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
    calls = []

    def never(K):
        calls.append(K)
        return None

    monkeypatch.setattr(gp, "_factor", never)
    form, kdata, rhs = newton_system(cost239_program, 1, (0.05, 0.95))
    assert gp._trust_region_step(form, kdata, rhs) is None
    assert len(calls) <= 41
    # the solver reports the failure as a status, not as an exception
    sol = solve(am_gm_program())
    assert sol.status == gp.STATUS_NUMERICAL
    assert 0 < len(calls) - 41 <= 41


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
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_factor_accepts_exactly_positive_definite(n, scale, seed):
    # K = [[H_s, g0], [g0^T, 1]] must be accepted exactly when
    # H = H_s - g0 g0^T passes Cholesky; H_s is SPD, so H has at most one
    # negative eigenvalue, kept clear of 0 so the verdict is robust
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    Hs = B @ B.T + 0.1 * np.eye(n)
    g0 = scale * rng.normal(size=n)
    H = Hs - np.outer(g0, g0)
    eigs = np.abs(np.linalg.eigvalsh(H))
    assume(eigs.min() >= 1e-3 * eigs.max())
    K = sp.csc_matrix(np.block([[Hs, g0[:, None]], [g0[None, :], 1.0]]))
    try:
        np.linalg.cholesky(H)
        positive_definite = True
    except np.linalg.LinAlgError:
        positive_definite = False
    assert (gp._factor(K) is not None) == positive_definite


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
    assert [n for n, _ in fixed.constraints] == ["link"]
    with pytest.raises(GpError):
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
    assert once == fix_variable(fix_variable(prog, {"b": vb}), {"a": va})


@settings(deadline=None, derandomize=True)
@given(objective=_posy, rows=st.lists(_posy, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_newton_step_on_random_programs(objective, rows, seed):
    program = assemble(objective, [(f"r{k}", row)
                                   for k, row in enumerate(rows)])
    assume(program.variables)
    check_sparse_newton_step(program, seed)


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
