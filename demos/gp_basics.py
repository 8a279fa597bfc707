"""Drive the geometric-programming solver directly on small programs."""

from eongp.gp import (Monomial, Posynomial, assemble, fix_variable,
                      from_text, solve, to_text)


def mono(coef, **exps):
    return Monomial.make(coef, exps.items())


def posy(*terms):
    return Posynomial(tuple(terms))


def main():
    # minimize x + y subject to x*y >= 1, written as 1/(x*y) <= 1.
    # The optimum is x = y = 1 with objective 2 (arithmetic-geometric mean).
    program = assemble(posy(mono(1.0, x=1.0), mono(1.0, y=1.0)),
                       [("product_floor", posy(mono(1.0, x=-1.0, y=-1.0)))])
    sol = solve(program)
    print(f"am-gm program: status {sol.status}, objective {sol.objective:.9f}")
    print(f"  x = {sol.variables['x']:.6f}, y = {sol.variables['y']:.6f}")
    print(f"  dual of the floor constraint: {sol.duals[0]:.4f} "
          f"(raising the floor 1% raises the optimum 0.5%)")

    # a box design: minimize surface area with a volume floor and a cap on
    # the base aspect ratio
    box = assemble(
        posy(mono(2.0, w=1.0, d=1.0), mono(2.0, w=1.0, h=1.0),
             mono(2.0, d=1.0, h=1.0)),
        [("volume", posy(mono(8.0, w=-1.0, d=-1.0, h=-1.0))),
         ("aspect", posy(mono(0.5, w=1.0, d=-1.0)))])
    sol = solve(box)
    print(f"\nbox program: status {sol.status}, area {sol.objective:.6f}")
    for name in ("w", "d", "h"):
        print(f"  {name} = {sol.variables[name]:.6f}")

    # programs serialize to a plain text form and parse back
    text = to_text(box)
    print("\nserialized form:")
    for line in text.splitlines():
        print(f"  {line}")
    again = solve(from_text(text))
    print(f"round-trip objective matches: "
          f"{abs(again.objective - sol.objective) < 1e-9}")

    # pinning a variable substitutes it away, shrinking the program
    pinned = fix_variable(box, {"h": 1.0})
    sol2 = solve(pinned)
    print(f"\nwith h pinned to 1: area {sol2.objective:.6f} "
          f"(free optimum {sol.objective:.6f})")


if __name__ == "__main__":
    main()
