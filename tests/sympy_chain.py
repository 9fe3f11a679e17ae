"""Ī_k by sympy alone, read straight from the text of a system file: an
independent referee for the package's chain ideals."""

import itertools


def sympy_system(sympy, text):
    """States, inputs, parameters and right-hand sides of a system file."""
    decl, rhs = {"params": ()}, {}
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        head, _, rest = line.partition(" ")
        if head in ("states", "inputs", "params"):
            decl[head] = sympy.symbols(rest.split())
        elif "=" in line:
            lhs, expr = line.split("=", 1)
            rhs[lhs.strip().rstrip("'")] = sympy.sympify(expr)
    return decl["states"], decl["inputs"], decl["params"], rhs


def sympy_chain_ideal(sympy, text, k):
    """Ī_k: the input-coefficient ideals of all n x n minors of the
    Jacobian of the j-step map in (u_0, ..., u_(j-1)), j = 1..k, as a
    reduced grevlex basis over Q(params)."""
    states, inputs, params, rhs = sympy_system(sympy, text)
    phi = [rhs[str(s)] for s in states]
    flow, seq, coeffs = list(states), [], []
    for t in range(k):
        step = [sympy.Symbol(f"{u}_{t}") for u in inputs]
        sub = dict(zip(states, flow))
        sub.update(zip(inputs, step))
        flow = [sympy.cancel(p.xreplace(sub)) for p in phi]
        seq += step
        jac = sympy.Matrix(flow).jacobian(seq)
        for cols in itertools.combinations(range(len(seq)), len(states)):
            num, _den = sympy.fraction(sympy.cancel(jac[:, cols].det()))
            coeffs += sympy.Poly(num, *seq).coeffs()
    domain = sympy.QQ.frac_field(*params) if params else sympy.QQ
    return sympy.groebner(coeffs, *states, order="grevlex", domain=domain)


def same_ideal(sympy, expected, gens):
    """Two-way Groebner containment of the package's generators (any
    objects whose str is an expression) and a sympy basis."""
    gens = [sympy.sympify(str(g)) for g in gens]
    got = sympy.groebner(gens, *expected.gens, order="grevlex", domain=expected.domain)
    return all(expected.contains(g) for g in got.exprs) and all(
        got.contains(g) for g in expected.exprs
    )
