"""Deterministic random-case generators for the cross-validation suites.

Cases stay deliberately tiny: the oracles enumerate every subset of the
deletable tuples, so a handful of tuples over a 3-4 constant domain is
the sweet spot between coverage and runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from whyd.constraints import Constraint
from whyd.model import Atom, Constant, GroundAtom, Instance, Program, Rule, Variable

import oracle
from oracle import naive_fixpoint

CONSTANTS = ["a", "b", "c", "d"]


@dataclass
class Case:
    program: Program
    instance: Instance
    answer: GroundAtom
    is_cq: bool
    seed: int

    def __repr__(self) -> str:
        return f"Case(seed={self.seed}, rules={len(self.program.rules)}, atoms={len(self.instance)})"


def _random_body(rng: random.Random, predicates: list[tuple[str, int]], variables: list[str]) -> list[Atom]:
    body = []
    for _ in range(rng.randint(1, 3)):
        name, arity = rng.choice(predicates)
        args = []
        for _ in range(arity):
            if rng.random() < 0.15:
                args.append(Constant(rng.choice(CONSTANTS[:3])))
            else:
                args.append(Variable(rng.choice(variables)))
        body.append(Atom(name, tuple(args)))
    return body


def _project_head(rng: random.Random, name: str, body: list[Atom]) -> Atom:
    bound = sorted({v.name for a in body for v in a.variables()})
    if not bound:
        return Atom(name, ())
    width = rng.randint(0, min(2, len(bound)))
    chosen = rng.sample(bound, width)
    return Atom(name, tuple(Variable(v) for v in chosen))


def _random_program(rng: random.Random) -> tuple[Program, list[tuple[str, int]], bool]:
    predicates = [("p", rng.randint(1, 2)), ("q", rng.randint(1, 2))]
    shape = rng.random()
    variables = ["X", "Y", "Z"]
    if shape < 0.45:
        body = _random_body(rng, predicates, variables)
        head = _project_head(rng, "ans", body)
        return Program((Rule(head, tuple(body)),), "ans"), predicates, True
    if shape < 0.7:
        body1 = _random_body(rng, predicates, variables)
        body2 = _random_body(rng, predicates, variables)
        bound1 = {v.name for a in body1 for v in a.variables()}
        bound2 = {v.name for a in body2 for v in a.variables()}
        common = sorted(bound1 & bound2)
        width = rng.randint(0, min(2, len(common)))
        head = Atom("ans", tuple(Variable(v) for v in rng.sample(common, width)))
        rules = (Rule(head, tuple(body1)), Rule(head, tuple(body2)))
        return Program(rules, "ans"), predicates, False
    if shape < 0.85:
        body = _random_body(rng, predicates, variables)
        mid_head = _project_head(rng, "mid", body)
        ans_head = Atom("ans", mid_head.args)
        rules = (Rule(ans_head, (mid_head,)), Rule(mid_head, tuple(body)))
        return Program(rules, "ans"), predicates, False
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    rules = (
        Rule(Atom("ans", (x, y)), (Atom("path", (x, y)),)),
        Rule(Atom("path", (x, y)), (Atom("edge", (x, y)),)),
        Rule(Atom("path", (x, y)), (Atom("path", (x, z)), Atom("edge", (z, y)))),
    )
    return Program(rules, "ans"), [("edge", 2)], False


def _random_facts(rng: random.Random, predicates: list[tuple[str, int]], count: int) -> set[GroundAtom]:
    facts: set[GroundAtom] = set()
    attempts = 0
    while len(facts) < count and attempts < 50:
        attempts += 1
        name, arity = rng.choice(predicates)
        args = tuple(Constant(rng.choice(CONSTANTS)) for _ in range(arity))
        facts.add(GroundAtom(name, args))
    return facts


def generate_case(seed: int, *, max_endogenous: int = 7, allow_exogenous: bool = True) -> Case:
    rng = random.Random(seed)
    for _ in range(60):
        program, predicates, is_cq = _random_program(rng)
        endo_count = rng.randint(3, max_endogenous)
        exo_count = rng.randint(0, 2) if (allow_exogenous and rng.random() < 0.4) else 0
        facts = _random_facts(rng, predicates, endo_count + exo_count)
        if len(facts) < 2:
            continue
        facts = sorted(facts, key=GroundAtom.sort_key)
        rng.shuffle(facts)
        exogenous = frozenset(facts[:exo_count])
        endogenous = frozenset(facts[exo_count:])
        instance = Instance(endogenous, exogenous)
        model = naive_fixpoint(program, instance.atoms)
        answers = sorted(
            (a for a in model if a.predicate == "ans"), key=GroundAtom.sort_key
        )
        if not answers:
            continue
        # prefer answers that need endogenous support (non-degenerate)
        exo_model = naive_fixpoint(program, exogenous)
        interesting = [a for a in answers if a not in exo_model]
        answer = rng.choice(interesting or answers)
        return Case(program, instance, answer, is_cq, seed)
    raise AssertionError(f"no satisfiable case for seed {seed}")


def random_satisfied_tgds(rng: random.Random, instance: Instance, limit: int = 2) -> list[Constraint]:
    """Random tgds over the instance's predicates that the instance
    happens to satisfy."""
    predicates = sorted({(a.predicate, a.arity) for a in instance.atoms})
    found: list[Constraint] = []
    for _ in range(20):
        if len(found) >= limit:
            break
        (bp, ba) = rng.choice(predicates)
        (hp, ha) = rng.choice(predicates)
        body_args = tuple(Variable(f"X{i}") for i in range(ba))
        shared = rng.randint(0, min(ba, ha))
        head_args = tuple(
            Variable(f"X{i}") if i < shared else Variable(f"Y{i}") for i in range(ha)
        )
        tgd = Constraint.tgd((Atom(bp, body_args),), (Atom(hp, head_args),))
        if oracle.sigma_holds([tgd], instance.atoms):
            found.append(tgd)
    return found


def _tgd_side(rng: random.Random, predicates: list[tuple[str, int]], variables: list[Variable]) -> tuple[Atom, ...]:
    atoms = []
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(predicates)
        atoms.append(Atom(name, tuple(rng.choice(variables) for _ in range(arity))))
    return tuple(atoms)


def generate_sigma_case(seed: int, *, max_endogenous: int = 6) -> tuple[Case, list[Constraint]]:
    """A case of ``generate_case`` with 1-3 random tgds that its instance
    satisfies, each with a body that matches somewhere.  Bodies and heads
    have one or two atoms; head variables are shared with the body or
    existential.  Some instances have exogenous tuples."""
    case = generate_case(seed, max_endogenous=max_endogenous)
    rng = random.Random(seed + 81)
    facts = case.instance.atoms
    predicates = sorted({(a.predicate, a.arity) for a in facts})
    body_pool = [Variable(n) for n in ("X", "Y", "Z")]
    wanted = rng.randint(1, 3)
    sigma: list[Constraint] = []
    for _ in range(60):
        if len(sigma) >= wanted:
            break
        body = _tgd_side(rng, predicates, body_pool)
        body_vars = sorted({v for a in body for v in a.variables()}, key=str)
        head = _tgd_side(rng, predicates, body_vars + [Variable("U"), Variable("V")])
        tgd = Constraint.tgd(body, head)
        # a body without a match makes the tgd vacuous
        if not oracle.sigma_holds([Constraint.denial(body)], facts) and oracle.sigma_holds([tgd], facts):
            sigma.append(tgd)
    return case, sigma


def random_satisfied_dcs(rng: random.Random, instance: Instance, limit: int = 2) -> list[Constraint]:
    """Random denial constraints the instance satisfies (typically built
    from value combinations that do not occur)."""
    predicates = sorted({(a.predicate, a.arity) for a in instance.atoms})
    found: list[Constraint] = []
    for _ in range(30):
        if len(found) >= limit:
            break
        (bp, ba) = rng.choice(predicates)
        args = tuple(
            Constant(rng.choice(CONSTANTS)) if rng.random() < 0.6 else Variable(f"X{i}")
            for i in range(ba)
        )
        dc = Constraint.denial((Atom(bp, args),))
        if oracle.sigma_holds([dc], instance.atoms):
            found.append(dc)
    return found


def random_phca(seed: int, max_vars: int = 8):
    """A solvable random propositional Horn abduction problem."""
    from whyd.phca import PropositionalHornAbduction

    rng = random.Random(seed)
    for _ in range(80):
        n = rng.randint(3, max_vars)
        variables = [f"v{i}" for i in range(n)]
        rules = []
        for _ in range(rng.randint(1, 2 * n)):
            head = rng.choice(variables)
            body = tuple(rng.sample(variables, rng.randint(0, min(4, n - 1))))
            body = tuple(b for b in body if b != head)
            rules.append((head, body))
        pool = variables[:]
        rng.shuffle(pool)
        hyp_count = rng.randint(1, max(1, n - 1))
        hypotheses = frozenset(pool[:hyp_count])
        remaining = [v for v in pool[hyp_count:]]
        if not remaining:
            continue
        observations = tuple(rng.sample(remaining, rng.randint(1, min(2, len(remaining)))))
        closure = oracle.horn_closure(tuple(rules), hypotheses)
        if not set(observations) <= closure:
            continue
        if set(observations) <= oracle.horn_closure(tuple(rules), frozenset()) and rng.random() < 0.7:
            continue  # keep mostly nontrivial problems
        return PropositionalHornAbduction(
            frozenset(variables), hypotheses, tuple(rules), observations
        )
    raise AssertionError(f"no solvable propositional problem for seed {seed}")
