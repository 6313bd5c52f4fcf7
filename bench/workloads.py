"""Seeded request sets for the four benchmark workloads.

A request is described by a *spec*: plain JSON-able data, generated from
the workload seed, that says what to ask whyd and how to derive the
expected answer without whyd's engine.  The worker process turns specs
into timed calls (``build``) and canonical outputs (``canon``); the
parent turns the same specs into expected outputs (``reference``).

Inputs never repeat within ``tc-causes``, ``phca-relevance`` and
``ics-views``: every request gets its own constant names, so whyd's
module-level caches cannot answer a timed request from an earlier one.
``session`` repeats a fixed share of its requests on purpose.

Every workload is a sequence of *rounds* with a fixed composition, so
different seeds give request sets of the same shape and scale; the seed
changes wiring, names and order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import corpus
import oracle
import whyd
from whyd import cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
FIXTURES = REPO / "tests" / "fixtures"

# graph.dl's program: transitive closure, queried on an endpoint pair
TC_PROGRAM = """ans(X, Y) :- p(X, Y).
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
"""
DEPT_QUERIES = {
    "q": "ans(T) :- dep(D, T), course(C, T, D).\n",
    "q1": "ans(T) :- course(C, T, D).\n",
}
DEPT_TGD = "dep(X, Y) => course(U, Y, X).\n"
ACCESS_PROGRAM = "access(User, File) :- group_user(User, Group), group_file(File, Group).\n"

# warm-up requests come from a different stream than any timed request
WARMUP_SALT = 104729
WARMUP_REQUESTS = 3


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- canonical forms, shared by engine outputs and references ---------------


def _family(sets) -> list[list[str]]:
    return sorted((sorted(s) for s in sets), key=lambda s: (len(s), s))


def _cause_rows(rows) -> list:
    return sorted([cause, rho, _family(fam)] for cause, rho, fam in rows)


def _rho(family) -> str:
    return str(Fraction(1, 1 + min(len(g) for g in family))) if family else "0"


def _strs(atoms) -> list[str]:
    return sorted(str(a) for a in atoms)


def _engine_rows(reports, rho_field: str) -> list:
    return _cause_rows(
        (str(r.cause), str(getattr(r, rho_field)), [_strs(g) for g in r.minimal_contingency_sets])
        for r in reports
    )


def _solution_rows(pairs) -> list:
    return sorted([sorted(removed), sorted(residual)] for removed, residual in pairs)


# -- tc-causes ----------------------------------------------------------------


def _series_parallel(rng: random.Random, m: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """A random series-parallel DAG with ``m`` edges from node 0 to node 1,
    and its 0-1 paths as edge-index lists.  Parallel branches are series
    chains, plus at most one single edge, so no edge is duplicated."""
    edges: list[tuple[int, int]] = []
    nodes = [2]

    def new_node() -> int:
        nodes[0] += 1
        return nodes[0] - 1

    def split(total: int, ok) -> list[int]:
        while True:
            k = rng.randint(2, min(3, total))
            cuts = sorted(rng.sample(range(1, total), k - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
            if ok(parts):
                return parts

    def build(size: int, src: int, dst: int, op: str) -> list[list[int]]:
        if size == 1:
            edges.append((src, dst))
            return [[len(edges) - 1]]
        if op == "S":
            parts = split(size, lambda ps: all(p == 1 or p >= 3 for p in ps))
            paths: list[list[int]] = [[]]
            here = src
            for i, part in enumerate(parts):
                there = dst if i == len(parts) - 1 else new_node()
                sub = build(part, here, there, "P")
                paths = [p + q for p in paths for q in sub]
                here = there
            return paths
        parts = split(size, lambda ps: sum(p == 1 for p in ps) <= 1)
        return [p for part in parts for p in build(part, src, dst, "S")]

    op = "P" if m >= 3 and rng.random() < 0.5 else "S"
    return edges, build(m, 0, 1, op)


def _tc_spec(op: str, tag: str, kind: str, size: int, rng: random.Random) -> dict:
    if kind == "chain":
        pairs = [(f"{tag}n{i}", f"{tag}n{i + 1}") for i in range(size)]
        source, sink, ref = f"{tag}n0", f"{tag}n{size}", {"kind": "chain"}
    elif kind == "ladder":
        pairs = []
        for j in range(size):
            pairs += [(f"{tag}s", f"{tag}m{j}"), (f"{tag}m{j}", f"{tag}t")]
        source, sink, ref = f"{tag}s", f"{tag}t", {"kind": "ladder", "k": size}
    else:
        edges, paths = _series_parallel(rng, size)
        pairs = [(f"{tag}v{u}", f"{tag}v{v}") for u, v in edges]
        source, sink, ref = f"{tag}v0", f"{tag}v1", {"kind": "sp", "paths": paths}
    facts = [f"e({u}, {v})" for u, v in pairs]
    text = [f + "." for f in facts]
    rng.shuffle(text)
    return {
        "op": op,
        "label": f"{op}/{kind}-{size}",
        "edges": facts,
        "text": "\n".join(text) + "\n",
        "target": f"ans({source}, {sink})",
        "ref": ref,
    }


def _tc_round(rng: random.Random, tag: str) -> list[dict]:
    # Supports 4-12: chains (one diagnosis, 2^n + 1 fixpoints at the seed),
    # ladders (2^(k-1) contingency sets per cause) and series-parallel
    # graphs.  Ordered by cost at the seed, the middle three and the top
    # three requests are blocks of like cost, so p50 and p90 fall inside a
    # block instead of on a boundary that moves from seed to seed.
    plan = [("causes", "ladder", 2), ("causes", "chain", 4), ("causes", "ladder", 3)]
    plan += [("causes", "chain", 5), ("causes", "ladder", 4), ("causes", "sp", 6)]
    plan += [("causes", "chain", 6), ("causes", "chain", 6), ("mrc", "chain", 6)]
    plan += [("causes", "sp", 7), ("causes", "chain", 7), ("causes", "sp", 8)]
    plan += [("causes", "ladder", 5), ("causes", "chain", 8), ("causes", "ladder", 6)]
    rng.shuffle(plan)
    return [_tc_spec(op, f"{tag}x{i}", kind, size, rng) for i, (op, kind, size) in enumerate(plan)]


def _product(groups: list[list[str]]) -> list[list[str]]:
    out: list[list[str]] = [[]]
    for group in groups:
        out = [prefix + [item] for prefix in out for item in group]
    return out


def _path_causes(edges: list[str], paths: list[list[int]]) -> list:
    """Causes and minimal contingency sets from the definition, given every
    source-sink path: after removing Gamma some path survives, after
    removing the cause as well none does.  Subsets are bitmasks."""
    masks = [sum(1 << i for i in path) for path in paths]
    every = (1 << len(edges)) - 1
    rows = []
    for tau in range(len(edges)):
        rest = [i for i in range(len(edges)) if i != tau]
        found: list[int] = []
        for size in range(len(rest) + 1):
            for combo in combinations(rest, size):
                gamma = sum(1 << i for i in combo)
                if any(prev & gamma == prev for prev in found):
                    continue
                kept = every & ~gamma
                without = kept & ~(1 << tau)
                if any(m & kept == m for m in masks) and not any(m & without == m for m in masks):
                    found.append(gamma)
        if found:
            family = [[edges[i] for i in range(len(edges)) if g >> i & 1] for g in found]
            rows.append((edges[tau], _rho(family), family))
    return rows


def _tc_reference(spec: dict):
    ref, edges = spec["ref"], spec["edges"]
    if ref["kind"] == "chain":
        # chain-n: n counterfactual causes, each with contingency set {}
        rows = [(e, "1", [[]]) for e in edges]
    elif ref["kind"] == "ladder":
        # ladder-k: 2k causes of responsibility 1/k; a set picks one edge
        # from every other rung, so 2^(k-1) sets per cause
        k = ref["k"]
        rungs = [edges[2 * j : 2 * j + 2] for j in range(k)]
        rows = []
        for j, rung in enumerate(rungs):
            family = _product([r for i, r in enumerate(rungs) if i != j])
            rows += [(e, str(Fraction(1, k)), family) for e in rung]
    else:
        rows = _path_causes(edges, ref["paths"])
    if spec["op"] == "mrc":
        best = max(Fraction(rho) for _, rho, _ in rows)
        return sorted(c for c, rho, _ in rows if Fraction(rho) == best)
    return _cause_rows(rows)


# -- phca-relevance -----------------------------------------------------------

# PHCA problem shapes: (variables, rules, rules with four body atoms,
# support size, diagnosis sizes).  Wiring is random_phca-style; fixing the
# shape makes seeds differ in wiring but not in scale, which keeps the
# heavy-tailed cost of random problems from swamping the run.  Every shape
# is encoded into the same wide rule, t x t x t joined with r.
PHCA_SHAPES = {
    "a": (5, 6, 0, 2, (1,)),
    "b": (5, 6, 0, 4, (1, 1)),
    "c": (6, 8, 0, 2, (1,)),
}
# one round, cheapest first: p50 falls inside the b block and p90 inside
# the c block (see _tc_round)
PHCA_ROUND = "aaaabbbbcc"


def _phca_support(rules, hypotheses, observations) -> set[str]:
    """Hypotheses on some derivation of the observation once every
    hypothesis holds: backward reachability over the rules that fire."""
    closure = oracle.horn_closure(rules, hypotheses)
    reached: set[str] = set()
    frontier = list(observations)
    while frontier:
        atom = frontier.pop()
        if atom not in reached:
            reached.add(atom)
            for head, body in rules:
                if head == atom and all(b in closure for b in body):
                    frontier.extend(body)
    return reached & set(hypotheses)


def _phca_shape(rules, hypotheses, observations) -> tuple:
    support = sorted(_phca_support(rules, hypotheses, observations))
    found: list[set[str]] = []
    for size in range(len(support) + 1):
        for combo in combinations(support, size):
            chosen = set(combo)
            if any(f <= chosen for f in found):
                continue
            if set(observations) <= oracle.horn_closure(rules, chosen):
                found.append(chosen)
    wide = sum(len(body) == 4 for _, body in rules)
    return wide, len(support), tuple(sorted(len(f) for f in found))


def _phca_problem(rng: random.Random, n: int, rule_count: int, shape: tuple):
    variables = [f"v{i}" for i in range(n)]
    while True:
        rules = []
        for _ in range(rule_count):
            head = rng.choice(variables)
            body = tuple(b for b in rng.sample(variables, rng.randint(0, min(4, n - 1))) if b != head)
            rules.append((head, body))
        pool = variables[:]
        rng.shuffle(pool)
        hyp_count = rng.randint(1, n - 1)
        hypotheses, remaining = pool[:hyp_count], pool[hyp_count:]
        observations = rng.sample(remaining, rng.randint(1, min(2, len(remaining))))
        if not set(observations) <= oracle.horn_closure(rules, hypotheses):
            continue
        if _phca_shape(rules, hypotheses, observations) == shape:
            return rules, sorted(hypotheses), observations


def _phca_round(rng: random.Random, tag: str) -> list[dict]:
    specs = []
    for i, shape in enumerate(PHCA_ROUND):
        n, rule_count, *rest = PHCA_SHAPES[shape]
        rules, hypotheses, observations = _phca_problem(rng, n, rule_count, tuple(rest))
        name = {f"v{j}": f"{tag}x{i}v{j}" for j in range(n)}
        specs.append(
            {
                "op": "phca",
                "label": f"phca/{shape}",
                "rules": [[name[h], [name[b] for b in body]] for h, body in rules],
                "hypotheses": [name[h] for h in hypotheses],
                "observations": [name[o] for o in observations],
            }
        )
    rng.shuffle(specs)
    return specs


def _phca_text(spec: dict) -> str:
    lines = [f"{h} <- {' '.join(body)}" if body else h for h, body in spec["rules"]]
    lines += ["#hyp", " ".join(spec["hypotheses"]), "#obs", " ".join(spec["observations"])]
    return "\n".join(lines) + "\n"


def _phca_reference(spec: dict) -> dict:
    rules = tuple((h, tuple(body)) for h, body in spec["rules"])
    hypotheses = frozenset(spec["hypotheses"])
    observations = tuple(spec["observations"])
    # necessary sets from the definition: minimal N whose removal leaves
    # the observation underivable from the remaining hypotheses
    necessary: list[frozenset] = []
    for size in range(len(hypotheses) + 1):
        for combo in combinations(sorted(hypotheses), size):
            removed = frozenset(combo)
            if any(prev <= removed for prev in necessary):
                continue
            if not set(observations) <= oracle.horn_closure(rules, hypotheses - removed):
                necessary.append(removed)
    return {
        "diagnoses": _family(oracle.phca_diagnoses(rules, hypotheses, observations)),
        "relevant": sorted(oracle.phca_relevant(rules, hypotheses, observations)),
        "necessary_sets": _family(necessary),
    }


# -- ics-views ----------------------------------------------------------------


def _dept_block(rng: random.Random, tag: str) -> list[str]:
    """A department block in the style of dept.facts that satisfies the
    tgd: staff with their department and courses, the first one teaching
    two courses, plus a guest course.  The first staff member is the
    target when this is the target block."""
    facts = []
    for j in range(rng.randint(2, 3)):
        facts.append(f"dep({tag}d{j}, {tag}s{j})")
        facts += [f"course({tag}c{j}{c}, {tag}s{j}, {tag}d{j})" for c in range(1 if j else 2)]
    facts.append(f"course({tag}c9, {tag}guest, {tag}d0)")
    return facts


def _dept_spec(rng: random.Random, tag: str, size: int) -> dict:
    """Scaled dept: the target's block plus whole unrelated blocks and lone
    course rows up to ``size`` endogenous tuples.  Nothing outside the
    target block shares a constant with it, and the tgd holds per block,
    so the answer's causes under the tgd live in the target block."""
    block = _dept_block(rng, f"{tag}b")
    facts = list(block)
    other = 0
    while True:
        extra = _dept_block(rng, f"{tag}o{other}")
        if len(facts) + len(extra) > size:
            break
        facts += extra
        other += 1
    facts += [f"course({tag}l{j}, {tag}lt{j}, {tag}ld{j})" for j in range(size - len(facts))]
    rng.shuffle(facts)
    query = rng.choice(sorted(DEPT_QUERIES))
    return {
        "op": "ics",
        "label": f"ics/dept-{size}-{query}",
        "query": query,
        "facts": facts,
        "block": block,
        "target": f"ans({tag}bs0)",
    }


def _access_spec(rng: random.Random, tag: str, op: str, users: int, groups: int, files: int) -> dict:
    """Scaled access: users in two groups each (endogenous), files shared
    with one or two groups (exogenous, as in access.facts).  A wiring
    whose view is empty has no answer to ask about, so it is drawn again."""
    view: list[str] = []
    while not view:
        members = {
            f"{tag}u{u}": [f"{tag}g{g}" for g in sorted(rng.sample(range(groups), 2))] for u in range(users)
        }
        shares = {
            f"{tag}f{f}": [f"{tag}g{g}" for g in sorted(rng.sample(range(groups), rng.randint(1, 2)))]
            for f in range(files)
        }
        view = _access_view(members, shares)
    return {
        "op": op,
        "label": f"{op}/access-{users}x{groups}x{files}",
        "members": members,
        "shares": shares,
        "target": rng.choice(view),
    }


def _access_view(members: dict, shares: dict, removed=frozenset()) -> list[str]:
    """The access view computed directly, with some memberships removed."""
    out = []
    for user, groups in members.items():
        live = {g for g in groups if f"group_user({user}, {g})" not in removed}
        out += [f"access({user}, {f})" for f, fgroups in shares.items() if live & set(fgroups)]
    return sorted(out)


def _access_text(spec: dict) -> str:
    lines = [f"group_user({u}, {g})." for u, gs in spec["members"].items() for g in gs]
    lines.append("#exogenous")
    lines += [f"group_file({f}, {g})." for f, gs in spec["shares"].items() for g in gs]
    return "\n".join(lines) + "\n"


def _ics_round(rng: random.Random, tag: str) -> list[dict]:
    # The cost of an access request depends on its random wiring, that of a
    # dept request only on its size.  So the dept requests of like cost
    # hold the median (four of size 10) and the top fifth (two of size 11),
    # and p50 and p90 do not move with the seed (see _tc_round).
    access = {"small": (5, 4, 4), "mid": (6, 5, 5), "large": (7, 5, 6)}
    plan = [("minsrc", "large"), ("vc", "small"), ("vsef", "small"), ("vc", "mid")]
    plan += [("ics", 10)] * 4 + [("ics", 11)] * 2
    specs = []
    for i, (op, size) in enumerate(plan):
        if op == "ics":
            specs.append(_dept_spec(rng, f"{tag}x{i}", size))
        else:
            specs.append(_access_spec(rng, f"{tag}x{i}", op, *access[size]))
    rng.shuffle(specs)
    return specs


def _ics_reference(spec: dict):
    if spec["op"] == "ics":
        # brute force over the target block only (see _dept_spec)
        program = whyd.parse_program(DEPT_QUERIES[spec["query"]])
        sigma = list(whyd.parse_constraints(DEPT_TGD))
        block = whyd.parse_instance("\n".join(f + "." for f in spec["block"]) + "\n")
        sweep = oracle.instance_sweep(program, block)
        answer = whyd.parse_ground_atom(spec["target"])
        found = oracle.causes_under_sigma(sweep, answer, sigma)
        return _cause_rows((str(t), _rho(f), [_strs(g) for g in f]) for t, f in found.items())

    # Only the target user's memberships can derive, or be needed to keep,
    # that user's answers; other users' answers are untouched by deleting
    # them.  So the brute force runs over the target user's tuples alone.
    user = spec["target"][len("access(") :].split(",")[0]
    members = {user: spec["members"][user]}
    program = whyd.parse_program(ACCESS_PROGRAM)
    local = whyd.parse_instance(_access_text({"members": members, "shares": spec["shares"]}))
    sweep = oracle.instance_sweep(program, local)
    answer = whyd.parse_ground_atom(spec["target"])
    if spec["op"] == "vc":
        found = oracle.vc_cause_reports(sweep, answer)
        return _cause_rows((str(t), _rho(f), [_strs(g) for g in f]) for t, f in found.items())
    removals = oracle.vsef(sweep, answer) if spec["op"] == "vsef" else oracle.minimal_deletions(sweep, answer)
    return _solution_rows(
        (_strs(r), _access_view(spec["members"], spec["shares"], {str(a) for a in r})) for r in removals
    )


# -- session ------------------------------------------------------------------

# The golden CLI cases of the test suite: (golden name, argv with fixture
# names).  Their expected output is the golden file, byte for byte.
GOLDEN_CASES = [
    ("eval_aj", ["eval", "-p", "@aj.dl", "-d", "@aj.facts"]),
    ("eval_access", ["eval", "-p", "@access.dl", "-d", "@access.facts"]),
    ("eval_graph", ["eval", "-p", "@graph.dl", "-d", "@graph.facts"]),
    ("eval_repair", ["eval", "-p", "@repair.dl", "-d", "@repair.facts"]),
    ("causes_aj", ["causes", "-p", "@aj.dl", "-d", "@aj.facts", "-t", "ans(john, xml)"]),
    (
        "causes_aj_journal_exogenous",
        ["causes", "-p", "@aj.dl", "-d", "@aj_journal_exogenous.facts", "-t", "ans(john, xml)"],
    ),
    ("causes_graph", ["causes", "-p", "@graph.dl", "-d", "@graph.facts", "-t", "ans(c, e)"]),
    (
        "causes_dept_q_psi",
        ["causes", "-p", "@dept_q.dl", "-d", "@dept.facts", "-c", "@dept.ics", "-t", "ans(john)"],
    ),
    (
        "causes_dept_q1_psi",
        ["causes", "-p", "@dept_q1.dl", "-d", "@dept.facts", "-c", "@dept.ics", "-t", "ans(john)"],
    ),
    (
        "responsibility_graph_t2",
        ["responsibility", "-p", "@graph.dl", "-d", "@graph.facts", "-t", "ans(c, e)", "--tuple", "e(b, e)"],
    ),
    (
        "responsibility_dept_t4_psi",
        [
            "responsibility", "-p", "@dept_q1.dl", "-d", "@dept.facts", "-c", "@dept.ics",
            "-t", "ans(john)", "--tuple", "course(com08, john, computing)",
        ],
    ),
    ("mrc_graph", ["mrc", "-p", "@graph.dl", "-d", "@graph.facts", "-t", "ans(c, e)"]),
    ("mrc_aj", ["mrc", "-p", "@aj.dl", "-d", "@aj.facts", "-t", "ans(john, xml)"]),
    ("vc_access_joe", ["vc-causes", "-p", "@access.dl", "-d", "@access.facts", "-t", "access(joe, f1)"]),
    ("vc_access_g0", ["vc-causes", "-p", "@access.dl", "-d", "@access_g0.facts", "-t", "access(joe, f1)"]),
    ("vc_aj", ["vc-causes", "-p", "@aj.dl", "-d", "@aj.facts", "-t", "ans(john, xml)"]),
    ("abduce_circuit", ["abduce", "-p", "@circuit.dl", "-d", "@circuit.facts"]),
    ("abduce_rs", ["abduce", "-p", "@rs.dl", "-d", "@rs_abduce.facts"]),
    ("abduce_rs_nes", ["abduce", "-p", "@rs.dl", "-d", "@rs_nes_abduce.facts"]),
    (
        "delprop_aj_minimal",
        ["delprop", "--mode", "minimal-source", "-p", "@aj.dl", "-d", "@aj.facts", "-t", "ans(john, xml)"],
    ),
    (
        "delprop_graph_minimum",
        ["delprop", "--mode", "minimum-source", "-p", "@graph.dl", "-d", "@graph.facts", "-t", "ans(c, e)"],
    ),
    (
        "delprop_access_tom_view_safe",
        ["delprop", "--mode", "view-safe", "-p", "@access.dl", "-d", "@access.facts", "-t", "access(tom, f3)"],
    ),
    (
        "delprop_access_joe_view_safe_endogenous",
        [
            "delprop", "--mode", "view-safe", "--endogenous-only",
            "-p", "@access.dl", "-d", "@access.facts", "-t", "access(joe, f1)",
        ],
    ),
    (
        "delprop_aj_endogenous",
        [
            "delprop", "--mode", "minimal-source", "--endogenous-only",
            "-p", "@aj.dl", "-d", "@aj_journal_exogenous.facts", "-t", "ans(john, xml)",
        ],
    ),
    ("check_ics_dept", ["check-ics", "-d", "@dept.facts", "-c", "@dept.ics"]),
    ("check_ics_repair", ["check-ics", "-d", "@repair.facts", "-c", "@repair.ics"]),
    ("encode_phca_example", ["encode-phca", "-i", "@phca_example.txt"]),
]

# The generated cases are asked the golden cases' questions in the golden
# cases' proportions: of the 27 goldens, 18 use these five commands, on 7
# distinct inputs (program, data and constraints), asked 1-5 questions each.
SESSION_COMMANDS = {"eval": 4, "causes": 5, "mrc": 2, "responsibility": 2, "delprop": 5}
SESSION_QUESTIONS = (4, 3, 5, 1, 2, 1, 2)
# An assumption, not a measurement: nothing in the repository says how
# often a long-lived caller asks the same question again.
SESSION_REPEAT_SHARE = 0.1


def _session_case(rng: random.Random, tag: str) -> list[dict]:
    """One generated case (corpus.generate_case), asked questions
    through the CLI as the golden inputs are."""
    case_seed = rng.randrange(10**9)
    case = corpus.generate_case(case_seed)
    files = {
        "program": whyd.serialize_program(case.program),
        "data": whyd.serialize_instance(case.instance),
    }
    endogenous = sorted(str(a) for a in case.instance.endogenous)
    commands: list[str] = []  # distinct, as no golden input is asked twice
    for _ in range(rng.choice(SESSION_QUESTIONS)):
        left = [c for c in SESSION_COMMANDS if c not in commands]
        commands += rng.choices(left, [SESSION_COMMANDS[c] for c in left])
    specs = []
    for command in commands:
        if command == "responsibility" and not endogenous:
            command = "causes"
        argv = [command, "-p", "{program}", "-d", "{data}"]
        if command != "eval":
            argv += ["-t", str(case.answer)]
        if command == "responsibility":
            argv += ["--tuple", rng.choice(endogenous)]
        elif command == "delprop":
            argv[1:1] = ["--mode", "minimal-source", "--endogenous-only"]
        specs.append(
            {
                "op": "cli",
                "label": f"cli/{command}",
                "argv": argv,
                "case": tag,
                "case_seed": case_seed,
                "files": files,
            }
        )
    return specs


def _session_round(rng: random.Random, tag: str) -> list[dict]:
    specs: list[dict] = []
    for i in range(8):
        specs += _session_case(rng, f"{tag}c{i}")
    return specs


def _add_goldens(rng: random.Random, specs: list[dict]) -> None:
    """Repeat a share of the generated requests and interleave the golden
    cases, each once."""
    specs += [dict(rng.choice(specs)) for _ in range(round(len(specs) * SESSION_REPEAT_SHARE))]
    rng.shuffle(specs)
    for name, argv in GOLDEN_CASES:
        spec = {"op": "cli", "label": "cli/golden", "argv": argv, "golden": name}
        specs.insert(rng.randrange(len(specs) + 1), spec)


def _cli_payload(command: str, payload: dict):
    if command == "eval":
        return payload["answers"]
    if command == "causes":
        return _cause_rows((c["tuple"], c["responsibility"], c["contingency_sets"]) for c in payload["causes"])
    if command == "mrc":
        return [sorted(payload["causes"]), payload["responsibility"]]
    if command == "responsibility":
        return payload["responsibility"]
    return _solution_rows((s["removed"], s["residual_view"]) for s in payload["solutions"])


def _session_reference(spec: dict, memo: dict):
    if "golden" in spec:
        return [0, (GOLDEN / f"{spec['golden']}.json").read_text(encoding="utf-8")]
    key = spec["case_seed"]
    if key not in memo:
        case = corpus.generate_case(key)
        memo[key] = (case, oracle.instance_sweep(case.program, case.instance))
    case, sweep = memo[key]
    answer = case.answer
    command = spec["argv"][0]
    if command == "eval":
        body = _strs(sweep.answers())
    elif command == "causes":
        body = _cause_rows(
            (
                str(t),
                str(oracle.responsibility(sweep, answer, t)),
                [_strs(g) for g in oracle.contingency_family(sweep, answer, t)],
            )
            for t in oracle.causes(sweep, answer)
        )
    elif command == "mrc":
        winners = oracle.most_responsible_causes(sweep, answer)
        rho = oracle.responsibility(sweep, answer, next(iter(winners))) if winners else Fraction(0)
        body = [_strs(winners), str(rho)]
    elif command == "responsibility":
        tau = whyd.parse_ground_atom(spec["argv"][-1])
        body = str(oracle.responsibility(sweep, answer, tau))
    else:
        body = _solution_rows(
            (_strs(r), _strs(sweep.answers(r))) for r in oracle.minimal_deletions(sweep, answer)
        )
    return [0, body]


# -- building and checking requests ------------------------------------------


class Workload:
    """A named request set: ``rounds`` rounds per seed, each made by
    ``make_round(rng, tag)``; ``mix(rng, specs)``, if given, adds requests
    that appear once per set."""

    def __init__(self, name: str, make_round, rounds: int, mix=None):
        self.name = name
        self.make_round = make_round
        self.rounds = rounds
        self.mix = mix

    def requests(self, seed: int, rounds: int | None = None) -> list[dict]:
        specs = []
        for r in range(self.rounds if rounds is None else rounds):
            specs += self.make_round(_rng(self.name, seed, r), f"r{r}")
        if self.mix:
            self.mix(_rng(self.name, seed, "mix"), specs)
        return specs

    def warmup(self, seed: int) -> list[dict]:
        """A few requests from a stream no timed request comes from."""
        return self.make_round(_rng(self.name, seed + WARMUP_SALT, "warm-up"), "w")[:WARMUP_REQUESTS]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tc-causes", _tc_round, rounds=7),
        Workload("phca-relevance", _phca_round, rounds=20),
        Workload("ics-views", _ics_round, rounds=10),
        Workload("session", _session_round, rounds=60, mix=_add_goldens),
    )
}


def _input_path(directory: Path, spec: dict, kind: str) -> Path:
    return directory / f"{spec['case']}{'.dl' if kind == 'program' else '.facts'}"


def write_inputs(specs: list[dict], directory: Path) -> None:
    """Write the input files of the generated CLI requests, once per run;
    a long-lived caller finds its files in place before it starts."""
    for spec in specs:
        for kind, text in spec.get("files", {}).items():
            path = _input_path(directory, spec, kind)
            if not path.exists():
                path.write_text(text, encoding="utf-8")


class Session:
    """Worker-side state: parsed inputs shared across requests and the
    directory holding the CLI requests' input files."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.tc_program = whyd.parse_program(TC_PROGRAM)
        self.access_program = whyd.parse_program(ACCESS_PROGRAM)
        self.dept_programs = {k: whyd.parse_program(v) for k, v in DEPT_QUERIES.items()}
        self.dept_sigma = whyd.parse_constraints(DEPT_TGD)

    def build(self, spec: dict):
        """Parse the request's inputs now; return the call to time."""
        op = spec["op"]
        if op in ("causes", "mrc"):
            instance = whyd.parse_instance(spec["text"])
            target = whyd.parse_ground_atom(spec["target"])
            program = self.tc_program
            if op == "causes":
                return lambda: whyd.cause_reports(instance, program, target)
            return lambda: whyd.most_responsible_causes(instance, program, target)
        if op == "phca":
            problem = whyd.parse_phca(_phca_text(spec))

            def explain():
                encoded = whyd.encode_phca(problem)
                return (
                    whyd.solve_diagnoses(encoded),
                    whyd.relevant_hypotheses(encoded),
                    whyd.necessary_hypothesis_sets(encoded),
                )

            return explain
        if op == "ics":
            instance = whyd.parse_instance("\n".join(f + "." for f in spec["facts"]) + "\n")
            program = self.dept_programs[spec["query"]]
            target = whyd.parse_ground_atom(spec["target"])
            sigma = self.dept_sigma
            return lambda: whyd.causes_under_ics(instance, program, target, sigma)
        if op in ("vc", "vsef", "minsrc"):
            instance = whyd.parse_instance(_access_text(spec))
            target = whyd.parse_ground_atom(spec["target"])
            program = self.access_program
            if op == "vc":
                return lambda: whyd.vc_causes(instance, program, target)
            if op == "vsef":
                return lambda: whyd.vsef_solutions(instance, program, target, endogenous_only=True)
            return lambda: whyd.minimal_source_solutions(instance, program, target, endogenous_only=True)
        return self._cli_call(spec)

    def _cli_call(self, spec: dict):
        paths = {"{" + kind + "}": str(_input_path(self.inputs, spec, kind)) for kind in spec.get("files", {})}
        argv = []
        for arg in spec["argv"]:
            if arg.startswith("@"):
                arg = str(FIXTURES / arg[1:])
            argv.append(paths.get(arg, arg))

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad usage this way
                    code = exc.code
            return code, out.getvalue()

        return run


def _hypothesis_names(markers) -> list[str]:
    return [a.args[0].symbol for a in markers]


def canon(spec: dict, result):
    """The request's output in canonical, JSON-able form."""
    op = spec["op"]
    if op == "causes":
        return _engine_rows(result, "responsibility")
    if op == "mrc":
        return _strs(result)
    if op == "phca":
        diagnoses, relevant, necessary = result
        return {
            "diagnoses": _family(_hypothesis_names(d) for d in diagnoses),
            "relevant": sorted(_hypothesis_names(relevant)),
            "necessary_sets": _family(_hypothesis_names(n) for n in necessary),
        }
    if op == "ics":
        return _engine_rows(result, "responsibility_under_ics")
    if op == "vc":
        return _engine_rows(result, "vc_responsibility")
    if op in ("vsef", "minsrc"):
        return _solution_rows((_strs(s.removed), _strs(s.residual_view)) for s in result)
    code, out = result
    if "golden" in spec or code != 0:
        return [code, out]
    return [code, _cli_payload(spec["argv"][0], json.loads(out)["payload"])]


def reference(spec: dict, memo: dict):
    """The expected canonical output, computed without whyd's engine."""
    op = spec["op"]
    if op in ("causes", "mrc"):
        return _tc_reference(spec)
    if op == "phca":
        return _phca_reference(spec)
    if op == "cli":
        return _session_reference(spec, memo)
    return _ics_reference(spec)
