"""Static checks over the source of src/simtlab."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "simtlab"


def einsum_contracts(subscripts: str) -> bool:
    """True when some input index of an einsum is summed away, i.e. missing from its output."""
    spec = subscripts.replace(" ", "").replace("...", "")
    inputs, arrow, output = spec.partition("->")
    letters = inputs.replace(",", "")
    if not arrow:  # implicit output: the indices that appear once
        output = [c for c in letters if letters.count(c) == 1]
    return any(c not in output for c in letters)


def contraction_problems(source: str, name: str) -> list:
    """One line per einsum call in ``source`` that contracts or cannot be checked."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call)
                and "einsum" in (getattr(func, "attr", None), getattr(func, "id", None))):
            continue
        arg = node.args[0] if node.args else None
        where = f"{name}:{node.lineno}"
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            problems.append(f"{where}: subscripts are not a literal string")
        elif einsum_contracts(arg.value):
            problems.append(f"{where}: {arg.value!r} is a contraction")
    return problems


def test_no_einsum_contraction_in_src():
    """Unoptimised einsum contractions skip BLAS; at the visual projection's shapes
    they were measured about 10x slower than one GEMM, so write them as matmuls."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += contraction_problems(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_contraction_check_tells_contractions_from_outer_products():
    assert not einsum_contracts("bs,bd->bsd")    # an outer product sums nothing
    assert not einsum_contracts("ii->i")         # a diagonal sums nothing
    assert not einsum_contracts("...i,...j->...ij")
    assert einsum_contracts("brd,dk->brk")
    assert einsum_contracts("brd,brk->dk")
    assert einsum_contracts("ij,jk")             # implicit output drops the repeated j
    assert einsum_contracts("ii")                # implicit trace
    assert not einsum_contracts("ij")

    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "a = np.einsum('bs,bd->bsd', x, y)\n"
              "b = np.einsum('brd,dk->brk', x, w)\n"
              "c = einsum(spec, x)\n")
    assert contraction_problems(source, "m.py") == [
        "m.py:4: 'brd,dk->brk' is a contraction",
        "m.py:5: subscripts are not a literal string"]


def nan_permitting_json_writes(source: str, name: str) -> list:
    """One line per ``json.dump``/``json.dumps`` call in ``source`` without ``allow_nan=False``.

    Bare ``dump``/``dumps`` calls count too, as a ``from json import`` would bind them.
    """
    problems = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json":
            called = func.attr
        else:
            called = getattr(func, "id", None)
        if called not in ("dump", "dumps"):
            continue
        if not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False for kw in node.keywords):
            problems.append(f"{name}:{node.lineno}: {called}() without allow_nan=False")
    return problems


def test_json_writers_in_src_reject_nan():
    """By default ``json`` writes NaN and Infinity, which no strict JSON parser reads back."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += nan_permitting_json_writes(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_nan_check_tells_strict_json_writes_from_permissive_ones():
    source = ("import json, pickle\n"
              "from json import dumps\n"
              "a = json.dumps(x, allow_nan=False)\n"
              "b = json.dumps(x)\n"
              "json.dump(x, fh, indent=2, allow_nan=True)\n"
              "c = dumps(x)\n"
              "d = pickle.dumps(x)\n"
              "e = json.loads(text)\n"
              "json.dump(x, fh, allow_nan=strict)\n")
    assert nan_permitting_json_writes(source, "m.py") == [
        "m.py:4: dumps() without allow_nan=False",
        "m.py:5: dump() without allow_nan=False",
        "m.py:6: dumps() without allow_nan=False",
        "m.py:9: dump() without allow_nan=False"]


# the exceptions a try around each kind of read must catch
READ_GUARDS = {"read_text": {"OSError", "ValueError"}, "read_bytes": {"OSError"},
               "loads": {"ValueError"}}


def unguarded_text_reads(source: str, name: str) -> list:
    """One line per ``read_text(...)``, ``read_bytes(...)`` or ``json.loads(...)`` call in
    ``source`` whose enclosing ``try`` bodies in the same function have no handler
    naming each exception of ``READ_GUARDS`` for it.

    Bare ``loads`` calls count too, as a ``from json import`` would bind them.
    """
    problems = []

    def caught_by(handler):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return {getattr(t, "id", None) for t in types}

    def visit(node, caught):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            caught = set()  # a try around a definition does not enclose its calls
        elif isinstance(node, ast.Try):
            inner = caught.union(*(caught_by(h) for h in node.handlers))
            for child in node.body:
                visit(child, inner)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, caught)
            return
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                on_json = getattr(func.value, "id", None) == "json"
                called = func.attr if func.attr != "loads" or on_json else None
            else:
                called = getattr(func, "id", None)
            missing = sorted(READ_GUARDS.get(called, set()) - caught)
            if missing:
                problems.append(f"{name}:{node.lineno}: {called}() outside a try that catches "
                                f"{' and '.join(missing)}")
        for child in ast.iter_child_nodes(node):
            visit(child, caught)

    visit(ast.parse(source), set())
    return problems


def test_text_reads_in_src_map_decode_errors():
    """A missing or unreadable file raises an ``OSError``, a file that is not UTF-8 raises
    ``UnicodeDecodeError`` and text that is not JSON raises ``JSONDecodeError``; the last
    two are ``ValueError``s. No exit code maps any of them, so each read must turn them
    into a typed error naming the file."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += unguarded_text_reads(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_text_read_check_tells_guarded_reads_from_bare_ones():
    source = ("import json\n"
              "from json import loads\n"
              "def f(path, line):\n"
              "    try:\n"
              "        text = path.read_text(encoding='utf-8')\n"
              "        obj = json.loads(line)\n"
              "        blob = path.read_bytes()\n"
              "    except OSError:\n"
              "        raise\n"
              "    except (KeyError, ValueError):\n"
              "        path.read_text()\n"
              "    else:\n"
              "        json.loads(text)\n"
              "    try:\n"
              "        def inner():\n"
              "            return path.read_bytes()\n"
              "        loads(line)\n"
              "        path.read_text()\n"
              "    except OSError:\n"
              "        pass\n"
              "    try:\n"
              "        for x in path.read_text().split():\n"
              "            pass\n"
              "        blob = path.read_bytes()\n"
              "    except ValueError:\n"
              "        pass\n"
              "    return obj, blob, inner, other.loads(line), json.dumps(obj), a.b.loads(line)\n")
    assert unguarded_text_reads(source, "m.py") == [
        "m.py:11: read_text() outside a try that catches OSError and ValueError",
        "m.py:13: loads() outside a try that catches ValueError",
        "m.py:16: read_bytes() outside a try that catches OSError",
        "m.py:17: loads() outside a try that catches ValueError",
        "m.py:18: read_text() outside a try that catches ValueError",
        "m.py:22: read_text() outside a try that catches OSError",
        "m.py:24: read_bytes() outside a try that catches OSError"]


def unused_locals(source: str, name: str) -> list:
    """One line per name that a function in ``source`` assigns and never reads.

    Reads anywhere in the function count, nested functions and comprehensions
    included; ``_``-prefixed names and names declared global or nonlocal are
    exempt.
    """
    problems = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, outer = {}, set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(stored.get(node.id, node.lineno), node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
        for var, line in sorted(stored.items(), key=lambda item: item[1]):
            if var not in read and var not in outer and not var.startswith("_"):
                problems.append(f"{name}:{line}: {fn.name}() assigns {var!r} and never reads it")
    return problems


def test_no_unused_locals_in_src():
    """A value nobody reads is dead code; name a deliberately ignored one ``_``."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += unused_locals(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_unused_locals_check_tells_dead_names_from_read_ones():
    source = ("def f(xs, n):\n"
              "    total = 0\n"
              "    dead = len(xs)\n"
              "    for i, x in enumerate(xs):\n"
              "        total += x\n"
              "    seen = [k for k, v in xs]\n"
              "    offset = 0\n"
              "    def bump():\n"
              "        nonlocal offset\n"
              "        offset += n\n"
              "    bump()\n"
              "    _ignored, kept = n, n\n"
              "    try:\n"
              "        pass\n"
              "    except ValueError as exc:\n"
              "        pass\n"
              "    return total, seen, offset, kept\n")
    assert unused_locals(source, "m.py") == [
        "m.py:3: f() assigns 'dead' and never reads it",
        "m.py:4: f() assigns 'i' and never reads it",
        "m.py:6: f() assigns 'v' and never reads it",
        "m.py:15: f() assigns 'exc' and never reads it"]


def unused_imports(source: str, name: str) -> list:
    """One line per name that an import in ``source`` binds and the module never reads.

    A read anywhere in the module counts, inside functions included; names
    listed in ``__all__`` count as read, and ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            read.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return [f"{name}:{line}: {var!r} is imported and never used"
            for var, line in sorted(bound, key=lambda b: b[1]) if var not in read]


def test_no_unused_imports_in_src():
    """An import nobody reads is dead code and hides what a module really depends on."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_unused_imports_check_tells_dead_imports_from_read_ones():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field, replace\n"
              "from .errors import DataError as Bad\n"
              "from .vocab import EOS\n"
              "__all__ = ['EOS']\n"
              "@dataclass\n"
              "class C:\n"
              "    x: list = field(default_factory=list)\n"
              "def f(path):\n"
              "    from .optim import adam_step, AdamState\n"
              "    adam_step(os.path.join(path))\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source, "m.py") == [
        "m.py:2: 'json' is imported and never used",
        "m.py:5: 'replace' is imported and never used",
        "m.py:6: 'Bad' is imported and never used",
        "m.py:13: 'AdamState' is imported and never used"]


def function_imports(source: str, name: str) -> list:
    """One line per ``import`` in ``source`` inside a function body, named by that function.

    Methods are named ``Class.method`` and nested functions ``outer.inner``.
    """
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.append(f"{name}:{child.lineno}: {'.'.join(scope)}() imports in its body")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            else:
                visit(child, scope + [child.name] if isinstance(child, ast.ClassDef) else scope,
                      in_function)

    visit(ast.parse(source), [], False)
    return found


def test_no_imports_inside_functions_in_src():
    """An import in a function body hides a module's dependencies and an import cycle."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += function_imports(path.read_text(encoding="utf-8"), path.name)
    assert not problems, "\n".join(problems)


def test_function_import_check_tells_body_imports_from_module_ones():
    source = ("import json\n"
              "from .optim import adam_step\n"
              "if json:\n"
              "    import os\n"
              "class Net:\n"
              "    from .vocab import EOS\n"
              "    def step(self):\n"
              "        from .optim import AdamState\n"
              "        def inner():\n"
              "            import math\n"
              "        return inner\n"
              "async def fetch():\n"
              "    if True:\n"
              "        import struct\n")
    assert function_imports(source, "m.py") == [
        "m.py:8: Net.step() imports in its body",
        "m.py:10: Net.step.inner() imports in its body",
        "m.py:14: fetch() imports in its body"]


RECORDERS = {("autodiff.py", "_op")}


def record_calls(source: str, name: str) -> list:
    """(``file:line``, enclosing function) for each ``.record(`` call in ``source``.

    Methods are named ``Class.method`` and nested functions ``outer.inner``;
    a call outside any function is in ``<module>``.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "record"):
                found.append((f"{name}:{child.lineno}", ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_tape_records_only_through_op():
    """``_op`` is the one place an op is recorded, so the tape's skip rule lives in
    ``backward`` alone instead of in each op."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        problems += [f"{where}: {fn}() calls .record("
                     for where, fn in record_calls(path.read_text(encoding="utf-8"), path.name)
                     if (path.name, fn) not in RECORDERS]
    assert not problems, "\n".join(problems)


def test_record_check_names_the_enclosing_function():
    source = ("def _op(tape, out, bwd):\n"
              "    tape.record(out, bwd)\n"
              "class Net:\n"
              "    def step(self, tape):\n"
              "        def bwd(g):\n"
              "            return g\n"
              "        tape.record(self.out, bwd)\n"
              "        self.log.record_event()\n"
              "def helper(tape):\n"
              "    def inner():\n"
              "        tape.record(x)\n"
              "    return inner\n"
              "tape.record(y)\n")
    assert record_calls(source, "m.py") == [
        ("m.py:2", "_op"), ("m.py:7", "Net.step"), ("m.py:11", "helper.inner"),
        ("m.py:13", "<module>")]


def _several_inputs(fn) -> bool:
    """True when op ``fn`` records directly, or passes ``_op`` more than one tensor input."""
    for node in ast.walk(fn):
        func = getattr(node, "func", None)
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        if callee == "record":
            return True
        if callee == "_op" and len(node.args) >= 3:
            inputs = node.args[2]
            if not (isinstance(inputs, ast.Tuple) and len(inputs.elts) == 1
                    and not isinstance(inputs.elts[0], ast.Starred)):
                return True
    return False


def _required(test) -> set:
    """The tensors whose ``.requires_grad`` an ``if`` test requires: alone or in an ``and``."""
    terms = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]
    return {ast.unparse(t.value) for t in terms
            if isinstance(t, ast.Attribute) and t.attr == "requires_grad"}


def unguarded_accums(source: str, name: str) -> list:
    """One line per ``_accum(x, <expression>)`` that no ``if x.requires_grad`` encloses,
    in the ``bwd`` of a module-level op with more than one tensor input.

    A bare name as the gradient is an array already made, so it needs no guard.
    """
    problems = []

    def check(node, guarded, op):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_accum"
                and len(node.args) == 2 and not isinstance(node.args[1], ast.Name)
                and ast.unparse(node.args[0]) not in guarded):
            x = ast.unparse(node.args[0])
            problems.append(f"{name}:{node.lineno}: {op}() computes {x}'s gradient "
                            f"without testing {x}.requires_grad")
        if isinstance(node, ast.If):
            check(node.test, guarded, op)
            for child in node.body:
                check(child, guarded | _required(node.test), op)
            for child in node.orelse:
                check(child, guarded, op)
            return
        for child in ast.iter_child_nodes(node):
            check(child, guarded, op)

    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and _several_inputs(fn):
            for node in ast.walk(fn):
                if isinstance(node, ast.FunctionDef) and node.name == "bwd":
                    check(node, set(), fn.name)
    return problems


def test_multi_input_ops_compute_only_required_gradients():
    """An op whose inputs are partly constants (token embeddings, feature rows) must not
    build their gradients only for ``_accum`` to drop them."""
    problems = unguarded_accums((SRC / "autodiff.py").read_text(encoding="utf-8"), "autodiff.py")
    assert not problems, "\n".join(problems)


def test_guard_check_tells_guarded_gradients_from_dropped_ones():
    source = ("def two(tape, a, b):\n"
              "    def bwd(g):\n"
              "        _accum(a, g)\n"
              "        _accum(b, g * 2.0)\n"
              "        if a.requires_grad and b.requires_grad:\n"
              "            _accum(a, g.T)\n"
              "        if a.requires_grad or b.requires_grad:\n"
              "            _accum(b, g.T)\n"
              "        else:\n"
              "            _accum(a, -g)\n"
              "    return _op(tape, a.data, (a, b), bwd)\n"
              "def one(tape, a):\n"
              "    def bwd(g):\n"
              "        _accum(a, g * 2.0)\n"
              "    return _op(tape, a.data, (a,), bwd)\n"
              "def many(tape, parts):\n"
              "    def bwd(g):\n"
              "        for p in parts:\n"
              "            if p.requires_grad:\n"
              "                _accum(p, g[0])\n"
              "            _accum(p, g[1])\n"
              "    return _op(tape, g, parts, bwd)\n"
              "def direct(tape, k, q):\n"
              "    def bwd(g):\n"
              "        if k.requires_grad:\n"
              "            _accum(q, g.T)\n"
              "    tape.record(out, bwd)\n")
    assert unguarded_accums(source, "m.py") == [
        "m.py:4: two() computes b's gradient without testing b.requires_grad",
        "m.py:8: two() computes b's gradient without testing b.requires_grad",
        "m.py:10: two() computes a's gradient without testing a.requires_grad",
        "m.py:21: many() computes p's gradient without testing p.requires_grad",
        "m.py:26: direct() computes q's gradient without testing q.requires_grad"]


REWARD_NAMES = {"RewardConfig", "_running_counts", "_prefix_rows", "latency_reward",
                "average_proportion", "step_rewards"}


def reward_uses(source: str, name: str) -> list:
    """One line per reward name in ``source`` that a ``from`` import binds or an
    attribute reads (``metrics.step_rewards``)."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used = [alias.name for alias in node.names if alias.name in REWARD_NAMES]
        else:
            used = [node.attr] if getattr(node, "attr", None) in REWARD_NAMES else []
        problems += [f"{name}:{node.lineno}: uses {var}" for var in used]
    return problems


def test_episode_code_knows_no_reward():
    """The stepper and the episode loop record transcripts and ``metrics.step_rewards``
    alone scores them, so a change to the reward touches one function."""
    problems = []
    for file in ("environment.py", "policies.py"):
        problems += reward_uses((SRC / file).read_text(encoding="utf-8"), file)
    assert not problems, "\n".join(problems)


def test_reward_check_finds_imports_and_attribute_reads():
    source = ("from .metrics import corpus_bleu, step_rewards\n"
              "from .metrics import RewardConfig as Cfg\n"
              "from . import metrics\n"
              "x = metrics.latency_reward(0, 0.0, cfg, True)\n"
              "y = metrics.corpus_bleu(hyps, refs)\n"
              "def f(t):\n"
              "    return t.rewards, average_proportion\n")
    assert reward_uses(source, "m.py") == [
        "m.py:1: uses step_rewards", "m.py:2: uses RewardConfig",
        "m.py:4: uses latency_reward"]


PERFBENCH = SRC.parent.parent / "perfbench"

# public names that nothing in src/ or perfbench/ uses yet, each with the ROADMAP item
# that wires it up; a name leaves this list when it gains a caller or is deleted
UNREFERENCED = {
    "patience_exceeded": "ROADMAP 3 (train_agent stops with it)",
    "validate_finite": "ROADMAP 7 (finiteness check after each update)",
    "load_manifest": "ROADMAP 5 (the task grid reads its datasets)",
    "ambiguous_text_ceiling": "ROADMAP 5 (the text-only ceiling in the table)",
    "attention_norm_profile": "ROADMAP 7 (simtlab report)",
    "lag_histogram": "ROADMAP 7 (simtlab report)",
    "write_transcripts": "ROADMAP 7 (transcripts.jsonl)",
    "read_transcripts": "ROADMAP 7 (simtlab report)",
    "differentiable_average_lagging": "ROADMAP 3 (evaluate reports DAL beside AL)",
}


def public_definitions(source: str) -> list:
    """Names of the module-level functions and classes in ``source`` without a leading ``_``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str) -> set:
    """Every name ``source`` uses as a variable or an attribute; defining one is no use."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_definition_in_src_is_referenced():
    """A public function or class with no caller is dead code: wire it to one or delete it."""
    used = set()
    for path in sorted(SRC.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        used |= referenced_names(path.read_text(encoding="utf-8"))
    unused = {name: path.name for path in sorted(SRC.rglob("*.py"))
              for name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in used}
    problems = [f"{where}: {name} has no reference in src/ or perfbench/"
                for name, where in sorted(unused.items()) if name not in UNREFERENCED]
    problems += [f"{name} is allowlisted but now referenced or gone"
                 for name in sorted(set(UNREFERENCED) - set(unused))]
    assert not problems, "\n".join(problems)


def test_reference_check_tells_definitions_from_uses():
    source = ("import numpy as np\n"
              "class Used:\n"
              "    def method(self):\n"
              "        return helper_attr\n"
              "class _Private:\n"
              "    pass\n"
              "def dead():\n"
              "    return Used()\n"
              "async def called_as_attribute():\n"
              "    pass\n"
              "x = np.mod.called_as_attribute\n")
    assert public_definitions(source) == ["Used", "dead", "called_as_attribute"]
    names = referenced_names(source)
    assert {"Used", "called_as_attribute", "helper_attr", "np"} <= names
    assert not {"dead", "method", "_Private"} & names


# *Config fields that nothing in src/ or perfbench/ reads yet, each with the ROADMAP item
# that reads it; a field leaves this list when it gains a reader or is deleted
UNREAD_FIELDS = {
    "RLTrainConfig.updates_per_epoch": "ROADMAP 3b (train_agent evaluates every so many)",
}


def config_fields(source: str) -> list:
    """``Class.field`` for each annotated field of a class in ``source`` named ``*Config``."""
    return [f"{node.name}.{item.target.id}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def read_attributes(source: str) -> set:
    """Every attribute name ``source`` reads; assigning one is no read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_config_field_is_read():
    """A knob that nothing reads only looks like it does something: read it or delete it."""
    read = set()
    for path in sorted(SRC.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py")):
        read |= read_attributes(path.read_text(encoding="utf-8"))
    unread = {name for path in sorted(SRC.rglob("*.py"))
              for name in config_fields(path.read_text(encoding="utf-8"))
              if name.split(".")[1] not in read}
    problems = [f"{name} is read nowhere in src/ or perfbench/"
                for name in sorted(unread - set(UNREAD_FIELDS))]
    problems += [f"{name} is allowlisted but now read or gone"
                 for name in sorted(set(UNREAD_FIELDS) - unread)]
    assert not problems, "\n".join(problems)


def test_config_field_check_tells_reads_from_assignments():
    source = ("@dataclass\n"
              "class TinyConfig:\n"
              "    \"\"\"Doc.\"\"\"\n"
              "    used: int = 1\n"
              "    stored: float = 0.5\n"
              "    LIMIT = 3\n"
              "class Helper:\n"
              "    other: int = 0\n"
              "def f(cfg):\n"
              "    cfg.stored = cfg.used + 1\n")
    assert config_fields(source) == ["TinyConfig.used", "TinyConfig.stored"]
    read = read_attributes(source)
    assert "used" in read and "stored" not in read
