"""Safe evaluation of proxy adaptation functions.

The paper's proxy units carry a transform *f* written as a Python lambda
string (e.g. ``"lambda x: x"`` in Figure 3). Executing arbitrary strings
from an LLM with ``eval`` would be an injection hole, so this module
implements a restricted AST interpreter:

* only lambda expressions (or bare expressions over a single ``x``);
* arithmetic/boolean/comparison operators, conditional expressions,
  comprehensions, subscripts, slices, f-string-free literals;
* a whitelist of builtins (len/min/max/sum/abs/round/sorted/zip/map/...),
  plus whitelisted *methods* on str/list/dict values;
* no attribute starting with ``_``, no imports, no calls to anything else.
"""

from __future__ import annotations

import ast as pyast
from typing import Any, Callable

_ALLOWED_BUILTINS: dict[str, Callable] = {
    "len": len,
    "min": min,
    "max": max,
    "sum": sum,
    "abs": abs,
    "round": round,
    "sorted": sorted,
    "reversed": lambda x: list(reversed(x)),
    "zip": lambda *xs: list(zip(*xs)),
    "map": lambda f, x: [f(v) for v in x],
    "filter": lambda f, x: [v for v in x if f(v)],
    "list": list,
    "tuple": tuple,
    "dict": dict,
    "set": set,
    "str": str,
    "int": int,
    "float": float,
    "bool": bool,
    "range": range,
    "enumerate": lambda x: list(enumerate(x)),
    "any": any,
    "all": all,
}

_ALLOWED_METHODS = {
    "upper", "lower", "strip", "split", "join", "replace", "startswith",
    "endswith", "format", "title", "get", "keys", "values", "items",
    "index", "count", "append", "extend",
}


class TransformError(ValueError):
    """Raised when a transform string is rejected or fails at runtime."""


def compile_transform(source: str) -> Callable[..., Any]:
    """Compile a transform string into a safe callable.

    Accepts ``"lambda a, b: ..."`` or a bare expression over ``x``.
    """
    source = (source or "").strip()
    if not source:
        return identity
    try:
        tree = pyast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise TransformError(f"transform is not a valid expression: {exc}") from None
    body = tree.body
    if isinstance(body, pyast.Lambda):
        param_names = [a.arg for a in body.args.args]
        if body.args.vararg or body.args.kwarg or body.args.kwonlyargs:
            raise TransformError("transform lambdas take plain positional args only")
        expr = body.body
        if param_names == [getattr(expr, "id", None)]:
            return identity  # ``lambda x: x``, the paper's Figure 3 form
    else:
        param_names = ["x"]
        expr = body
    _validate(expr)

    def transform(*args: Any) -> Any:
        if len(args) != len(param_names):
            raise TransformError(
                f"transform expects {len(param_names)} argument(s), got {len(args)}"
            )
        env = dict(zip(param_names, args))
        try:
            return _Interpreter(env).eval(expr)
        except TransformError:
            raise
        except Exception as exc:
            raise TransformError(f"transform failed: {exc}") from exc

    transform.__transform_source__ = source
    transform.__transform_params__ = tuple(param_names)
    return transform


def identity(x: Any) -> Any:
    """The default adaptation function; :func:`compile_transform` returns
    it for an empty source and for ``lambda x: x``, and the proxy does not
    call it."""
    return x


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_ALLOWED_NODES = (
    pyast.Expression, pyast.BinOp, pyast.UnaryOp, pyast.BoolOp, pyast.Compare,
    pyast.IfExp, pyast.Call, pyast.Name, pyast.Load, pyast.Constant,
    pyast.List, pyast.Tuple, pyast.Dict, pyast.Set, pyast.Subscript,
    pyast.Slice, pyast.ListComp, pyast.SetComp, pyast.DictComp,
    pyast.GeneratorExp, pyast.comprehension, pyast.Store, pyast.Attribute,
    pyast.Lambda, pyast.arguments, pyast.arg, pyast.keyword, pyast.Starred,
    pyast.Add, pyast.Sub, pyast.Mult, pyast.Div, pyast.FloorDiv, pyast.Mod,
    pyast.Pow, pyast.USub, pyast.UAdd, pyast.Not, pyast.And, pyast.Or,
    pyast.Eq, pyast.NotEq, pyast.Lt, pyast.LtE, pyast.Gt, pyast.GtE,
    pyast.In, pyast.NotIn, pyast.Is, pyast.IsNot,
)


def _validate(node: pyast.AST) -> None:
    for child in pyast.walk(node):
        if not isinstance(child, _ALLOWED_NODES):
            raise TransformError(
                f"transform uses a forbidden construct: {type(child).__name__}"
            )
        if isinstance(child, pyast.Attribute):
            if child.attr.startswith("_"):
                raise TransformError("underscore attributes are forbidden")
            if child.attr not in _ALLOWED_METHODS:
                raise TransformError(f"method {child.attr!r} is not whitelisted")


# --------------------------------------------------------------------------
# interpretation
# --------------------------------------------------------------------------


class _Interpreter:
    def __init__(self, env: dict[str, Any]):
        self.env = env

    def eval(self, node: pyast.AST) -> Any:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            raise TransformError(f"cannot evaluate {type(node).__name__}")
        return method(node)

    def _eval_Constant(self, node):
        return node.value

    def _eval_Name(self, node):
        if node.id in self.env:
            return self.env[node.id]
        if node.id in _ALLOWED_BUILTINS:
            return _ALLOWED_BUILTINS[node.id]
        raise TransformError(f"unknown name {node.id!r}")

    def _eval_BinOp(self, node):
        left, right = self.eval(node.left), self.eval(node.right)
        ops = {
            pyast.Add: lambda a, b: a + b,
            pyast.Sub: lambda a, b: a - b,
            pyast.Mult: lambda a, b: a * b,
            pyast.Div: lambda a, b: a / b,
            pyast.FloorDiv: lambda a, b: a // b,
            pyast.Mod: lambda a, b: a % b,
            pyast.Pow: lambda a, b: a ** b,
        }
        return ops[type(node.op)](left, right)

    def _eval_UnaryOp(self, node):
        value = self.eval(node.operand)
        if isinstance(node.op, pyast.USub):
            return -value
        if isinstance(node.op, pyast.UAdd):
            return +value
        if isinstance(node.op, pyast.Not):
            return not value
        raise TransformError("unsupported unary operator")

    def _eval_BoolOp(self, node):
        if isinstance(node.op, pyast.And):
            result = True
            for value_node in node.values:
                result = self.eval(value_node)
                if not result:
                    return result
            return result
        result = False
        for value_node in node.values:
            result = self.eval(value_node)
            if result:
                return result
        return result

    def _eval_Compare(self, node):
        left = self.eval(node.left)
        ops = {
            pyast.Eq: lambda a, b: a == b,
            pyast.NotEq: lambda a, b: a != b,
            pyast.Lt: lambda a, b: a < b,
            pyast.LtE: lambda a, b: a <= b,
            pyast.Gt: lambda a, b: a > b,
            pyast.GtE: lambda a, b: a >= b,
            pyast.In: lambda a, b: a in b,
            pyast.NotIn: lambda a, b: a not in b,
            pyast.Is: lambda a, b: a is b,
            pyast.IsNot: lambda a, b: a is not b,
        }
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval(comparator)
            if not ops[type(op)](left, right):
                return False
            left = right
        return True

    def _eval_IfExp(self, node):
        return self.eval(node.body) if self.eval(node.test) else self.eval(node.orelse)

    def _eval_List(self, node):
        return [self.eval(e) for e in node.elts]

    def _eval_Tuple(self, node):
        return tuple(self.eval(e) for e in node.elts)

    def _eval_Set(self, node):
        return {self.eval(e) for e in node.elts}

    def _eval_Dict(self, node):
        return {
            self.eval(k): self.eval(v) for k, v in zip(node.keys, node.values)
        }

    def _eval_Subscript(self, node):
        container = self.eval(node.value)
        index = self.eval(node.slice)
        return container[index]

    def _eval_Slice(self, node):
        return slice(
            self.eval(node.lower) if node.lower else None,
            self.eval(node.upper) if node.upper else None,
            self.eval(node.step) if node.step else None,
        )

    def _eval_Attribute(self, node):
        value = self.eval(node.value)
        return getattr(value, node.attr)

    def _eval_Call(self, node):
        fn = self.eval(node.func)
        args = []
        for arg in node.args:
            if isinstance(arg, pyast.Starred):
                args.extend(self.eval(arg.value))
            else:
                args.append(self.eval(arg))
        kwargs = {kw.arg: self.eval(kw.value) for kw in node.keywords}
        return fn(*args, **kwargs)

    def _eval_Lambda(self, node):
        params = [a.arg for a in node.args.args]
        outer = dict(self.env)

        def closure(*args):
            env = dict(outer)
            env.update(zip(params, args))
            return _Interpreter(env).eval(node.body)

        return closure

    def _eval_ListComp(self, node):
        return list(self._comprehension(node.generators, lambda: self.eval(node.elt)))

    def _eval_SetComp(self, node):
        return set(self._comprehension(node.generators, lambda: self.eval(node.elt)))

    def _eval_GeneratorExp(self, node):
        return list(self._comprehension(node.generators, lambda: self.eval(node.elt)))

    def _eval_DictComp(self, node):
        return dict(
            self._comprehension(
                node.generators,
                lambda: (self.eval(node.key), self.eval(node.value)),
            )
        )

    def _comprehension(self, generators, produce):
        results: list[Any] = []

        def rec(level: int) -> None:
            if level == len(generators):
                results.append(produce())
                return
            gen = generators[level]
            iterable = self.eval(gen.iter)
            for item in iterable:
                self._bind_target(gen.target, item)
                if all(self.eval(cond) for cond in gen.ifs):
                    rec(level + 1)

        rec(0)
        return results

    def _bind_target(self, target: pyast.AST, value: Any) -> None:
        if isinstance(target, pyast.Name):
            self.env[target.id] = value
        elif isinstance(target, pyast.Tuple):
            values = list(value)
            if len(values) != len(target.elts):
                raise TransformError("cannot unpack comprehension target")
            for sub, v in zip(target.elts, values):
                self._bind_target(sub, v)
        else:
            raise TransformError("unsupported comprehension target")
