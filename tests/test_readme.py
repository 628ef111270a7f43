import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def _run(source: str):
    """Run ``source`` one top-level statement at a time; return the namespace
    and the value of each expression statement, keyed by its code."""
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return namespace, values


def test_quick_start_runs_and_its_commented_values_hold():
    (source,) = _python_blocks()
    namespace, values = _run(source)
    q, a = namespace["q"], namespace["a"]
    lines = {line.split("#")[0].strip(): line for line in source.splitlines() if "#" in line}

    assert lines["q.drive_concurrence(a)"].endswith("= 0.7071")
    assert round(values["q.drive_concurrence(a)"], 4) == 0.7071

    # the bound of konrad_check, C(Choi) C(rho0); it tends to C(rho_D) as kt -> 0
    assert "konrad_check" in lines["q.concurrence(rho)"]
    bound = q.choi_concurrence_closed(namespace["spec"]) * q.concurrence(q.bell_state("phi+"))
    assert values["q.concurrence(rho)"] <= bound + 1e-9

    duality = "q.duality_distance(q.ChannelSpec(a=a, kt=0.01))"
    assert lines[duality].endswith("~ kt^2")
    doubled = q.duality_distance(q.ChannelSpec(a=a, kt=0.02))
    assert abs(doubled / values[duality] - 4.0) <= 0.04


def test_quick_start_resamples_from_another_seed_than_its_counts():
    # default_rng([seed, 0]) draws default_rng(seed)'s numbers, so with one seed
    # for both calls Monte-Carlo resample 0 would repeat the simulated counts
    (source,) = _python_blocks()
    seeds = {node.func.attr: ast.literal_eval(kw.value) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             for kw in node.keywords if kw.arg == "seed"}
    assert set(seeds) == {"simulate_counts", "monte_carlo_metric"}
    assert seeds["simulate_counts"] != seeds["monte_carlo_metric"]
