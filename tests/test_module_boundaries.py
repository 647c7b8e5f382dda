"""Each module of the package uses only the public names of the others, JSON
text and type annotations are each read in one place, each predicted exponent
and each law's sign facts are computed once, each process kind states its
feedback laws and companion form once and draws its own paths, one function
checks a return series, no default is built at import, one rule writes every
record, only the series reader and writer use the series cache, and the
package runs on numpy alone."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import kestenlab
import kestenlab.cli as cli
from kestenlab.distributions import (
    CoefficientLaw,
    Constant,
    Exponential,
    Normal,
    Record,
    Uniform,
)
from kestenlab.errors import InvalidConfig
from kestenlab.processes import Garch11, InverseMultiplier, KestenAR, KestenScalar, ProcessSpec

SRC = Path(kestenlab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for each ``_``-prefixed, non-dunder name ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("kestenlab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{node.module or '.'}.{name}")
    return found


def test_no_module_imports_another_modules_private_name():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _private_imports(path))
    }
    assert found == {}


def _callers(names: set[str]) -> list[str]:
    """``module.function`` around each call of a function spelled as one of ``names``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in names:
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_one_function_parses_json():
    # so every JSON text the package reads has its decode errors mapped in one place
    assert _callers({"json.loads", "json.load"}) == ["cli._load_json"]


def test_only_the_record_reader_resolves_annotations():
    assert _callers({"typing.get_type_hints", "get_type_hints"}) == ["distributions.read_record"]


def test_one_root_step_serves_both_moment_equations():
    assert _callers({"_increasing_root"}) == [
        "theory._moment_root",
        "theory.moment_lyapunov_root.root",
    ]


def test_one_doubling_scan_serves_the_moment_root_and_the_checklist():
    # E(c^mu) over mu = 1, 2, 4, ..., MU_CAP is walked in one loop
    assert _callers({"_doubling_scan"}) == [
        "theory._moment_root",
        "theory.kesten_conditions_report.lambda1",
    ]


def test_one_bracket_serves_the_scalar_and_order_one_moment_equations():
    assert _callers({"_moment_root"}) == ["theory.cramer_root", "theory.moment_lyapunov_root"]


def test_one_step_serves_the_path_kernel_and_the_matrix_monte_carlo():
    assert _callers({"companion_step"}) == [
        "processes._run_blocks",
        "theory._batched_log_norms",
    ]


def test_one_row_rule_serves_the_full_ccdf_and_the_sorted_sample():
    # ccdf.csv's rows are picked in one place, from distinct values or from ties
    assert _callers({"_plot_rows"}) == ["estimators.thin_ccdf", "estimators.tail_fit_with_ccdf"]


def test_one_function_predicts_the_unit_exponent():
    assert _callers({"unit_exponent_prediction"}) == ["cli.run"]


def test_one_function_states_the_return_series_rule():
    # nonempty, 1-d and finite float64, for a ReturnSeries and every estimator's input
    assert _callers({"series_values"}) == [
        "estimators.mean_std",
        "estimators.empirical_ccdf",
        "estimators.tail_fit_with_ccdf",
        "estimators.hill_estimator",
        "estimators.acf",
        "processes.ReturnSeries.__post_init__",
    ]


def test_one_rule_writes_every_record():
    # Record.to_dict writes each record and read_record reads it back
    assert _callers({"asdict", "dataclasses.asdict", "vars"}) == []
    modules = [importlib.import_module(f"kestenlab.{p.stem}") for p in SRC.glob("[!_]*.py")]
    writers = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, "to_dict")
    }
    assert {cli.RunSummary, cli.ExperimentConfig, Exponential, KestenAR} <= writers
    assert [cls.__name__ for cls in writers if not issubclass(cls, Record)] == []


def test_only_the_series_reader_and_writer_use_the_series_cache():
    # one function names the cache directory, the reader and writer alone reach
    # it, and an entry is read only by the checked .npy reader, never unpickled
    assert _callers({"_cache_dir"}) == ["processes._cache_get", "processes._cache_put"]
    assert _callers({"_cache_get"}) == ["processes.read_series_csv"]
    assert _callers({"_cache_put"}) == ["processes.write_series_csv"]
    assert _callers({"_read_npy"}) == ["processes.read_series_csv", "processes._cache_get"]
    assert _callers({"np.load", "numpy.load", "np.fromfile", "np.memmap"}) == ["processes._read_npy"]
    found = [p.stem for p in sorted(SRC.glob("*.py")) if "XDG_CACHE_HOME" in p.read_text()]
    assert found == ["processes"]


def test_no_function_default_is_built_at_import():
    # a default made by a call is one object shared by every call that omits it,
    # such as a random stream whose seed the caller never chose
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
                if any(isinstance(n, ast.Call) for d in defaults for n in ast.walk(d)):
                    found.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert found == []


def test_no_module_warns():
    # a bad input ends in a typed error, never in a warning and a made-up value
    assert _callers({"warnings.warn", "warn"}) == []


def test_the_sign_facts_are_derived_once_for_every_law():
    # each law states its support and density; the base class derives the rest
    laws = CoefficientLaw.__subclasses__()
    for name in ("nonnegative", "strictly_positive", "log_moment"):
        assert [law.__name__ for law in laws if name in vars(law)] == [], name
    assert [law.__name__ for law in [CoefficientLaw, *laws] if hasattr(law, "survival")] == []


def test_each_kind_states_its_feedback_laws_and_companion_form_once():
    # on its spec class: which kinds have a scalar recursion or an order-K form is
    # decided in processes, and the cli and theory read the facts
    assert _callers({"GarchCoefficient"}) == ["processes.Garch11.feedback"]
    assert _callers({"KestenAR"}) == ["processes.KestenScalar.companion"]


def test_each_kind_draws_its_own_paths():
    # a scalar spec draws as its order-1 companion, and GARCH's sigma2 is the scalar
    # recursion, so the kernel has two callers and no function switches on a kind
    assert _callers({"_companion_path"}) == ["processes.KestenAR.paths", "processes.Garch11.paths"]
    specs = {cls.__name__ for cls in typing.get_args(ProcessSpec)}
    checks = []
    tree = ast.parse((SRC / "processes.py").read_text())
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(function):
            if isinstance(call, ast.Call) and ast.unparse(call.func) == "isinstance":
                named = {node.id for node in ast.walk(call.args[1]) if isinstance(node, ast.Name)}
                checks += [function.name] if specs & named else []
    assert checks == ["garch11_paths"]


SPECS = [
    InverseMultiplier(Uniform(0.0, 1.0), Normal(0.0, 1.0)),
    KestenScalar(Exponential(0.55), Normal(0.0, 1.0)),
    KestenAR(Exponential(0.6), Normal(0.0, 1.0), (Constant(0.5), Constant(0.3))),
    Garch11(0.01, 0.09, 0.9),
]
KINDS_WITH = {"feedback": "kesten_scalar or garch11", "companion": "kesten_scalar or kesten_ar"}


def test_the_table_covers_every_kind_and_every_fact_an_analysis_names():
    assert [type(spec) for spec in SPECS] == list(typing.get_args(ProcessSpec))
    assert {a.needs for a in cli.ANALYSES.values()} == {None, *KINDS_WITH}


@pytest.mark.parametrize("spec", SPECS, ids=[spec.kind for spec in SPECS])
@pytest.mark.parametrize("name", [n for n, a in cli.ANALYSES.items() if a.needs is not None])
def test_an_analysis_accepts_a_kind_exactly_when_it_states_the_fact(spec, name):
    fact = cli.ANALYSES[name].needs
    if getattr(spec, fact) is not None:
        cli._analysis_params(name, {}, spec)
        return
    message = f"'{name}' analysis needs a {KINDS_WITH[fact]} process"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        cli._analysis_params(name, {}, spec)


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.stem}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


# A fresh interpreter imports the command line, then runs fig3.cfg and a GARCH
# config at 20,000 steps in process.  It prints the scipy modules loaded by the
# import, then the numpy modules that only the runs loaded.
IMPORT_THEN_RUN = """
import contextlib, io, json, sys
import kestenlab.cli as cli
from kestenlab.distributions import CoefficientLaw
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
before = set(sys.modules)
for config in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", config, "--output-dir", config + ".out"]) == 0
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")))
"""


FIG3 = json.loads((SRC / "configs" / "fig3.cfg").read_text())
FIG4 = json.loads((SRC / "configs" / "fig4.cfg").read_text())
GARCH = {
    "process": {"kind": "garch11", "omega": 0.01, "alpha": 0.09, "beta": 0.9, "sigma0": 0.1},
    "seed": 131,
    "burn_in": 1000,
    "analyses": {
        "tail_fit": {"threshold": None},
        "hill": {"k": 2000},
        "acf": {"max_lag": 50, "kinds": ["raw", "absolute"]},
        "cramer": {},
        "conditions": {},
    },
}


def _keys(value) -> list[str]:
    """Every object key in a JSON value, nested ones included."""
    if isinstance(value, dict):
        return [k for key, v in value.items() for k in (key, *_keys(v))]
    if isinstance(value, list):
        return [k for v in value for k in _keys(v)]
    return []


@pytest.mark.parametrize("config", [FIG3, GARCH], ids=["fig3", "garch"])
def test_summary_names_the_predicted_exponent_once(tmp_path, config):
    config = cli.config_from_dict({**config, "n_samples": 20_000, "output_dir": None})
    cli.run(config, output_dir=tmp_path)
    keys = _keys(json.loads((tmp_path / "summary.json").read_text()))
    assert (keys.count("mu_star"), keys.count("regime_case")) == (1, 0)


def test_cli_loads_no_scipy_and_runs_load_no_numpy_module(tmp_path):
    configs = []
    for name, config in (("fig3", FIG3), ("garch", GARCH)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(json.dumps({**config, "n_samples": 20_000, "output_dir": None}))
        configs.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_THEN_RUN, *configs], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    scipy_modules, new_numpy_modules = map(json.loads, proc.stdout.splitlines())
    assert (scipy_modules, new_numpy_modules) == ([], [])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# A fresh interpreter installs the benchmark tracer, then runs the commands of
# every benchmark workload, each argv a JSON list on the command line, at a
# small size in process.  It prints their exit codes and the traced layers.
TRACED_COMMANDS = """
import contextlib, io, json, sys
import kestenlab.cli as cli
import spans
tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps({"codes": codes, "layers": tracer.layers()}))
"""


@pytest.mark.skipif(not (PERFBENCH / "spans.py").exists(), reason="no perfbench/spans.py")
def test_the_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # spans.install reads each wrapped name with getattr and no default, and a
    # hook reads the arguments of the call it wraps (on_log_norms the horizons,
    # on_ccdf_csv the file it stats): either would fail only in a traced run
    bench = ast.parse((PERFBENCH / "run.py").read_text())
    garch = next(
        ast.literal_eval(node.value) for node in bench.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "GARCH_CONFIG"
    )
    commands = []
    for name, config in (("fig3", FIG3), ("fig4", FIG4), ("garch", garch)):
        config = {**config, "seed": 131, "output_dir": None}
        if name != "garch":  # the benchmark runs its GARCH config as it is
            config["n_samples"] = 20_000
        (tmp_path / f"{name}.cfg").write_text(json.dumps(config))
        commands.append(["run", f"{name}.cfg", "--output-dir", name])
    gen = np.random.default_rng(7)
    close = 100.0 * np.exp(np.cumsum(0.01 * gen.standard_t(4, 2000)))
    lines = [f"d{i},{c!r}" for i, c in enumerate(close.tolist())]
    (tmp_path / "prices.csv").write_text("date,close\n" + "\n".join(lines) + "\n")
    commands += [
        ["ingest", "prices.csv", "--out", "returns.csv"],
        ["fit-tail", "returns.csv"],
        ["acf", "returns.csv", "--max-lag", "10", "--absolute"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(PERFBENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, *map(json.dumps, commands)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["codes"] == [0] * len(commands), proc.stderr
    layers = traced["layers"]
    for key in (
        "processes.simulate_s", "processes.steps", "processes.series_csv_bytes",
        "estimators.ccdf_points", "estimators.ccdf_csv_bytes",
        "theory.cramer_calls", "theory.matrix_products",
    ):
        assert layers[key] > 0, key
