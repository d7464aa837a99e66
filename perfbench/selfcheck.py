"""Self-checks of the benchmark itself, on small (smoke) inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/selfcheck.py

They fail loudly when a workload stops isolating the layers it was chosen
for, when tracing changes a result or a count, or when the exact-result
gates stop catching a wrong answer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import import_hilbtaut  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def passes():
    """Per workload: one untraced and two traced smoke passes, and the gate verdict."""
    out = {}
    for workload in workloads.WORKLOADS:
        bench = run.Bench(ROOT, workload, SEED, smoke=True)
        try:
            base = bench.run_pass(values=True)
            traced = [bench.run_pass(trace=True) for _ in range(2)]
            ref = bench.reference(base)
        finally:
            bench.close()
        out[workload] = {"base": base, "traced": traced, "ref": ref, "inputs": bench.inputs}
    return out


def layers(passes, workload):
    return passes[workload]["traced"][0]["layers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_results_are_exact_and_tracing_keeps_them(passes, workload):
    p = passes[workload]
    assert len(p["ref"]) == len(p["base"]["results"])
    assert run.Bench.count_failed([p["base"]] + p["traced"], p["ref"]) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_passes(passes, workload):
    first, second = (t["layers"] for t in passes[workload]["traced"])
    counts = [name for name in first if run.layer_unit(name) != "s"]
    assert counts and {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_deep_gamma_isolates_the_engine(passes):
    lay = layers(passes, "deep_gamma")
    assert lay["transfer.transfer.calls"] == 0
    assert lay["cli.invocations"] == 0
    assert lay["tautmod.gamma_action.calls"] > 0
    engine = sum(lay[n + ".self_s"] for n in ("tautmod", "charpoly", "basering",
                                              "partitions", "family"))
    job_s = sum(passes["deep_gamma"]["traced"][0]["latencies_s"])
    assert engine >= 0.8 * job_s


def test_oracle_check_bypasses_the_engine(passes):
    lay = layers(passes, "oracle_check")
    for name in ("charpoly.new.calls", "charpoly.add.calls", "charpoly.mul.calls",
                 "tautmod.gamma_action.calls"):
        assert lay[name] == 0, name
    assert lay["oracle.ordered_disc.calls"] > 0
    assert lay["tensym.discriminant_op.calls"] > 0


def test_flag_pushdown_goes_through_the_transfer_tower(passes):
    lay = layers(passes, "flag_pushdown")
    assert lay["cli.invocations"] == 0
    assert lay["transfer.transfer.calls"] > 0
    assert lay["transfer.transfer.self_s"] > 0
    assert lay["chern.push_monomial.calls"] > 0


def test_family_sweep_runs_every_job_through_the_cli(passes):
    lay = layers(passes, "family_sweep")
    assert lay["cli.invocations"] == len(passes["family_sweep"]["base"]["results"])
    assert lay["family.boundary_family.built"] > 0


@pytest.mark.parametrize("workload", ["family_sweep", "oracle_check"])
def test_seeded_inputs_repeat_and_differ(workload):
    def render(seed):
        inputs = workloads.make_inputs(workload, seed)
        if workload == "family_sweep":
            return [workloads.descriptor_text(d).encode() for d in inputs["descriptors"]]
        return inputs["case_seeds"]

    assert render(3) == render(3)
    assert render(3) != render(4)
    assert len(set(render(3))) == len(render(3))


def test_sweep_descriptors_parse_to_the_generated_family():
    mods = import_hilbtaut(str(ROOT / "src"))
    for desc in workloads.make_inputs("family_sweep", SEED, smoke=True)["descriptors"]:
        path = ROOT / run.OUT_DIR / "selfcheck.ini"
        path.parent.mkdir(exist_ok=True)
        path.write_text(workloads.descriptor_text(desc))
        try:
            parsed = mods["cli"].load_descriptor(str(path))
        finally:
            path.unlink()
        built = gates.sweep_family(mods, desc)
        assert parsed.chars == built.chars
        assert [(n.node_id, n.weight) for n in parsed.nodes] == [
            (n.node_id, n.weight) for n in built.nodes
        ]


def test_gates_reject_wrong_results(passes):
    mods = import_hilbtaut(str(ROOT / "src"))
    for workload in workloads.WORKLOADS:
        p = passes[workload]
        values = {r["name"]: r["value"] for r in p["base"]["results"]}
        for name, value in values.items():
            wrong = dict(values)
            if "poly" in value:
                wrong[name] = {"poly": value["poly"] + [[[["zz", 1]], "1"]]}
            elif "text" in value:
                wrong[name] = {"text": json.dumps({"cases": 1, "failures": 1})
                               if workload == "oracle_check" else '"1/7"'}
            else:
                continue
            verdict = gates.check(workload, p["inputs"], wrong, mods)
            if workload in ("family_sweep", "oracle_check") or name in (
                "trisecant_count", "single_curve_trisecant_scroll"
            ) or name.startswith("gamma:three_node"):
                assert verdict[name], (workload, name)


def test_pinned_goldens_catch_a_changed_result():
    mods = import_hilbtaut(str(ROOT / "src"))
    goldens = json.loads((HERE / "goldens.json").read_text())["deep_gamma"]
    name = "gamma:one_node:7:8"
    verdict = gates.check("deep_gamma", {"gamma": []}, {name: {"poly": []}}, mods, goldens)
    assert verdict[name]


def test_benchmark_json_names_every_printed_metric(passes):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    printed = {n for n in layers(passes, "deep_gamma") if not n.startswith("trace.")}
    printed |= {"trace.overhead_ratio", "repo.src_lines"}
    assert {m["name"] for m in spec["per_layer"]} == printed


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_gamma", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
