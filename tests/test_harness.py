import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from dyadlab import martingale as mg
from dyadlab import measure as ms
from dyadlab.accretive import loads_accretive
from dyadlab.cli import main as cli_main
from dyadlab.grid import loads_system
from dyadlab.harness import (COVERAGE_ANCHORS, ExperimentConfig, _Runner,
                             emit_report, run_suite)
from dyadlab.measure import loads_measure


FAST = ("identities", "layers")


def fast_config(**kw):
    base = dict(atom_count=16, suites=FAST, mc_trials=20_000, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validates_shift_geometry():
    with pytest.raises(ValueError):
        ExperimentConfig(gamma=0.49, growth_exponent=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(suites=("bogus",))


def test_hilbert_kernel_needs_dimension_one():
    with pytest.raises(ValueError, match="hilbert kernel is defined in dimension 1"):
        ExperimentConfig(dimension=2)
    with pytest.raises(ValueError, match="hilbert"):
        ExperimentConfig.from_json(ExperimentConfig(dimension=2, kernel="riesz")
                                   .to_json().replace('"riesz"', '"hilbert"'))
    # the check adds no config field: the serialized config and its hash stay put
    assert ExperimentConfig().config_hash() == "f856377095f8f345"
    assert ExperimentConfig(dimension=2, kernel="riesz").config_hash() == "60a6802f33cf7575"


def test_config_roundtrip_and_hash():
    cfg = fast_config()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    assert cfg.q == pytest.approx(2.0)
    assert cfg.t_aux == pytest.approx(2.0 * max(2.0, cfg.p, cfg.q))
    # the finite-dimensional l^inf_m has cotype 2
    assert fast_config(lattice_rho=math.inf).t_aux == cfg.t_aux
    assert fast_config(lattice_rho=6.0).t_aux == 12.0


def test_run_deterministic_bytes():
    a = run_suite(fast_config())
    b = run_suite(fast_config())
    assert a.canonical_json() == b.canonical_json()
    assert a.passed


def test_emit_idempotent(tmp_path):
    report = run_suite(fast_config())
    emit_report(report, tmp_path)
    first = (tmp_path / "report.json").read_bytes()
    emit_report(report, tmp_path)
    assert (tmp_path / "report.json").read_bytes() == first
    rows = (tmp_path / "checks.csv").read_text().strip().splitlines()
    assert len(rows) == len(report.checks) + 1


def test_timings_beside_canonical_report(tmp_path):
    suites = FAST + ("badcubes",)
    first, second = (run_suite(fast_config(suites=suites)) for _ in range(2))
    emit_report(first, tmp_path / "a")
    emit_report(second, tmp_path / "b")
    for name in ("report.json", "checks.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "report.json").read_text() == first.canonical_json()
    timings = json.loads((tmp_path / "a" / "timings.json").read_text())
    assert set(timings["suite_s"]) == set(suites)
    assert all(t > 0.0 for t in timings["suite_s"].values())
    # only the badcubes rows carry their own timer in these suites
    timed = {f"{c.suite}/{c.name}" for c in first.checks if c.suite == "badcubes"}
    assert set(timings["check_s"]) == timed and timed
    assert sum(timings["check_s"].values()) <= timings["suite_s"]["badcubes"]


def test_timings_record_environment_outside_report(tmp_path, monkeypatch):
    report = run_suite(fast_config())
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    emit_report(report, tmp_path / "a")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    emit_report(report, tmp_path / "b")
    # the environment goes to timings.json only: report.json keeps its bytes
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes() == \
        report.canonical_json().encode("utf-8")
    env_a, env_b = (json.loads((tmp_path / d / "timings.json").read_text())["environment"]
                    for d in "ab")
    assert env_a == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "unset", "numpy": np.__version__}
    assert env_b == {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "unset",
                     "MKL_NUM_THREADS": "2", "numpy": np.__version__}


def test_report_carries_anchors():
    report = run_suite(fast_config())
    data = json.loads(report.canonical_json())
    anchors = {c["anchor"] for c in data["checks"]}
    assert all(a for a in anchors)
    assert "reconstruction.telescoping" in anchors
    assert anchors <= COVERAGE_ANCHORS


def test_full_run_matches_coverage_table():
    report = run_suite(ExperimentConfig(atom_count=16, mc_trials=20_000,
                                        sampler_trials=512, seed=5))
    anchors = {c.anchor for c in report.checks}
    assert anchors == COVERAGE_ANCHORS
    assert report.passed


def test_hard_error_keeps_traceback(tmp_path, monkeypatch):
    def _explode(*args, **kwargs):
        raise RuntimeError("reconstruction exploded")

    monkeypatch.setattr(mg, "reconstruct", _explode)
    report = run_suite(fast_config(suites=("identities",)))
    emit_report(report, tmp_path)
    # the canonical row is the bare failed row; the traceback goes to the CSV
    rows = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert rows == [{"suite": "identities", "name": "hard-error",
                     "anchor": "identities.hard-error", "passed": False,
                     "value": "nan", "bound": None, "stderr": 0.0}]
    with open(tmp_path / "hard_errors.csv", newline="", encoding="utf-8") as fh:
        errors = list(csv.DictReader(fh))
    assert len(errors) == 1
    assert errors[0]["error"] == "RuntimeError: reconstruction exploded"
    assert "in _explode" in errors[0]["traceback"]
    assert "in suite_identities" in errors[0]["traceback"]


def test_cli_run_exit_codes(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(fast_config().to_json())
    code = cli_main(["run", "--config", str(cfg_path), "--suite", "identities",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    code = cli_main(["report", "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"p\": 0.5}")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert cli_main(["report", "--out", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("field,value,message", [
    ("lattice_rho", 0.5, "lattice exponent rho must lie in [1, inf]"),
    ("lattice_m", 0, "value dimension m must be >= 1")])
def test_cli_invalid_lattice_exit_2(tmp_path, capsys, field, value, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({field: value}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_gen_fixture_files(tmp_path):
    cfg = fast_config()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    fx_dir = tmp_path / "fx"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(fx_dir)]) == 0
    for name in ("measure.json", "system_f.json", "system_g.json",
                 "accretive_f.json", "accretive_g.json", "config.json"):
        assert (fx_dir / name).exists()
    # the files are the fixtures a run of the same config uses
    pairf = _Runner(cfg).pair(grids="random")
    written_mu = loads_measure((fx_dir / "measure.json").read_text())
    assert np.array_equal(written_mu.positions, pairf.measure.positions)
    assert np.array_equal(written_mu.weights, pairf.measure.weights)
    for tag, ctx in (("f", pairf.ctx_f), ("g", pairf.ctx_g)):
        assert loads_system((fx_dir / f"system_{tag}.json").read_text()) == ctx.system
        written = loads_accretive((fx_dir / f"accretive_{tag}.json").read_text())
        assert written.values.keys() == ctx.accretive.values.keys()
        assert all(np.array_equal(written.values[k], v)
                   for k, v in ctx.accretive.values.items())

    # a file-profile config reads its measure back and writes it unchanged
    file_cfg = fast_config(measure_profile="file",
                           measure_file=str(fx_dir / "measure.json"))
    cfg_path.write_text(file_cfg.to_json())
    assert cli_main(["gen", "--config", str(cfg_path),
                     "--out", str(tmp_path / "fx2")]) == 0
    assert ((tmp_path / "fx2" / "measure.json").read_bytes()
            == (fx_dir / "measure.json").read_bytes())


def test_unknown_suite_is_config_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(fast_config().to_json())
    assert cli_main(["run", "--config", str(cfg_path), "--suite", "nope"]) == 2


def test_timings_record_peak_rss_per_suite(tmp_path):
    suites = FAST + ("badcubes",)
    first, second = (run_suite(fast_config(suites=suites)) for _ in range(2))
    emit_report(first, tmp_path / "a")
    emit_report(second, tmp_path / "b")
    # the high-water marks go to timings.json only: report.json keeps its bytes
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes() == \
        first.canonical_json().encode("utf-8")
    assert "rss" not in first.canonical_json()
    peaks = json.loads((tmp_path / "a" / "timings.json").read_text())["peak_rss_mib"]
    assert list(peaks) == list(suites)
    values = list(peaks.values())
    assert all(v > 0.0 for v in values)
    assert values == sorted(values)          # a high-water mark never falls


def test_adjoint_transpose_row_matches_dense(monkeypatch):
    # with many row blocks the check reports the error of the dense
    # comparison, bit for bit
    monkeypatch.setattr(ms, "BLOCK_PAIRS", 40)
    runner = _Runner(fast_config(suites=("identities",)))
    report = runner.run()
    ctx = runner.pair(grids="random").ctx_f
    n = ctx.measure.atom_count
    assert len(ms.row_blocks(n, n)) >= 8
    scales = list(ctx.scales)
    k_mid = scales[len(scales) // 2]
    adj = mg.weighted_adjoint(ctx.measure, mg.adapted_diff_matrix(ctx, k_mid))
    direct = np.column_stack([mg.adapted_diff_adjoint(ctx, e, k_mid) for e in np.eye(n)])
    row, = [c for c in report.checks if c.name == "adjoint-transpose"]
    assert row.value == float(np.max(np.abs(adj - direct)))


def test_identities_suite_memory():
    # the adjoint check holds one row block of its matrices at a time: about
    # 10 MiB once, at 512 atoms
    runner = _Runner(ExperimentConfig(seed=7, dimension=1, atom_count=512,
                                      suites=("identities",)))
    runner.pair(grids="random")              # the fixture is built outside the trace
    tracemalloc.start()
    try:
        runner.suite_identities()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in runner.report.checks)
    assert peak < 4 * 2 ** 20
