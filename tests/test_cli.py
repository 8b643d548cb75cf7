"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os

import pytest

from luceopt import assortment
from luceopt.cli import main


@pytest.fixture
def rev_ord_fail_file(tmp_path):
    doc = {
        "products": [
            {"id": 1, "revenue": 88.0, "attractiveness": 13.0},
            {"id": 2, "revenue": 47.0, "attractiveness": 26.0},
            {"id": 3, "revenue": 46.0, "attractiveness": 15.0},
        ],
        "a0": 55.0,
        "dominance": {"type": "threshold", "t": 0.6},
    }
    path = tmp_path / "rev_ord_fail.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fixed_price_num_file(tmp_path):
    utilities = [2.0] + [1.0] * 10
    doc = {
        "products": [
            {"id": i + 1, "revenue": 1.0, "attractiveness": math.exp(u), "utility": u}
            for i, u in enumerate(utilities)
        ],
        "a0": 1.0,
        "dominance": {"type": "threshold", "t": 1.0},
    }
    path = tmp_path / "fixed_price_num.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_unconstrained(self, capsys, rev_ord_fail_file):
        code, out, _ = run(capsys, ["solve", "--instance", rev_ord_fail_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["assortment"] == [1, 3]
        assert doc["revenue"] == pytest.approx(22.096, abs=1e-3)

    def test_capacity_one(self, capsys, rev_ord_fail_file):
        code, out, _ = run(
            capsys, ["solve", "--instance", rev_ord_fail_file, "--capacity", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["assortment"] == [1]
        assert doc["revenue"] == pytest.approx(16.824, abs=1e-3)

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, ["solve", "--instance", str(bad)])
        assert code == 1 and out == "" and err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["solve", "--instance", "/nonexistent.json"])
        assert code == 1 and err

    def test_method_tree_on_non_tree_is_exit_2(self, capsys, tmp_path):
        doc = {
            "products": [
                {"id": 1, "revenue": 1.0, "attractiveness": 3.0},
                {"id": 2, "revenue": 2.0, "attractiveness": 3.0},
                {"id": 3, "revenue": 3.0, "attractiveness": 1.0},
            ],
            "a0": 1.0,
            "dominance": {"type": "explicit", "edges": [[1, 3], [2, 3]]},
        }
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            ["solve", "--instance", str(path), "--capacity", "2", "--method", "tree"],
        )
        assert code == 2 and err

    def test_deterministic_output(self, capsys, rev_ord_fail_file):
        _, out1, _ = run(capsys, ["solve", "--instance", rev_ord_fail_file])
        _, out2, _ = run(capsys, ["solve", "--instance", rev_ord_fail_file])
        assert out1 == out2

    @pytest.mark.parametrize(
        "command, change, flags",
        [
            pytest.param("solve", lambda d: d.update(a0="1"), [], id="a0-string"),
            pytest.param("solve", lambda d: d.update(a0=True), [], id="a0-bool"),
            pytest.param("solve", lambda d: d["products"][0].update(id=1.5), [],
                         id="id-float"),
            pytest.param("solve", lambda d: d.update(
                dominance={"type": "explicit", "edges": [[2.7, 1]]}), [],
                id="edge-float"),
            pytest.param("solve", lambda d: d["dominance"].update(t="0.5"), [],
                         id="t-string"),
            pytest.param("price", lambda d: d["dominance"].update(t="0.5"), [],
                         id="price-t-string"),
            pytest.param("solve", lambda d: d["products"][1].update(revenue=math.nan),
                         [], id="revenue-nan"),
            pytest.param("solve", lambda d: d["products"][0].update(
                attractiveness=math.inf), [], id="attractiveness-inf"),
            pytest.param("price", lambda d: d["products"][0].update(utility=math.nan),
                         [], id="utility-nan"),
            pytest.param("price", lambda d: d["products"][2].update(id=5), [],
                         id="price-id-gap"),
            pytest.param("solve", lambda d: None, ["--eps", "nan"], id="eps-nan"),
            pytest.param("solve", lambda d: None, ["--eps", "inf"], id="eps-inf"),
            pytest.param("solve", lambda d: None, ["--eps", "-1"], id="eps-negative"),
        ],
    )
    def test_invalid_input_is_exit_1(self, capsys, tmp_path, command, change, flags):
        doc = {
            "products": [
                {"id": i, "revenue": r, "attractiveness": a, "utility": u}
                for i, r, a, u in ((1, 88.0, 13.0, 2.0), (2, 47.0, 26.0, 1.5),
                                   (3, 46.0, 15.0, 1.0))
            ],
            "a0": 55.0,
            "dominance": {"type": "threshold", "t": 0.6},
        }
        change(doc)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [command, "--instance", str(path)] + flags)
        assert code == 1 and out == ""
        assert "error" in err

    def test_non_convergence_is_exit_2(self, capsys, monkeypatch, rev_ord_fail_file):
        # The optimum {1, 3} is two Dinkelbach steps from the best singleton.
        monkeypatch.setattr(assortment, "_MAX_ITERATIONS", 1)
        code, out, err = run(capsys, ["solve", "--instance", rev_ord_fail_file])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "converge" in err

    @pytest.mark.parametrize("flags", [
        pytest.param([], id="unconstrained"),
        pytest.param(["--capacity", "1"], id="tree"),
        pytest.param(["--capacity", "1", "--method", "attcorr"], id="attcorr"),
        pytest.param(["--capacity", "1", "--method", "bruteforce"], id="bruteforce"),
    ])
    # r * a = 1e400 overflows (the true optimum is about 1e200); or each
    # r * a = 1e308 is finite but the revenue numerator of two overflows.
    @pytest.mark.parametrize("r, a, n", [
        pytest.param(1e200, 1e200, 2, id="product"),
        pytest.param(1e308, 1.0, 3, id="sum"),
    ])
    def test_revenue_times_attractiveness_overflow_is_exit_2(self, capsys, tmp_path,
                                                             flags, r, a, n):
        doc = {
            "products": [{"id": i, "revenue": r, "attractiveness": a}
                         for i in range(1, n + 1)],
            "a0": 1.0,
            "dominance": {"type": "explicit", "edges": []},
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["solve", "--instance", str(path)] + flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "overflow" in err

    # Every r * a is finite, but at lam = 5e307 the weight of product 2,
    # 1e-300 * 1e300 - lam * 1e300, overflows to -inf.
    @pytest.mark.parametrize("flags, method", [
        pytest.param([], "unconstrained", id="unconstrained"),
        pytest.param(["--capacity", "1"], "tree", id="tree"),
        pytest.param(["--capacity", "2", "--method", "attcorr"], "attcorr", id="attcorr"),
    ])
    def test_overflowing_dinkelbach_weight_is_answered(self, capsys, tmp_path,
                                                       flags, method):
        doc = {
            "products": [{"id": 1, "revenue": 1e308, "attractiveness": 1.0},
                         {"id": 2, "revenue": 1e-300, "attractiveness": 1e300}],
            "a0": 1.0,
            "dominance": {"type": "explicit", "edges": []},
        }
        path = tmp_path / "weight_overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["solve", "--instance", str(path)] + flags)
        assert code == 0 and err == ""
        assert json.loads(out) == {"assortment": [1], "revenue": 5e307, "method": method}


class TestPriceCommand:
    def test_fixed_policy(self, capsys, fixed_price_num_file):
        code, out, _ = run(
            capsys, ["price", "--instance", fixed_price_num_file, "--policy", "fixed"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["revenue"] == pytest.approx(1.0, abs=1e-6)
        assert doc["k"] == 1

    def test_tlm_opt_beats_hand_prices(self, capsys, fixed_price_num_file):
        code, out, _ = run(
            capsys, ["price", "--instance", fixed_price_num_file, "--policy", "tlm-opt"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["revenue"] >= 1.298
        assert doc["mode"] == "boundary-tight"
        assert len(doc["prices"]) == doc["k"] == 11

    def test_policy_ordering(self, capsys, fixed_price_num_file):
        values = {}
        for policy in ("fixed", "quasi", "tlm-opt"):
            _, out, _ = run(
                capsys,
                ["price", "--instance", fixed_price_num_file, "--policy", policy],
            )
            values[policy] = json.loads(out)["revenue"]
        assert values["fixed"] <= values["quasi"] + 1e-6
        assert values["quasi"] <= values["tlm-opt"] + 2e-6

    # u_2 < -20 puts quasi's last-price grid below 0.  Its refinement
    # window once left that grid and overflowed exp() (first case); the
    # infeasible last prices inside it must not warn either (second).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u2, t, a0", [
        (-1e6, 0.5, 1.0),
        (-700.0, math.exp(10.0) - 1.0, math.exp(-650.0)),
    ])
    def test_quasi_answers_a_last_utility_far_below_the_grid(self, capsys, tmp_path,
                                                             u2, t, a0):
        doc = {
            "products": [{"id": i, "revenue": 1.0, "attractiveness": 1.0, "utility": u}
                         for i, u in ((1, 0.0), (2, u2))],
            "a0": a0,
            "dominance": {"type": "threshold", "t": t},
        }
        path = tmp_path / "far_below.json"
        path.write_text(json.dumps(doc))
        revenue = {}
        for policy in ("fixed", "quasi"):
            code, out, err = run(capsys, ["price", "--instance", str(path),
                                          "--policy", policy])
            assert code == 0 and err == ""
            revenue[policy] = json.loads(out)["revenue"]
        assert revenue["quasi"] >= revenue["fixed"]

    def test_zero_outside_option_is_exit_2(self, capsys, tmp_path):
        doc = {
            "products": [{"id": 1, "revenue": 1.0, "attractiveness": 2.7,
                          "utility": 1.0}],
            "a0": 0.0,
            "dominance": {"type": "threshold", "t": 1.0},
        }
        path = tmp_path / "a0zero.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["price", "--instance", str(path)])
        assert code == 2 and err

    # Top utility 800: exp() overflows.  Top utility 700 with a0 = 1: the
    # Lambert W argument is e^699, beyond the range where it is accurate.
    @pytest.mark.parametrize("top", [800.0, 700.0])
    @pytest.mark.parametrize("policy", ["tlm-opt", "fixed", "quasi"])
    def test_utility_out_of_range_is_exit_2(self, capsys, tmp_path, policy, top):
        doc = {
            "products": [{"id": i, "revenue": 1.0, "attractiveness": 1.0, "utility": u}
                         for i, u in ((1, top), (2, 1.0))],
            "a0": 1.0,
            "dominance": {"type": "threshold", "t": 1.0},
        }
        path = tmp_path / "large_utility.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["price", "--instance", str(path),
                                      "--policy", policy])
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestVerifyCommand:
    def test_assortment_suite_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "assortment", "--count", "25", "--max-n", "8",
             "--seed", "2"],
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_pricing_suite_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "pricing", "--count", "6", "--max-n", "2",
             "--seed", "2"],
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_guard_exceeded_is_exit_1(self, capsys):
        code, _, err = run(
            capsys, ["verify", "--suite", "assortment", "--count", "1", "--max-n", "30"]
        )
        assert code == 1 and "guard" in err


class TestGenAndBench:
    def test_gen_is_stable_across_reruns(self, capsys, tmp_path):
        out1 = tmp_path / "g1"
        out2 = tmp_path / "g2"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                ["gen", "--n", "5", "--a0", "1", "--density", "0.2", "--seed", "7",
                 "--count", "3", "--out", str(out)],
            )
            assert code == 0
        names = sorted(os.listdir(out1))
        assert names == ["instance_0000.json", "instance_0001.json",
                         "instance_0002.json"]
        for name in names:
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_generated_instances_are_loadable(self, capsys, tmp_path):
        out = tmp_path / "g"
        run(capsys, ["gen", "--n", "4", "--a0", "1", "--density", "0.5",
                     "--seed", "3", "--count", "1", "--out", str(out)])
        code, solved, _ = run(
            capsys, ["solve", "--instance", str(out / "instance_0000.json")]
        )
        assert code == 0 and "revenue" in json.loads(solved)

    def test_bench_csv(self, capsys, tmp_path):
        cfg = {
            "experiment": "assortment",
            "cells": [{"n": 5, "a0": 1, "d": 0.0}, {"n": 5, "a0": 2, "d": 0.5}],
            "count": 10,
            "seed": 7,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        report = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, ["bench", "--config", str(cfg_path), "--out", str(report)]
        )
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4  # comment + header + 2 cells
        import csv as csv_mod

        rows = list(csv_mod.reader(lines[1:]))
        zero_cell = rows[1]
        assert float(zero_cell[1]) == 0.0  # d=0: RO is optimal

    def test_bench_bad_config_is_exit_1(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "nope", "cells": [],
                                        "count": 1, "seed": 0}))
        code, _, err = run(
            capsys, ["bench", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r.csv")]
        )
        assert code == 1 and err

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param({"experiment": "assortment", "cells": [], "count": 1,
                          "seed": 0}, id="empty-cells"),
            pytest.param({"experiment": "assortment", "cells": [{"a0": 1, "d": 0.2}],
                          "count": 1, "seed": 0}, id="missing-n"),
            pytest.param({"experiment": "assortment",
                          "cells": [{"n": None, "a0": 1, "d": 0.2}],
                          "count": 1, "seed": 0}, id="null-n"),
            pytest.param({"experiment": "pricing", "cells": [{"n": 0, "t": 1, "a0": 1}],
                          "count": 1, "seed": 0}, id="pricing-n-zero"),
            pytest.param({"experiment": "assortment",
                          "cells": [{"n": 5, "a0": math.nan, "d": 0.2}],
                          "count": 1, "seed": 0}, id="a0-nan"),
            pytest.param({"experiment": "pricing",
                          "cells": [{"n": 5, "t": math.inf, "a0": 1}],
                          "count": 1, "seed": 0}, id="t-inf"),
            pytest.param({"experiment": "assortment",
                          "cells": [{"n": 5, "a0": 1, "d": 0.2}],
                          "count": 1.9, "seed": 0}, id="count-float"),
            pytest.param({"experiment": "assortment",
                          "cells": [{"n": 5, "a0": 1, "d": 0.2}],
                          "count": 1, "seed": -1}, id="seed-negative"),
        ],
    )
    def test_bench_invalid_config_is_exit_1(self, capsys, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        report = tmp_path / "r.csv"
        code, out, err = run(
            capsys, ["bench", "--config", str(cfg_path), "--out", str(report)]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")
        assert not report.exists()
