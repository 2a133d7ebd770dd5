"""Tests for the hedgecut-experiments command-line interface."""

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_is_addressable(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_all_keyword(self):
        args = build_parser().parse_args(["all"])
        assert args.experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_dataset_filter(self):
        args = build_parser().parse_args(["figure4b", "--datasets", "income", "heart"])
        assert args.datasets == ["income", "heart"]

    def test_scale_and_trees(self):
        args = build_parser().parse_args(["figure3", "--scale", "0.5", "--trees", "20"])
        assert args.scale == 0.5
        assert args.trees == 20


class TestMain:
    def test_table1_prints_rows(self, capsys):
        exit_code = main(["table1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "income" in output

    def test_main_returns_zero(self):
        assert main(["table1"]) == 0


class TestServe:
    """``serve`` drives an in-process engine through the serving simulator."""

    @staticmethod
    def _serve(capsys, unlearn_fraction):
        argv = [
            "serve", "--serving", "inprocess", "--datasets", "income",
            "--scale", "0.002", "--trees", "2", "--readers", "2",
            "--requests", "200", "--batch", "16",
            "--unlearn-fraction", str(unlearn_fraction),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return {line.split()[0]: line for line in lines[1:]}

    def test_reports_dispatches_and_latencies(self, capsys):
        report = self._serve(capsys, unlearn_fraction=0.02)
        assert "(4 unlearnings, batch 16)" in report["requests"]
        dispatches = int(report["throughput"].split("(")[1].split()[0])
        # 196 predictions in windows of 16; each deletion cuts one window.
        assert 13 <= dispatches <= 13 + 4
        for name in ("batch", "unlearn"):  # "  batch p50   12 us"
            _, _, p50, unit = report[name].split()
            assert float(p50.replace(",", "")) > 0 and unit == "us"

    def test_prediction_only_run_reports_no_unlearn_latency(self, capsys):
        report = self._serve(capsys, unlearn_fraction=0.0)
        assert "(0 unlearnings, batch 16)" in report["requests"]
        assert "(13 dispatches)" in report["throughput"]
        assert "unlearn" not in report
