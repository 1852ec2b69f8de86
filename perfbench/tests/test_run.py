"""Checks of perfbench/run.py and BENCHMARK.json: bad input fails at the
boundary, and the metric lists agree with the driver."""

import contextlib
import importlib.util
import io
import json
import os
import re
import unittest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(os.path.dirname(__file__), "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def parses(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            run.parse_args(argv)
            return True
        except SystemExit:
            return False


class ArgsTest(unittest.TestCase):
    def test_accepts_well_formed_input(self):
        a = run.parse_args(["--workload", "fig6_study", "--seed", "7",
                            "--seconds", "10", "--trace", "1"])
        self.assertEqual((a.workload, a.seed, a.seconds, a.trace),
                         ("fig6_study", 7, 10, "1"))
        self.assertEqual(run.parse_args(["--workload", "cmp_chip"]).seed, 0)
        self.assertEqual(
            run.parse_args(["--workload", "cmp_chip", "--seed",
                            str(2**64 - 1)]).seed, 2**64 - 1)

    def test_rejects_bad_input(self):
        base = {"--workload": "suite_serial", "--seed": "1",
                "--seconds": "10", "--trace": "0"}
        bad = [("--workload", "gzip"), ("--seed", "12x"), ("--seed", "-1"),
               ("--seed", "+1"), ("--seed", " 1"), ("--seed", ""),
               ("--seed", "1_000"), ("--seed", str(2**64)),
               ("--seconds", "0"), ("--seconds", "3601"),
               ("--seconds", "1.5"), ("--trace", "2"), ("--trace", "yes")]
        for flag, value in bad:
            argv = [x for k, v in {**base, flag: value}.items() for x in (k, v)]
            self.assertFalse(parses(argv), (flag, value))
        self.assertFalse(parses(["--seed", "1"]))
        self.assertFalse(parses(["--workload", "suite_serial", "--verbose"]))


class MetricListTest(unittest.TestCase):
    """The driver's metric tables must match BENCHMARK.json."""

    def test_driver_tables_match_benchmark_json(self):
        here = os.path.dirname(__file__)
        with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(here, "..", "src", "harness.cc")) as f:
            source = f.read()

        def table(name):
            body = re.search(name + r" = \{(.*?)\n\};", source, re.S).group(1)
            return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)

        end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        # setup_s is added by run.py as a median over processes.
        self.assertEqual(end_to_end[0], ("setup_s", "s"))
        self.assertEqual(table("kEndToEnd"), end_to_end[1:])
        self.assertEqual(table("kPerLayer"),
                         [(m["name"], m["unit"]) for m in bench["per_layer"]])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
