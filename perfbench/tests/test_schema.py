"""Schema check of BENCHMARK.json against the benchmark's own spec.json.

Every name is well formed and used once; every per-layer metric names its
module, unit, the end-to-end metric it should move and the workload, and
all of these exist. Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class SchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.spec = metrics.load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end", "per_layer"})
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_command_and_paths(self):
        cmd = self.bench["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        self.assertTrue(all(isinstance(c, str) and len(c) <= 200 for c in cmd))
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for c in cmd[1:]:
            if "/" in c:
                self.assertTrue(any(c.startswith(p + "/") for p in paths), c)

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for section in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.bench[section]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads(self):
        ws = self.bench["workloads"]
        self.assertTrue(2 <= len(ws) <= 8)
        for w in ws:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertEqual([w["name"] for w in ws], list(run.WORKLOADS))
        self.assertEqual([w["name"] for w in ws],
                         [w["name"] for w in self.spec["workloads"]])

    def test_end_to_end(self):
        e2e = self.bench["end_to_end"]
        self.assertTrue(1 <= len(e2e) <= 16)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))
        self.assertEqual(
            e2e, [{k: m[k] for k in ("name", "unit", "better", "bound")}
                  for m in self.spec["end_to_end"]])

    def test_per_layer_matches_spec(self):
        layer = self.bench["per_layer"]
        self.assertTrue(1 <= len(layer) <= 128)
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(
            layer, [{k: m[k] for k in ("name", "unit", "better")}
                    for m in self.spec["per_layer"]])

    def test_every_layer_metric_names_module_metric_and_workload(self):
        modules = self.spec["modules"]
        for module, path in modules.items():
            self.assertRegex(module, NAME)
            self.assertTrue(os.path.isfile(os.path.join(ROOT, path)), path)
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for m in self.spec["per_layer"]:
            self.assertIn(m["module"], modules, m["name"])
            if not m["name"].startswith("trace."):
                self.assertTrue(
                    m["name"].startswith(m["module"].split(".")[0] + "."),
                    m["name"])
            self.assertTrue(m["moves"], m["name"])
            for move in m["moves"]:
                self.assertIn(move["metric"], e2e, m["name"])
                self.assertIn(move["workload"], workloads, m["name"])

    def test_seeds(self):
        seeds = self.spec["seeds"]
        self.assertNotEqual(seeds["main"], seeds["holdout"])


if __name__ == "__main__":
    unittest.main()
