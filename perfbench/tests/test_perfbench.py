"""Tests of the benchmark's own code: the seeded spec generators, the
stdout digest check and the span self-time arithmetic.

    python3 perfbench/tests/test_perfbench.py
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402
import spans  # noqa: E402
import specgen  # noqa: E402


def sections_of(text):
    """[(name, {key: value text})] of spec text."""
    out = []
    for line in text.splitlines():
        m = re.match(r"\[scenario (.+)\]$", line)
        if m:
            out.append((m.group(1), {}))
        elif " = " in line:
            key, value = line.split(" = ")
            out[-1][1][key] = value
    return out


def ints(value):
    return [int(v) for v in value.split(",")]


class SpecGeneratorTest(unittest.TestCase):

    def test_same_seed_same_bytes(self):
        for workload in specgen.GENERATORS:
            self.assertEqual(specgen.spec_text(workload, 7),
                             specgen.spec_text(workload, 7))
            self.assertEqual(specgen.one_case_text(workload, 7),
                             specgen.one_case_text(workload, 7))

    def test_seeds_differ(self):
        for workload in ("moe_sweep", "gating_sweep"):
            texts = {specgen.spec_text(workload, s) for s in range(5)}
            self.assertEqual(len(texts), 5, workload)

    def test_moe_sweep_envelope(self):
        for seed in range(5):
            text = specgen.spec_text("moe_sweep", seed)
            families = set()
            tuples = set()
            for _, keys in sections_of(text):
                families.add(keys["family"])
                self.assertGreaterEqual(min(ints(keys["batch"])), 64)
                for chips in ints(keys["chips"]):
                    self.assertIn(chips, specgen.CHIPS)
                if keys["family"] == "moe":
                    self.assertLessEqual(int(keys["top_k"]),
                                         int(keys["experts"]))
                tuples.add(tuple(sorted((k, v) for k, v in keys.items()
                                        if k not in ("batch", "chips"))))
            self.assertEqual(families,
                             {"moe", "llama-prefill", "llama-decode"})
            # Distinct section tuples: every expanded case is new.
            self.assertEqual(len(tuples), len(sections_of(text)))
            self.assertGreaterEqual(specgen.case_count("moe_sweep", seed),
                                    3000)

    def test_gating_sweep_envelope(self):
        text = specgen.spec_text("gating_sweep", 3)
        sections = sections_of(text)
        # The spec parser expands at most 4096 scenarios.
        self.assertLessEqual(len(sections), 4096)
        for _, keys in sections:
            self.assertGreater(float(keys["delay_scale"]), 0)
            self.assertLess(float(keys["sram_off"]),
                            float(keys["sram_sleep"]))
            self.assertLess(float(keys["logic_off"]), 1)
        models = {keys["model"] for _, keys in sections}
        self.assertEqual(models, {"405b", "l", "dit-xl"})

    def test_one_case_cut(self):
        for workload in specgen.GENERATORS:
            sections = sections_of(specgen.one_case_text(workload, 2))
            self.assertEqual(len(sections), 1)
            for value in sections[0][1].values():
                self.assertNotIn(",", value)


class DigestCheckTest(unittest.TestCase):

    def test_one_byte_change_is_flagged(self):
        out = specgen.spec_text("moe_sweep", 1).encode()
        want = run.digest(out)
        self.assertTrue(run.output_ok(0, out, want))
        for at in (0, len(out) // 2, len(out) - 1):
            changed = bytearray(out)
            changed[at] ^= 0x01
            self.assertFalse(run.output_ok(0, bytes(changed), want))
        self.assertFalse(run.output_ok(0, out + b"\n", want))

    def test_exit_code_and_missing_digest_fail(self):
        out = b"Figure 17\n"
        self.assertFalse(run.output_ok(1, out, run.digest(out)))
        self.assertFalse(run.output_ok(0, out, None))


class SelfTimeTest(unittest.TestCase):

    def test_synthetic_tree(self):
        tree = [
            ("root", 0, 100, -1),
            ("a", 10, 40, 0),
            ("b", 30, 60, 0),   # overlaps a: covered once
            ("leaf", 15, 20, 1),
            ("leaf", 35, 70, 2),  # runs past its parent: clipped
            ("other", 200, 250, -1),
        ]
        own = spans.self_times(tree)
        ns = 1e-9
        self.assertAlmostEqual(own["root"], 50 * ns)   # 100 - [10, 60)
        self.assertAlmostEqual(own["a"], 25 * ns)      # 30 - 5
        self.assertAlmostEqual(own["b"], 5 * ns)       # 30 - [35, 60)
        self.assertAlmostEqual(own["leaf"], 40 * ns)   # 5 + 35
        self.assertAlmostEqual(own["other"], 50 * ns)
        total = spans.totals(tree)
        self.assertAlmostEqual(total["leaf"], 40 * ns)
        self.assertAlmostEqual(total["root"], 100 * ns)

    def test_covered_union(self):
        self.assertEqual(spans.covered(0, 10, []), 0)
        self.assertEqual(spans.covered(0, 10, [(2, 4), (3, 6), (8, 20)]),
                         6)


class TailTest(unittest.TestCase):

    def test_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(run.tail(values), ("p90", 90))
        self.assertEqual(run.tail(values[:10]), ("max", 10))


if __name__ == "__main__":
    unittest.main()
