#!/usr/bin/env python3
"""Self-test of scripts/leafdiff.py on synthetic JSON.

Run from the repository root: python3 scripts/leafdiff_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from leafdiff import compare  # noqa: E402


class CompareTest(unittest.TestCase):
    def test_identical(self):
        self.assertEqual(compare('{"a": [1, 2.5, "x"]}', '{"a": [1, 2.5, "x"]}'), (0, 0.0, "", []))

    def test_float_moves(self):
        moved, worst, at, hard = compare('{"a": 1.0, "b": [2.0, 4.0]}', '{"a": 1.0000000001, "b": [2.0, 4.4]}')
        self.assertEqual((moved, at, hard), (2, "$[0].b[1]", []))
        self.assertAlmostEqual(worst, 0.4 / 4.4)

    def test_integral_float_moving_off_integer_is_a_float_move(self):
        moved, worst, _, hard = compare('{"x": 0}', '{"x": 1e-17}')
        self.assertEqual((moved, worst, hard), (1, 1.0, []))

    def test_hard_changes(self):
        for old, new in [
            ('{"n": 3}', '{"n": 4}'),              # integer
            ('{"b": true}', '{"b": false}'),       # bool
            ('{"s": "pass"}', '{"s": "fail"}'),    # string
            ('{"v": null}', '{"v": 0.5}'),         # type
            ('{"a": 1.5}', '{"a": 1.5, "b": 2}'),  # key added
            ('[1.5, 2.5]', '[1.5]'),               # element removed
            ('{"b": true}', '{"b": 1}'),           # bool is not a number
        ]:
            with self.subTest(old=old, new=new):
                moved, _, _, hard = compare(old, new)
                self.assertEqual(moved, 1)
                self.assertEqual(len(hard), 1)

    def test_concatenated_documents(self):
        moved, _, _, hard = compare('{"a": 2.0}\n{"b": 1}\n', '{"a": 2.0}\n{"b": 1}\n{"c": 0.5}\n')
        self.assertEqual((moved, len(hard)), (1, 1))
        moved, worst, at, hard = compare('{"a": 2.0} {"b": 1.0}', '{"a": 2.0} {"b": 1.5}')
        self.assertEqual((moved, at, hard), (1, "$[1].b", []))
        self.assertAlmostEqual(worst, 0.5 / 1.5)


if __name__ == "__main__":
    unittest.main()
