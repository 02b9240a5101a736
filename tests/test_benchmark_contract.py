"""The reads that the benchmark's traced run makes of a Spectrum.

perfbench/layers.py, loaded here by path as the benchmark loads it,
passes analyze_liouvillian's Spectrum to overlap_matrix and reads its
eigenvalues, left_mats, right_mats and defect_flags in defect_stats.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lioueps as lp

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("model", [lp.example2(1.0, 1.0),
                                   lp.example3(1.0, 0.1, 1.0, 0.5, levels=2)],
                         ids=["example2", "example3-l2"])
def test_layers_read_a_spectrum(model):
    layers = load_layers()
    spec = lp.analyze_liouvillian(lp.assemble_liouvillian(model))
    flagged, resid = layers.defect_stats(spec)
    assert flagged == int(spec.defect_flags.sum())
    assert resid <= 1e-8
    ovl = lp.overlap_matrix(spec)
    assert np.array_equal(ovl, ovl.T) and np.all(np.diag(ovl) == 1.0)
    np.testing.assert_allclose(ovl, np.abs(spec.vectors.conj().T @ spec.vectors), atol=1e-12)
