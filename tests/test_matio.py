"""Text matrix files and instance bundle directories."""

import dataclasses

import numpy as np
import pytest

from lora_kernels.errors import DimensionError, NonFiniteError
from lora_kernels.harness import gen_instance
from lora_kernels.matio import (
    load_bundle,
    load_matrix,
    load_meta,
    save_bundle,
    save_matrix,
)


class TestMatrixFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        M = rng.standard_normal((7, 3))
        path = tmp_path / "m.mat"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_round_trip_extreme_values(self, tmp_path):
        M = np.array([[1e-300, -1e300], [np.pi, -0.0]])
        path = tmp_path / "m.mat"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "m.mat"
        save_matrix(path, np.zeros((2, 5)))
        assert path.read_text().splitlines()[0] == "2 5"

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(DimensionError):
            save_matrix(tmp_path / "bad.mat", np.zeros(4))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n1 2\n3 4\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_body_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_non_finite_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1 2\n1 inf\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_not_saved(self, tmp_path, bad):
        # A file that saves always loads: load_matrix refuses the same entries.
        path = tmp_path / "bad.mat"
        with pytest.raises(NonFiniteError):
            save_matrix(path, np.array([[1.0, bad]]))
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.mat")


class TestBundles:
    def test_round_trip(self, tmp_path):
        inst, adp, Wstar = gen_instance(9, 6, 3, 2, 0.5)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=9, gamma=0.5, Wstar=Wstar, adapter=adp)
        inst2, meta, Wstar2, adp2 = load_bundle(bundle)
        assert np.array_equal(inst2.C1, inst.C1)
        assert np.array_equal(inst2.C2, inst.C2)
        assert np.array_equal(inst2.C3, inst.C3)
        assert np.array_equal(inst2.Y, inst.Y)
        assert meta == (6, 3, 9, 0.5)
        assert np.array_equal(Wstar2, Wstar)
        assert np.array_equal(adp2.B, adp.B)
        assert np.array_equal(adp2.A, adp.A)
        assert adp2.r == adp.r

    def test_adapter_scale_other_than_one_is_refused(self, tmp_path):
        # The format has no alpha field and loads alpha = r, so an adapter
        # with alpha = 3r would come back as a different model.
        inst, adp, Wstar = gen_instance(2, 8, 3, 1, 0.5)
        adp3 = dataclasses.replace(adp, alpha=3.0 * adp.r)
        bundle = tmp_path / "b"
        with pytest.raises(ValueError, match="alpha"):
            save_bundle(bundle, inst, seed=2, gamma=0.5, Wstar=Wstar, adapter=adp3)
        assert not bundle.exists()

    def test_optional_members_absent(self, tmp_path):
        inst, _, _ = gen_instance(9, 4, 2, 1, 0.5)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=9, gamma=0.5)
        _, _, Wstar, adapter = load_bundle(bundle)
        assert Wstar is None
        assert adapter is None

    def test_meta_format(self, tmp_path):
        inst, _, _ = gen_instance(1, 4, 2, 1, 0.25)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=1, gamma=0.25)
        assert load_meta(bundle) == (4, 2, 1, 0.25)

    def test_meta_disagreeing_with_matrices(self, tmp_path):
        inst, adp, Wstar = gen_instance(1, 16, 2, 1, 0.25)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=1, gamma=0.25, Wstar=Wstar, adapter=adp)
        (bundle / "meta.txt").write_text("64 2 1 0.25\n")
        with pytest.raises(ValueError, match="64 x 2.*16 x 2"):
            load_bundle(bundle)

    def test_malformed_meta(self, tmp_path):
        inst, _, _ = gen_instance(1, 4, 2, 1, 0.25)
        bundle = tmp_path / "b"
        save_bundle(bundle, inst, seed=1, gamma=0.25)
        (bundle / "meta.txt").write_text("4 2 1\n")
        with pytest.raises(ValueError):
            load_meta(bundle)
