import numpy as np
import pytest

from tvdeblur import DataError, Psf, gaussian_psf
from tvdeblur.fileio import (read_image, read_pgm, read_psf_file, read_raw,
                             write_image, write_pgm, write_psf_file, write_raw)


class TestPgm:
    def test_16bit_roundtrip_of_quantized_values(self, tmp_path, rng):
        img = np.round(rng.uniform(0, 1, (9, 7)) * 65535) / 65535
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() < 1e-12

    def test_8bit_roundtrip(self, tmp_path):
        img = np.linspace(0, 1, 24).reshape(4, 6)
        path = tmp_path / "a.pgm"
        write_pgm(path, img, maxval=255)
        back = read_pgm(path)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_values_clamped_on_write(self, tmp_path):
        img = np.array([[-0.5, 0.5], [1.5, 1.0]])
        path = tmp_path / "c.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back[0, 0] == 0.0 and back[1, 0] == 1.0

    def test_reads_ascii_p2_with_comments(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n# a comment\n3 2\n# another\n255\n0 128 255\n64 32 16\n")
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P7\nnope")
        with pytest.raises(DataError):
            read_pgm(path)

    @pytest.mark.parametrize("maxval, payload", [(255, bytes(10)), (65535, bytes(20))],
                             ids=["8-bit", "16-bit"])
    def test_truncated_binary_payload_is_data_error(self, tmp_path, maxval, payload):
        path = tmp_path / "short.pgm"
        path.write_bytes(f"P5\n4 4\n{maxval}\n".encode() + payload)
        with pytest.raises(DataError, match="expected 16 samples"):
            read_pgm(path)


class TestRaw:
    def test_lossless_roundtrip(self, tmp_path, rng):
        img = rng.standard_normal((6, 11)) * 1e6
        path = tmp_path / "img.f64"
        write_raw(path, img)
        assert np.array_equal(read_raw(path), img)
        assert (tmp_path / "img.f64.json").exists()

    def test_dispatch_by_suffix(self, tmp_path, rng):
        img = rng.uniform(0, 1, (5, 5))
        write_image(tmp_path / "a.pgm", img)
        write_image(tmp_path / "a.f64", img)
        assert np.array_equal(read_image(tmp_path / "a.f64"), img)
        assert np.abs(read_image(tmp_path / "a.pgm") - img).max() < 1e-4
        with pytest.raises(DataError):
            write_image(tmp_path / "a.tiff", img)

    def test_no_temp_litter(self, tmp_path, rng):
        write_raw(tmp_path / "b.f64", rng.standard_normal((4, 4)))
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"b.f64", "b.f64.json"}


class TestPsfFiles:
    def test_roundtrip_with_center(self, tmp_path):
        psf = Psf(np.array([[0.5, 0.25], [0.125, 0.125]]), (1, 0))
        path = tmp_path / "k.txt"
        write_psf_file(path, psf)
        back = read_psf_file(path)
        assert np.array_equal(back.weights, psf.weights)
        assert back.center == (1, 0)

    def test_default_center_is_middle(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1 2 1\n2 4 2\n1 2 1\n")
        assert read_psf_file(path).center == (1, 1)

    def test_even_extent_default_center(self, tmp_path):
        path = tmp_path / "k.txt"
        weights = gaussian_psf(4, 1.0).weights
        path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in weights))
        assert read_psf_file(path).center == (1, 1)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(DataError):
            read_psf_file(path)
