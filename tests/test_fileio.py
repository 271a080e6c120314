import json
import re

import numpy as np
import pytest

from tvdeblur import DataError, gaussian_psf
from tvdeblur.fileio import (atomic_write_text, read_image, read_pgm, read_psf_file, read_raw,
                             write_image, write_pgm, write_raw)


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(*args):
        raise OSError("replace refused")

    monkeypatch.setattr("tvdeblur.fileio.os.replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        atomic_write_text(tmp_path / "a.txt", "text")
    assert list(tmp_path.iterdir()) == []


class TestPgm:
    def test_16bit_roundtrip_of_quantized_values(self, tmp_path, rng):
        img = np.round(rng.uniform(0, 1, (9, 7)) * 65535) / 65535
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() < 1e-12

    def test_reads_8bit_p5(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 51, 255, 102, 204, 1]))
        assert np.array_equal(read_pgm(path) * 255, [[0, 51, 255], [102, 204, 1]])

    def test_writes_16bit_p5(self, tmp_path):
        path = tmp_path / "w.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 2.0]]))
        assert path.read_bytes() == b"P5\n2 2\n65535\n\x00\x00\xff\xff\x80\x00\xff\xff"

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

    def test_truncated_header_is_data_error(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n3 2\n")
        with pytest.raises(DataError, match="truncated PGM header"):
            read_pgm(path)

    def test_maxval_above_16_bits_is_data_error(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n2 2\n65536\n" + bytes(12))
        with pytest.raises(DataError, match="unsupported maxval 65536"):
            read_pgm(path)

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

    def test_ascii_samples_outside_the_integers_are_data_error(self, tmp_path):
        path = tmp_path / "signed.pgm"
        path.write_text("P2\n2 2\n255\n0 -7 3.5 999\n")
        with pytest.raises(DataError, match="signed.pgm: P2 sample '-7'"):
            read_pgm(path)

    def test_extra_ascii_samples_are_data_error(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_text("P2\n2 1\n255\n1 2 3 4 x\n")
        with pytest.raises(DataError, match="long.pgm: expected 2 samples, got 5"):
            read_pgm(path)

    def test_bytes_after_a_binary_payload_are_allowed(self, tmp_path):
        # a P5 stream may hold several images; the first is read
        path = tmp_path / "stream.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pgm(path) * 255, [[1, 2]])

    def test_non_numeric_ascii_sample_is_data_error(self, tmp_path):
        path = tmp_path / "letter.pgm"
        path.write_text("P2\n2 1\n255\n0 x\n")
        with pytest.raises(DataError, match="letter.pgm: P2 sample 'x'"):
            read_pgm(path)

    @pytest.mark.parametrize("magic, payload", [("P5", bytes([0, 7, 3, 255])), ("P2", b"0 7 3 255")],
                             ids=["P5", "P2"])
    def test_sample_above_maxval_is_data_error(self, tmp_path, magic, payload):
        path = tmp_path / "bright.pgm"
        path.write_bytes(f"{magic}\n2 2\n200\n".encode() + payload)
        with pytest.raises(DataError, match="bright.pgm: sample 255 exceeds maxval 200"):
            read_pgm(path)

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    @pytest.mark.parametrize("header", ["-3 -4 255", "-3 4 255", "3 -4 255", "0 4 255", "3.5 4 255",
                                        "3 x 255", "+3 4 255", "2 2 0", "2 2 -255", "2 2 2.5e2"])
    def test_bad_header_is_data_error(self, tmp_path, magic, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(f"{magic}\n{header}\n".encode() + bytes(16))
        with pytest.raises(DataError, match="bad.pgm: PGM width, height and maxval"):
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

    @pytest.mark.parametrize("sidecar", [b'{"format": "raw-float64", rows: 2}', b"", b"\xff\xfe"],
                             ids=["bad-json", "empty", "not-text"])
    def test_unreadable_sidecar_is_data_error_naming_it(self, tmp_path, rng, sidecar):
        path = tmp_path / "c.f64"
        write_raw(path, rng.standard_normal((2, 3)))
        (tmp_path / "c.f64.json").write_bytes(sidecar)
        with pytest.raises(DataError, match=re.escape(f"{path}.json: ")):
            read_raw(path)

    @pytest.mark.parametrize("change", [{"byteorder": "big"}, {"order": "F"},
                                        {"byteorder": None}])
    def test_other_layouts_are_data_error_naming_the_sidecar(self, tmp_path, rng, change):
        path = tmp_path / "d.f64"
        write_raw(path, rng.standard_normal((2, 3)))
        sidecar = tmp_path / "d.f64.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **change}))
        with pytest.raises(DataError, match=re.escape(f"{sidecar}: ")):
            read_raw(path)

    def test_payload_shorter_than_the_sidecar_is_data_error(self, tmp_path, rng):
        path = tmp_path / "short.f64"
        write_raw(path, rng.standard_normal((2, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="expected 6 samples, got 5"):
            read_raw(path)

    def test_sidecar_without_layout_keys_reads_as_written(self, tmp_path, rng):
        img = rng.standard_normal((2, 3))
        path = tmp_path / "e.f64"
        write_raw(path, img)
        (tmp_path / "e.f64.json").write_text(
            json.dumps({"format": "raw-float64", "rows": 2, "cols": 3}))
        assert np.array_equal(read_raw(path), img)


class TestPsfFiles:
    def test_reads_declared_center(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# center 1 0\n0.5 0.25\n# a comment\n\n0.125 0.125\n")
        back = read_psf_file(path)
        assert np.array_equal(back.weights, [[0.5, 0.25], [0.125, 0.125]])
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

    def test_comments_only_is_data_error(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# center 0 0\n# no weights\n\n")
        with pytest.raises(DataError, match="no kernel rows found"):
            read_psf_file(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(DataError):
            read_psf_file(path)

    @pytest.mark.parametrize("text, bad", [("1 2\n3 x\n", "'x'"), ("# center 1 q\n1 2\n3 4\n", "'q'")],
                             ids=["weight", "center"])
    def test_malformed_number_is_data_error_naming_the_file(self, tmp_path, text, bad):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f"bad.txt: .*{bad}"):
            read_psf_file(path)
