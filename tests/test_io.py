"""Tests for SQGF1 field persistence."""
import struct

import numpy as np
import pytest

from sqglab import field_from_modes, field_from_physical, make_grid, read_field, to_physical, write_field
from sqglab.cli import main
from sqglab.io import MAGIC, VERSION

HEADER = struct.Struct("<4sIIId8x")


def sample_field(grid):
    return field_from_modes(grid, {(1, 0): -0.5j, (3, 2): 0.25 + 0.1j, (0, 4): 0.3j})


class TestHeader:
    """The fixed 32-byte header."""

    def test_layout(self, tmp_path):
        """Magic, version, K, representation tag, and L are packed in order."""
        g = make_grid(32, 1.5)
        p = tmp_path / "u.sqgf"
        write_field(p, sample_field(g))
        raw = p.read_bytes()
        magic, version, K, tag, L = HEADER.unpack_from(raw)
        assert magic == MAGIC == b"SQGF"
        assert version == VERSION == 1
        assert K == 32
        assert tag == 0
        assert L == 1.5
        assert len(raw) == HEADER.size + 32 * 32 * 16

    def test_physical_tag_and_size(self, tmp_path):
        """Physical payloads carry tag 1 and 8-byte samples."""
        g = make_grid(32, np.pi)
        p = tmp_path / "u.sqgf"
        write_field(p, sample_field(g), representation="physical")
        raw = p.read_bytes()
        _, _, _, tag, _ = HEADER.unpack_from(raw)
        assert tag == 1
        assert len(raw) == HEADER.size + 32 * 32 * 8


class TestRoundTrip:
    """Write-then-read identity."""

    def test_spectral_exact(self, tmp_path):
        """Spectral round trips are bit-exact."""
        g = make_grid(32, np.pi)
        u = sample_field(g)
        p = tmp_path / "u.sqgf"
        write_field(p, u)
        back = read_field(p)
        np.testing.assert_array_equal(back.coeffs, u.coeffs)
        assert back.grid == g

    def test_nyquist_field_exact(self, tmp_path):
        """Fields reaching the Nyquist index keep every coefficient through the constructor and a spectral file."""
        from sqglab import SpectralField, field_from_physical

        g = make_grid(32, np.pi)
        samples = np.random.default_rng(23).standard_normal((32, 32))
        u = field_from_physical(g, samples - samples.mean())
        assert u.max_mode_index() == g.K // 2
        np.testing.assert_array_equal(SpectralField(g, u.coeffs).coeffs, u.coeffs)
        p = tmp_path / "u.sqgf"
        write_field(p, u)
        back = read_field(p)
        np.testing.assert_array_equal(back.coeffs, u.coeffs)
        write_field(tmp_path / "v.sqgf", back)
        assert (tmp_path / "v.sqgf").read_bytes() == p.read_bytes()

    def test_physical_close(self, tmp_path):
        """Physical round trips reproduce the field to near machine precision."""
        g = make_grid(64, 2 * np.pi)
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((64, 64))
        from sqglab import field_from_physical

        u = field_from_physical(g, samples - samples.mean())
        p = tmp_path / "u.sqgf"
        write_field(p, u, representation="physical")
        back = read_field(p)
        np.testing.assert_allclose(to_physical(back), to_physical(u), atol=1e-12)

    def test_dealias_flag_rederived(self, tmp_path):
        """The dealias flag comes from the payload content, not the file."""
        g = make_grid(32, np.pi)
        p = tmp_path / "u.sqgf"
        write_field(p, field_from_modes(g, {(2, 0): 0.5}))
        assert read_field(p).is_dealiased
        hot = field_from_modes(g, {(g.dealias_index + 1, 0): 0.5})
        write_field(p, hot)
        assert not read_field(p).is_dealiased


def spectral_file(path, coeffs, L=np.pi):
    """An SQGF1 spectral file holding raw K x K coefficients in FFT order."""
    K = coeffs.shape[0]
    body = np.fft.fftshift(coeffs).astype("<c16").tobytes(order="C")
    path.write_bytes(HEADER.pack(MAGIC, VERSION, K, 0, L) + body)


class TestRejection:
    """Malformed files and arguments."""

    def test_lone_mode_rejected(self, tmp_path, capsys):
        """A mode without its conjugate partner is not a real field."""
        c = np.zeros((16, 16), dtype=np.complex128)
        c[7, 0] = 0.5
        p = tmp_path / "u.sqgf"
        spectral_file(p, c)
        with pytest.raises(ValueError, match="Hermitian") as exc:
            read_field(p)
        assert str(exc.value).startswith(f"{p}: ")
        assert main(["norms", str(p)]) == 1
        assert f"{p}: coefficients are not Hermitian" in capsys.readouterr().err

    def test_nonzero_mean_rejected(self, tmp_path, capsys):
        """A nonzero zero mode is refused, not silently dropped."""
        c = field_from_modes(make_grid(16, np.pi), {(1, 0): 0.5}).coeffs.copy()
        c[0, 0] = 0.25
        p = tmp_path / "u.sqgf"
        spectral_file(p, c)
        with pytest.raises(ValueError, match="zero mode") as exc:
            read_field(p)
        assert str(exc.value).startswith(f"{p}: ")
        assert main(["norms", str(p)]) == 1
        assert f"{p}: zero mode" in capsys.readouterr().err

    def test_nan_coefficients_rejected(self, tmp_path, capsys):
        """NaN spectral coefficients are refused; NaN failed every comparison of the old checks."""
        c = np.zeros((16, 16), dtype=np.complex128)
        c[0, 1] = c[0, -1] = np.nan
        p = tmp_path / "u.sqgf"
        spectral_file(p, c)
        with pytest.raises(ValueError, match="finite") as exc:
            read_field(p)
        assert str(exc.value).startswith(f"{p}: ")
        assert main(["norms", str(p)]) == 1
        assert f"{p}: coefficients must be finite (largest modulus nan)" in capsys.readouterr().err

    def test_infinite_length_rejected(self, tmp_path, capsys):
        """A header with L = inf is refused."""
        c = field_from_modes(make_grid(16, np.pi), {(1, 0): 0.5}).coeffs
        p = tmp_path / "u.sqgf"
        spectral_file(p, c, L=np.inf)
        assert main(["norms", str(p)]) == 1
        assert f"{p}: L must be positive and finite, got inf" in capsys.readouterr().err

    def test_nan_samples_rejected(self, tmp_path, capsys):
        """Physical samples holding a NaN are refused, in memory and on disk."""
        g = make_grid(16, np.pi)
        s = np.zeros((16, 16))
        s[3, 4] = np.nan
        with pytest.raises(ValueError, match="samples must be finite"):
            field_from_physical(g, s)
        p = tmp_path / "u.sqgf"
        p.write_bytes(HEADER.pack(MAGIC, VERSION, 16, 1, np.pi) + s.astype("<f8").tobytes())
        assert main(["norms", str(p)]) == 1
        assert f"{p}: samples must be finite" in capsys.readouterr().err

    def test_bad_magic(self, tmp_path):
        """Foreign files are refused by their magic."""
        p = tmp_path / "u.sqgf"
        p.write_bytes(b"NOPE" + bytes(HEADER.size - 4))
        with pytest.raises(ValueError, match="magic"):
            read_field(p)

    def test_truncated_header(self, tmp_path):
        """Files shorter than the header are refused."""
        p = tmp_path / "u.sqgf"
        p.write_bytes(b"SQGF\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_field(p)

    def test_wrong_version(self, tmp_path):
        """Future versions are refused rather than misread."""
        p = tmp_path / "u.sqgf"
        p.write_bytes(HEADER.pack(MAGIC, 99, 32, 0, np.pi))
        with pytest.raises(ValueError, match="version"):
            read_field(p)

    def test_payload_size_mismatch(self, tmp_path):
        """A short payload is refused."""
        g = make_grid(32, np.pi)
        p = tmp_path / "u.sqgf"
        write_field(p, sample_field(g))
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_field(p)

    def test_unknown_tag(self, tmp_path):
        """Unknown representation tags are refused."""
        p = tmp_path / "u.sqgf"
        body = np.zeros(32 * 32, dtype="<f8").tobytes()
        p.write_bytes(HEADER.pack(MAGIC, VERSION, 32, 7, np.pi) + body)
        with pytest.raises(ValueError, match="tag"):
            read_field(p)

    def test_unknown_representation_on_write(self, tmp_path):
        """Only spectral and physical writes exist."""
        g = make_grid(32, np.pi)
        with pytest.raises(ValueError, match="representation"):
            write_field(tmp_path / "u.sqgf", sample_field(g), representation="wavelet")
