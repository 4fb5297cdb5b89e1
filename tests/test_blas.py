import pytest

from tqsreg import blas, cli

pytestmark = pytest.mark.skipif(
    not blas.get_num_threads(), reason="no bundled OpenBLAS thread setter found")


def _spy_verify(monkeypatch, seen, rc=cli.EXIT_OK):
    """Replace the verify command by one that records the thread counts."""
    def cmd(args):
        seen.append(blas.get_num_threads())
        if rc == cli.EXIT_USAGE:
            raise cli.UsageError("spy usage error")
        return rc

    monkeypatch.setattr(cli, "cmd_verify", cmd)


class TestScopedPin:
    """cli.main computes at 1 BLAS thread and restores the caller's count."""

    @pytest.mark.parametrize("rc", [cli.EXIT_OK, cli.EXIT_USAGE])
    def test_count_restored_and_one_inside(self, monkeypatch, tmp_path, rc):
        seen = []
        _spy_verify(monkeypatch, seen, rc)
        with blas.num_threads(2):
            before = blas.get_num_threads()
            assert cli.main(["verify", "--out", str(tmp_path)]) == rc
            assert blas.get_num_threads() == before
        assert seen == [tuple(1 for _ in before)]

    def test_real_success_and_usage_error(self, tmp_path):
        with blas.num_threads(2):
            before = blas.get_num_threads()
            assert cli.main(["verify", "--joints", "2",
                             "--out", str(tmp_path)]) == cli.EXIT_OK
            assert blas.get_num_threads() == before
            assert cli.main(["verify", "--joints", "0",
                             "--out", str(tmp_path)]) == cli.EXIT_USAGE
            assert blas.get_num_threads() == before

    def test_nested_pin(self, monkeypatch, tmp_path):
        seen = []
        _spy_verify(monkeypatch, seen)
        outer = blas.get_num_threads()
        with blas.num_threads(1):
            assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_OK
            assert blas.get_num_threads() == tuple(1 for _ in outer)
        assert blas.get_num_threads() == outer
        assert seen == [tuple(1 for _ in outer)]

    def test_exception_restores(self):
        before = blas.get_num_threads()
        with pytest.raises(KeyError):
            with blas.num_threads(1):
                raise KeyError("boom")
        assert blas.get_num_threads() == before
