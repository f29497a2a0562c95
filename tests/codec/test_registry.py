"""Backend registry: resolution precedence, aliasing, fallback, kernels gate.

Also the compiled-kernel build itself: concurrent builders of one library
must each compile a private copy of the source.

The registry is the single resolution path for every layer that names an
entropy engine (``ImageCodec``, the adapter, the encoder stack, the CLI),
so its precedence chain — explicit > config > ``$REPRO_CODEC_BACKEND`` >
default — and its graceful no-toolchain fallback are pinned here.
"""

from __future__ import annotations

import hashlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.codec import _ckernels, registry
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.errors import CodecError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(registry.ENV_BACKEND, raising=False)
    registry.reset_fallback_warnings()


class TestResolution:
    def test_builtins_registered_in_speed_order(self):
        assert registry.names() == ("reference", "vectorized", "compiled")

    def test_default_is_best_available(self):
        assert registry.resolve_name() == registry.best_available().name
        assert ImageCodec().backend == registry.best_available().name

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(registry.ENV_BACKEND, "reference")
        assert (
            registry.resolve_name(
                explicit="vectorized", config_backend="reference"
            )
            == "vectorized"
        )

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(registry.ENV_BACKEND, "reference")
        assert registry.resolve_name(config_backend="vectorized") == "vectorized"

    def test_env_beats_default_and_is_read_at_call_time(self, monkeypatch):
        assert registry.resolve_name() == registry.best_available().name
        monkeypatch.setenv(registry.ENV_BACKEND, "reference")
        assert registry.resolve_name() == "reference"
        monkeypatch.setenv(registry.ENV_BACKEND, "vectorized")
        assert registry.resolve_name() == "vectorized"

    def test_real_alias_is_best_available(self):
        best = registry.best_available()
        assert registry.resolve_name(explicit="real") == best.name
        if registry.get("compiled").available():
            assert best.name == "compiled"
        else:
            assert best.name == "vectorized"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(CodecError, match="backend must be one of"):
            registry.get("turbo")
        with pytest.raises(CodecError, match="turbo"):
            registry.resolve(explicit="turbo")

    def test_real_is_a_reserved_name(self):
        with pytest.raises(CodecError, match="reserved"):
            registry.register(
                registry.CodecBackend(
                    name="real", description="", coder_factory=lambda s: None
                )
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CodecError, match="already registered"):
            registry.register(registry.get("vectorized"))


class TestCapabilityFlags:
    def test_flags(self):
        assert not registry.get("reference").batched
        assert registry.get("vectorized").batched
        compiled = registry.get("compiled")
        assert compiled.batched and compiled.compiled

    def test_availability_probe_reference_and_vectorized_always_usable(self):
        assert registry.get("reference").available()
        assert registry.get("vectorized").available()


class TestNoToolchainFallback:
    """REPRO_CODEC_CC= (empty) simulates a machine without a compiler."""

    @pytest.fixture(autouse=True)
    def _no_toolchain(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEC_CC", "")
        _ckernels.reset_for_tests()
        registry.reset_fallback_warnings()
        yield
        _ckernels.reset_for_tests()

    def test_compiled_reports_unavailable(self):
        assert not registry.get("compiled").available()
        assert "REPRO_CODEC_CC" in _ckernels.unavailable_reason()

    def test_resolve_warns_once_and_falls_back_to_vectorized(self):
        with pytest.warns(RuntimeWarning, match="falling back to 'vectorized'"):
            resolved = registry.resolve(explicit="compiled")
        assert resolved.name == "vectorized"
        # Second resolve is silent (warn-once) but still falls back.
        assert registry.resolve(explicit="compiled").name == "vectorized"

    def test_real_alias_degrades_to_vectorized(self):
        assert registry.resolve_name(explicit="real") == "vectorized"

    def test_codec_still_produces_identical_bitstreams(self):
        rng = np.random.default_rng(11)
        image = rng.random((64, 64))
        config = CodecConfig(tile_size=32, base_step=1 / 128)
        with pytest.warns(RuntimeWarning):
            fallback = ImageCodec(config, backend="compiled")
        assert fallback.backend == "vectorized"
        reference = ImageCodec(config, backend="vectorized")
        assert (
            fallback.encode(image).to_bytes()
            == reference.encode(image).to_bytes()
        )

    def test_kernels_gate_closed(self):
        assert registry.kernels() is None


class TestKernelsGate:
    def test_env_pinning_pure_python_disables_kernels(self, monkeypatch):
        monkeypatch.setenv(registry.ENV_BACKEND, "vectorized")
        assert not registry.kernels_enabled()
        monkeypatch.setenv(registry.ENV_BACKEND, "reference")
        assert not registry.kernels_enabled()

    def test_gate_matches_library_availability(self):
        if _ckernels.load() is None:
            assert registry.kernels() is None
        else:
            assert registry.kernels() is _ckernels.load()


#: Stand-in compiler for the concurrent-build test.  The first
#: invocation fingerprints its source file, lets a second builder run to
#: completion, and fails unless the file it is compiling is still
#: complete and untouched; a builder that rewrote a source file another
#: compiler was reading is exactly how a truncated source got compiled.
_FAKE_COMPILER = '''#!{python}
import hashlib, os, sys, time

args = sys.argv[1:]
src = next(arg for arg in args if arg.endswith(".c"))
out = args[args.index("-o") + 1]
state = os.environ["FAKE_CC_STATE"]


def fingerprint():
    info = os.stat(src)
    with open(src, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return digest, info.st_ino, info.st_mtime_ns, info.st_ctime_ns


def marker(name):
    return os.path.join(state, name)


try:
    os.close(os.open(marker("first"), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    first = True
except FileExistsError:
    first = False
before = fingerprint()
if before[0] != os.environ["FAKE_CC_SHA"]:
    sys.exit("compiler received an incomplete source")
if first:
    time.sleep(0.05)  # let the file clock tick past the fingerprint
    open(marker("first-ready"), "w").close()
    deadline = time.monotonic() + 60
    while not os.path.exists(marker("second-done")):
        if time.monotonic() > deadline:
            sys.exit("second builder never ran")
        time.sleep(0.01)
    if fingerprint() != before:
        sys.exit("source rewritten while the compiler was reading it")
else:
    open(marker("second-done"), "w").close()
with open(out, "wb") as handle:
    handle.write(b"stand-in library")
'''


class TestKernelBuild:
    def test_concurrent_builders_compile_private_sources(
        self, tmp_path, monkeypatch
    ):
        """Two builders of one library never share a source file."""
        fake = tmp_path / "fake-cc"
        fake.write_text(_FAKE_COMPILER.format(python=sys.executable))
        fake.chmod(0o755)
        state = tmp_path / "state"
        state.mkdir()
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv(_ckernels._ENV_CC, str(fake))
        monkeypatch.setenv("FAKE_CC_STATE", str(state))
        monkeypatch.setenv(
            "FAKE_CC_SHA",
            hashlib.sha256(_ckernels._C_SOURCE.encode()).hexdigest(),
        )
        compiler = _ckernels._find_compiler()
        assert compiler == str(fake)
        with ThreadPoolExecutor(2) as pool:
            first = pool.submit(_ckernels._build, compiler)
            deadline = time.monotonic() + 60
            while not (state / "first-ready").exists():
                if first.done():
                    first.result()  # the first build failed early: raise
                assert time.monotonic() < deadline
                time.sleep(0.01)
            second = pool.submit(_ckernels._build, compiler)
            lib_second = second.result(timeout=60)
            lib_first = first.result(timeout=60)
        assert lib_first == lib_second
        assert lib_first.read_bytes() == b"stand-in library"
        # Temp sources and temp libraries are cleaned up.
        assert sorted(p.name for p in lib_first.parent.iterdir()) == [
            lib_first.name
        ]
