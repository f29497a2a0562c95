"""Backend registry: resolution precedence, the one production engine,
and the compiled-kernel build.

The registry is the single resolution path for every layer that names an
entropy engine (``ImageCodec``, the adapter, the encoder stack, the CLI),
so its precedence chain — explicit > config > default — is pinned here,
with the per-bit oracle registered for a scope as a second engine.

The kernels are required: without a C compiler the first kernel use
raises one ``CodecError`` naming every compiler tried, while ``import
repro`` and ``repro --help`` build nothing.  A failed build carries the
compiler's stderr, concurrent builders of one library must each compile
a private copy of the source, and two builds of one source are
byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from codec_oracle import ORACLE_ENGINE, reference_engine

from repro.codec import _ckernels, registry
from repro.codec.dwt import forward_dwt2d
from repro.codec.jpeg2000 import CodecConfig, ImageCodec
from repro.codec.ratemodel import RateModel
from repro.errors import CodecError
from repro.imagery.bands import PLANET_BANDS
from repro.imagery.clouds import CloudSample
from repro.imagery.earth_model import EarthModel, LocationSpec, TerrainClass
from repro.imagery.illumination import IlluminationSample
from repro.imagery.noise import fractal_noise
from repro.imagery.sensor import render_pixels


class TestResolution:
    def test_compiled_is_the_only_builtin(self):
        assert registry.names() == ("compiled",)

    def test_default_is_compiled(self):
        assert registry.resolve_name() == "compiled"
        assert ImageCodec().backend == "compiled"

    def test_explicit_beats_everything(self):
        with reference_engine():
            assert (
                registry.resolve_name(
                    explicit=ORACLE_ENGINE, config_backend="real"
                )
                == ORACLE_ENGINE
            )

    def test_config_beats_default(self):
        with reference_engine():
            assert (
                registry.resolve_name(config_backend=ORACLE_ENGINE)
                == ORACLE_ENGINE
            )
            assert (
                registry.resolve_name(
                    config_backend="real", default=ORACLE_ENGINE
                )
                == "compiled"
            )

    def test_real_alias_names_compiled(self):
        """"real" names the compiled engine, never a registered oracle."""
        assert registry.resolve_name(explicit="real") == "compiled"
        with reference_engine():
            assert registry.resolve_name(explicit="real") == "compiled"
            assert registry.resolve_name() == "compiled"

    def test_oracle_registration_is_scoped(self):
        with reference_engine():
            assert registry.names() == ("compiled", ORACLE_ENGINE)
        assert registry.names() == ("compiled",)
        with pytest.raises(CodecError, match="backend must be one of"):
            registry.get(ORACLE_ENGINE)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(CodecError, match="backend must be one of"):
            registry.get("turbo")
        with pytest.raises(CodecError, match="turbo"):
            registry.resolve(explicit="turbo")
        for retired in ("reference", "vectorized"):
            with pytest.raises(CodecError, match=r"\['compiled'\]"):
                registry.resolve(explicit=retired)

    def test_real_is_a_reserved_name(self):
        with pytest.raises(CodecError, match="reserved"):
            registry.register(
                registry.CodecBackend(
                    name="real", description="", coder_factory=lambda s: None
                )
            )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CodecError, match="already registered"):
            registry.register(registry.get("compiled"))

    def test_kernels_is_the_cached_load(self):
        assert registry.kernels() is _ckernels.load()
        assert registry.kernels() is registry.kernels()


#: Compiler names that are on no PATH.
_MISSING = ("no-such-cc-1", "no-such-gcc-2", "no-such-clang-3")


def _render_clear_capture():
    spec = LocationSpec(
        name="no-cc",
        shape=(16, 16),
        terrain_mix={TerrainClass.FOREST: 1.0},
        seed=1,
    )
    clear = np.zeros(spec.shape, dtype=bool)
    return render_pixels(
        EarthModel(spec, PLANET_BANDS),
        PLANET_BANDS,
        1.0,
        CloudSample(0.0, clear, np.zeros(spec.shape)),
        IlluminationSample(gain=1.0, offset=0.0),
    )


#: One public entry point per kernel user outside the entropy engine.
_KERNEL_USERS = {
    "dwt": lambda: forward_dwt2d(np.zeros((16, 16)), 2),
    "rate_model": lambda: RateModel(CodecConfig(tile_size=16)).encode(
        np.zeros((16, 16)), 1 / 64
    ),
    "noise": lambda: fractal_noise((16, 16), seed=0),
    "render": _render_clear_capture,
}


class TestMissingCompiler:
    """Without a compiler, the first kernel use raises one CodecError
    naming every compiler tried; nothing is cached, so each use raises."""

    @pytest.fixture(autouse=True)
    def _no_compiler(self, monkeypatch):
        monkeypatch.setattr(_ckernels, "_COMPILERS", _MISSING)
        monkeypatch.delenv(_ckernels._ENV_CC, raising=False)
        _ckernels.load.cache_clear()
        yield
        _ckernels.load.cache_clear()

    def test_first_kernel_use_names_each_compiler(self):
        with pytest.raises(CodecError) as caught:
            registry.kernels()
        for name in _MISSING:
            assert name in str(caught.value)
        assert _ckernels._ENV_CC in str(caught.value)
        with pytest.raises(CodecError):
            registry.kernels()

    def test_empty_override_reads_like_unset(self, monkeypatch):
        monkeypatch.setenv(_ckernels._ENV_CC, "  ")
        with pytest.raises(CodecError, match=", ".join(_MISSING)):
            registry.kernels()

    def test_override_is_the_only_compiler_tried(self, monkeypatch):
        monkeypatch.setenv(_ckernels._ENV_CC, "no-such-override-cc")
        with pytest.raises(CodecError) as caught:
            registry.kernels()
        assert "tried no-such-override-cc)" in str(caught.value)
        assert _MISSING[0] not in str(caught.value)

    def test_codec_use_raises(self):
        codec = ImageCodec(CodecConfig(tile_size=32))
        with pytest.raises(CodecError, match="need a C compiler"):
            codec.encode(np.zeros((32, 32)))

    @pytest.mark.parametrize("user", sorted(_KERNEL_USERS))
    def test_kernel_user_raises(self, user):
        """No computation falls back to numpy: the transform, the rate
        model, fractal noise and the capture render each raise the
        error that names every compiler tried."""
        with pytest.raises(CodecError, match=", ".join(_MISSING)):
            _KERNEL_USERS[user]()


#: Run in a fresh interpreter: with no compiler, importing the program and
#: printing the CLI help must succeed, and the first kernel use must fail.
_NO_COMPILER_SCRIPT = """
import contextlib, io
from repro.codec import _ckernels
_ckernels._COMPILERS = {missing!r}
import repro
import repro.cli
from repro.codec import registry
from repro.errors import CodecError

out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        repro.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code in (0, None), exc.code
assert "usage" in out.getvalue(), out.getvalue()
try:
    registry.kernels()
except CodecError as exc:
    print("kernels:", exc)
else:
    raise SystemExit("the kernels loaded without a compiler")
"""


def test_import_and_help_need_no_compiler():
    env = {k: v for k, v in os.environ.items() if k != _ckernels._ENV_CC}
    src = str(Path(_ckernels.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-c", _NO_COMPILER_SCRIPT.format(missing=_MISSING)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("kernels:") == 1
    for name in _MISSING:
        assert name in done.stdout


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
            hashlib.sha256(_ckernels._SOURCE.read_bytes()).hexdigest(),
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

    def test_failed_build_carries_compiler_stderr(self, tmp_path, monkeypatch):
        fake = tmp_path / "broken-cc"
        fake.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            "sys.stderr.write('error: the fake compiler says no')\n"
            "sys.exit(3)\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        with pytest.raises(CodecError) as caught:
            _ckernels._build(str(fake))
        assert "exited 3" in str(caught.value)
        assert "the fake compiler says no" in str(caught.value)

    def test_builds_are_reproducible(self, tmp_path, monkeypatch):
        """Two fresh builds of one source are byte-identical libraries, so
        a library's hash identifies the kernels it was built from."""
        compiler = _ckernels._find_compiler()
        libraries = []
        for home in ("first", "second"):
            monkeypatch.setenv("HOME", str(tmp_path / home))
            libraries.append(_ckernels._build(compiler).read_bytes())
        assert libraries[0] == libraries[1]

    def test_source_compiles_warning_free(self, tmp_path, monkeypatch):
        """``_ckernels.c`` builds under ``-Wall -Wextra -Werror``, so a
        new warning fails here rather than hiding in a build log."""
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setattr(
            _ckernels,
            "_CFLAGS",
            (*_ckernels._CFLAGS, "-Wall", "-Wextra", "-Werror"),
        )
        library = _ckernels._build(_ckernels._find_compiler())
        assert library.stat().st_size > 0

    def test_cache_key_hashes_source_and_flags(self, tmp_path, monkeypatch):
        """A flag change (a sanitizer build) never reuses a library."""
        fake = tmp_path / "fake-cc"
        fake.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            "args = sys.argv[1:]\n"
            "open(args[args.index('-o') + 1], 'wb').write(b'lib')\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        plain = _ckernels._build(str(fake))
        monkeypatch.setattr(
            _ckernels, "_CFLAGS", (*_ckernels._CFLAGS, "-fsanitize=undefined")
        )
        sanitized = _ckernels._build(str(fake))
        assert plain != sanitized
        assert sorted(p.name for p in plain.parent.iterdir()) == sorted(
            [plain.name, sanitized.name]
        )
