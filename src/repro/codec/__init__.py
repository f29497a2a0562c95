"""JPEG-2000-style image codec substrate.

The paper encodes changed tiles with an off-the-shelf JPEG-2000 encoder
(Kakadu) using region-of-interest and layered (quality-progressive) features.
Kakadu is proprietary and no codec binding is available offline, so this
package implements the codec for real, in numpy and C kernels compiled on
first use (a C compiler is required):

* multilevel lifting DWT — CDF 9/7 (lossy) and LeGall 5/3 (integer,
  reversible) with symmetric extension and arbitrary (odd) sizes
  (:mod:`repro.codec.dwt`);
* dead-zone scalar quantization with per-subband steps
  (:mod:`repro.codec.quantize`);
* embedded bit-plane coding with previous-plane significance contexts,
  driving an adaptive binary arithmetic (range) coder, in native compiled
  kernels (:mod:`repro.codec.bitplane`, :mod:`repro.codec.compiled`,
  :mod:`repro.codec._ckernels`) registered behind one backend registry
  (:mod:`repro.codec.registry`); the per-bit coder they reproduce is a
  test oracle (``tests/codec_oracle.py``);
* a tile/image codec with region-of-interest tile selection, post-compression
  rate-distortion truncation, and quality layers
  (:mod:`repro.codec.jpeg2000`);
* a calibrated fast rate model used by large parameter sweeps
  (:mod:`repro.codec.ratemodel`), validated against the real coder.

Encode→decode round-trips are exact within the quantizer bound, and the 5/3
path is bit-exact lossless — both are property-tested.
"""

from repro.codec import registry
from repro.codec.metrics import psnr, mse, compression_ratio
from repro.codec.dwt import (
    forward_dwt2d,
    inverse_dwt2d,
    Wavelet,
    WaveletCoeffs,
)
from repro.codec.quantize import QuantizerSpec, quantize_coeffs, dequantize_coeffs
from repro.codec.bitstream import BitWriter, BitReader
from repro.codec.jpeg2000 import (
    ImageCodec,
    EncodedImage,
    EncodedTile,
    CodecConfig,
)
from repro.codec.ratemodel import RateModel, RateModelResult

__all__ = [
    "registry",
    "psnr",
    "mse",
    "compression_ratio",
    "forward_dwt2d",
    "inverse_dwt2d",
    "Wavelet",
    "WaveletCoeffs",
    "QuantizerSpec",
    "quantize_coeffs",
    "dequantize_coeffs",
    "BitWriter",
    "BitReader",
    "ImageCodec",
    "EncodedImage",
    "EncodedTile",
    "CodecConfig",
    "RateModel",
    "RateModelResult",
]
