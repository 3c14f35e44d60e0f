/**
 * @file
 * Stable-diffusion workload generators (Table 1): DiT-XL [64] and
 * GLIGEN [50], 512x512 images.
 *
 * DiT-XL: a transformer over 1024 latent tokens with head size 72 —
 * smaller than the 128-wide SA, which is exactly the spatial
 * underutilization the paper highlights (Fig. 5).
 *
 * GLIGEN: a U-Net (SD-1.5 backbone + gated attention) whose deeper
 * levels shrink both the image and the attention head count/size.
 * Convolutions are lowered to im2col GEMMs.
 */

#ifndef REGATE_MODELS_DIFFUSION_H
#define REGATE_MODELS_DIFFUSION_H

#include <cstdint>

#include "graph/graph.h"
#include "models/parallelism.h"

namespace regate {
namespace models {

/** Denoising steps per image (standard sampler setting). */
constexpr int kDiffusionSteps = 50;

/**
 * DiT-XL/2 inference for @p batch images on a data-parallel pod, per
 * chip.
 */
graph::OperatorGraph ditInference(std::int64_t batch,
                                  const Parallelism &par);

/** GLIGEN (U-Net) inference for @p batch images, per chip. */
graph::OperatorGraph gligenInference(std::int64_t batch,
                                     const Parallelism &par);

}  // namespace models
}  // namespace regate

#endif  // REGATE_MODELS_DIFFUSION_H
