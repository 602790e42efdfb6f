// Internal: the per-ISA kernel tables the dispatcher selects between.
// Not installed API — include "tensor/kernels/kernels.hpp" instead.
#pragma once

#include "tensor/kernels/kernels.hpp"

namespace spdkfac::tensor::kernels::detail {

const KernelTable& scalar_table() noexcept;

/// The AVX2/FMA table when this translation unit was compiled with AVX2
/// codegen (x86-64 + a compiler accepting -mavx2 -mfma); the scalar table
/// otherwise, with avx2_compiled() reporting which.
const KernelTable& avx2_table() noexcept;
bool avx2_compiled() noexcept;

}  // namespace spdkfac::tensor::kernels::detail
