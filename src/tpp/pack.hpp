// Blocked packing of flat fp32 matrices into the BRGEMM operand layouts
// (Section II-A), one parallel PARLOOPER nest over the blocks.
//
// The source is a logical rows x cols fp32 matrix whose element (r, c) lives
// at src[r * rs + c * cs]: a row-major matrix is (rs, cs) = (ld, 1) and a
// column-major one (1, ld), so both layouts are the same call. Blocks of
// br x bc are written in [rows/br][cols/bc] order, each block either
//   kRowsFastest  [bc][br]  — the A layout A[Mb][Kb][bk][bm] (r = m, c = k)
//   kColsFastest  [br][bc]  — the B layout B[Nb][Kb][bn][bk] (r = n, c = k)
// in fp32 or bf16. bf16 kRowsFastest blocks are VNNI2-packed,
// [ceil(bc/2)][br][2] with an odd bc zero-padded (tpp::vnni2_pack).
#pragma once

#include <cstdint>

#include "common/bf16.hpp"

namespace plt::tpp {

enum class PackOrder : std::uint8_t { kRowsFastest, kColsFastest };

struct PackDesc {
  std::int64_t rows = 0, cols = 0;  // logical matrix
  std::int64_t rs = 0, cs = 0;      // source element strides
  std::int64_t br = 0, bc = 0;      // block shape
  PackOrder order = PackOrder::kRowsFastest;
  DType out = DType::F32;

  std::int64_t row_blocks() const { return rows / br; }
  std::int64_t col_blocks() const { return cols / bc; }
  // Elements one packed block occupies (VNNI2-aware).
  std::int64_t block_elems() const;
};

// Packs block (rb, cb) of `src` into its place in `dst`. Serial: callers that
// already own a block inside their own nest (FcLayer's fused weight update)
// call this directly.
void pack_block(const PackDesc& d, const float* src, void* dst,
                std::int64_t rb, std::int64_t cb);

// Packs every block, in parallel on the team (one owner per block).
void pack_blocked(const PackDesc& d, const float* src, void* dst);

}  // namespace plt::tpp
