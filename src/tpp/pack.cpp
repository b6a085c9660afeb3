#include "tpp/pack.hpp"

#include "common/check.hpp"
#include "parlooper/threaded_loop.hpp"
#include "tpp/transforms.hpp"

namespace plt::tpp {

std::int64_t PackDesc::block_elems() const {
  return out == DType::BF16 && order == PackOrder::kRowsFastest
             ? vnni2_elems(br, bc)
             : br * bc;
}

void pack_block(const PackDesc& d, const float* src, void* dst,
                std::int64_t rb, std::int64_t cb) {
  const std::int64_t br = d.br, bc = d.bc, rs = d.rs, cs = d.cs;
  const float* s = src + rb * br * rs + cb * bc * cs;
  const std::int64_t off = (rb * d.col_blocks() + cb) * d.block_elems();
  if (d.order == PackOrder::kColsFastest) {  // [br][bc]: one row per r
    for (std::int64_t rr = 0; rr < br; ++rr) {
      const float* row = s + rr * rs;
      if (d.out == DType::F32) {
        float* o = static_cast<float*>(dst) + off + rr * bc;
        for (std::int64_t cc = 0; cc < bc; ++cc) o[cc] = row[cc * cs];
      } else {
        bf16* o = static_cast<bf16*>(dst) + off + rr * bc;
        for (std::int64_t cc = 0; cc < bc; ++cc) o[cc] = bf16::from_f32(row[cc * cs]);
      }
    }
    return;
  }
  if (d.out == DType::F32) {  // [bc][br]: one column per c
    for (std::int64_t cc = 0; cc < bc; ++cc) {
      const float* col = s + cc * cs;
      float* o = static_cast<float*>(dst) + off + cc * br;
      for (std::int64_t rr = 0; rr < br; ++rr) o[rr] = col[rr * rs];
    }
    return;
  }
  // VNNI2 [ceil(bc/2)][br][2]: columns 2p and 2p+1 interleaved per r.
  for (std::int64_t p = 0; p < (bc + 1) / 2; ++p) {
    const float* c0 = s + 2 * p * cs;
    const bool has_hi = 2 * p + 1 < bc;
    bf16* o = static_cast<bf16*>(dst) + off + p * br * 2;
    for (std::int64_t rr = 0; rr < br; ++rr) {
      o[2 * rr] = bf16::from_f32(c0[rr * rs]);
      o[2 * rr + 1] = has_hi ? bf16::from_f32(c0[rr * rs + cs]) : bf16{};
    }
  }
}

void pack_blocked(const PackDesc& d, const float* src, void* dst) {
  PLT_CHECK(d.br > 0 && d.bc > 0 && d.rows % d.br == 0 && d.cols % d.bc == 0,
            "pack: block shape must divide the matrix");
  PLT_CHECK(d.rs == 1 || d.cs == 1, "pack: source must be row- or col-major");
  const std::int64_t Rb = d.row_blocks(), Cb = d.col_blocks();
  const std::int64_t blk = d.block_elems();
  // Footprints of block (rb, cb): its packed block is written, and its
  // br x bc source tile is read (a run of `bc` per row when row-major, of
  // `br` per column when col-major).
  parlooper::AccessMap access;
  access.add_write("packed", {Cb * blk, blk}, blk);
  if (d.cs == 1) {
    access.add_read("src", {d.br * d.rs, d.bc}, d.bc, d.br, d.rs);
  } else {
    access.add_read("src", {d.br, d.bc * d.cs}, d.br, d.bc, d.cs);
  }
  const parlooper::LoopNest nest(
      {parlooper::LoopSpecs{0, Rb, 1}, parlooper::LoopSpecs{0, Cb, 1}}, "AB",
      parlooper::Backend::kAuto, access);
  nest([&](const std::int64_t* ind) { pack_block(d, src, dst, ind[0], ind[1]); });
}

}  // namespace plt::tpp
