#include "dl/fc_layer.hpp"

#include <cstring>
#include <optional>

#include "common/check.hpp"
#include "tpp/binary.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"
#include "tpp/unary.hpp"

namespace plt::dl {

namespace {

// The blocked-A contraction a TokenPlan runs over S tokens:
// C (M x S, ld = M) = A (M x K in [M/bm][K/bk][bk][bm] blocks) x B (K x S,
// ld = K). Forward is (out, in) on the layer's weights in its dtype; dgrad
// is (in, out) on the fp32 W^T blocks.
struct Contraction {
  std::int64_t M, K, bm, bk;
  DType dtype;

  std::int64_t a_blk() const {
    return dtype == DType::BF16 ? tpp::vnni2_elems(bm, bk) : bm * bk;
  }
};

// Footprints of one (ik, im, is) invocation: the bm x bn C tile (ld = M) is
// read-modify-written across the K reduction, the forward pre-activation
// stash is written on the last K step (over-approximated as every step, per
// the AccessMap contract), A blocks and the B panel are read-only.
parlooper::AccessMap contraction_access_map(const Contraction& g,
                                            std::int64_t bn, bool preact) {
  const std::int64_t Kb = g.K / g.bk, a_blk = g.a_blk();
  parlooper::AccessMap access;
  access.add_write("out", {0, g.bm, bn * g.M}, g.bm, bn, g.M)
      .add_read("out", {0, g.bm, bn * g.M}, g.bm, bn, g.M);
  if (preact) {
    access.add_write("preact", {0, g.bm, bn * g.M}, g.bm, bn, g.M);
  }
  access.add_read("weights", {a_blk, Kb * a_blk, 0}, a_blk)
      .add_read("in", {g.bk, 0, bn * g.K}, g.bk, bn, g.K);
  return access;
}

}  // namespace

// The compiled contraction for one token count, built once per S and
// memoized so the serving/decode hot path touches no cache-key machinery.
// The bias/activation epilogue TPPs exist only on forward plans that use
// them; bf16 forward plans also convert the fp32 input to the bf16 panel
// (one vector pass on the calling thread: a team nest over token blocks
// costs more in region dispatch than the conversion it would split).
struct FcLayer::TokenPlan {
  Contraction g;
  std::int64_t bn;
  tpp::BrgemmTPP brgemm;
  tpp::UnaryTPP zero;
  std::optional<tpp::BinaryTPP> bias;
  std::optional<tpp::UnaryTPP> act;
  std::optional<tpp::UnaryTPP> stage;
  parlooper::LoopNest nest;

  TokenPlan(const Contraction& c, std::int64_t S, std::int64_t bn_in,
            const FcConfig& cfg, bool forward)
      : g(c),
        bn(bn_in),
        brgemm(tpp::BrgemmDesc{
            c.bm, bn_in, c.bk,
            /*lda=*/c.bm, /*ldb=*/c.K, /*ldc=*/c.M, c.dtype, c.dtype,
            DType::F32, /*beta=*/1.0f, tpp::BrgemmVariant::kStride,
            c.dtype == DType::BF16 ? tpp::ALayout::kVnni2 : tpp::ALayout::kFlat,
            /*stride_a=*/c.a_blk(), /*stride_b=*/c.bk}),
        zero(tpp::UnaryDesc{tpp::UnaryKind::kZero, c.bm, bn_in, 0, c.M,
                            DType::F32, DType::F32, 1.0f}),
        nest({parlooper::LoopSpecs{0, c.K / c.bk, 1},
              parlooper::LoopSpecs{0, c.M / c.bm, 1},
              parlooper::LoopSpecs{0, S / bn_in, 1}},
             cfg.loop_spec, cfg.backend,
             contraction_access_map(c, bn_in,
                                    forward && cfg.act != FcActivation::kNone)) {
    if (forward && cfg.with_bias) {
      bias.emplace(tpp::BinaryDesc{tpp::BinaryKind::kAdd, c.bm, bn_in, 0, c.M,
                                   c.M, DType::F32, DType::F32, DType::F32,
                                   tpp::Broadcast::kCol});
    }
    if (forward && cfg.act != FcActivation::kNone) {
      act.emplace(tpp::UnaryDesc{cfg.act == FcActivation::kGelu
                                     ? tpp::UnaryKind::kGelu
                                     : tpp::UnaryKind::kRelu,
                                 c.bm, bn_in, c.M, c.M, DType::F32,
                                 DType::F32, 1.0f});
    }
    if (forward && c.dtype == DType::BF16) {
      stage.emplace(tpp::UnaryDesc{tpp::UnaryKind::kCopy, c.K, S, c.K, c.K,
                                   DType::F32, DType::BF16, 1.0f});
    }
  }

  // C = A x B, or C += A x B with `accumulate`; `epilogue(c_tile, im, is)`
  // runs on each C tile right after its last K block.
  template <typename Epilogue>
  void run(const void* a, const void* b, float* c, bool accumulate,
           Epilogue&& epilogue) const {
    const std::int64_t Kb = g.K / g.bk, a_blk = g.a_blk();
    const std::size_t esz = dtype_size(g.dtype);
    const char* ap = static_cast<const char*>(a);
    const char* bp = static_cast<const char*>(b);
    nest([&](const std::int64_t* ind) {
      const std::int64_t ik = ind[0], im = ind[1], is = ind[2];
      float* c_tile = c + im * g.bm + is * bn * g.M;
      if (ik == 0 && !accumulate) zero(nullptr, c_tile);
      brgemm(ap + static_cast<std::size_t>((im * Kb + ik) * a_blk) * esz,
             bp + static_cast<std::size_t>(ik * g.bk + is * bn * g.K) * esz,
             c_tile, 1);
      if (ik == Kb - 1) epilogue(c_tile, im, is);
    });
  }
};

// The backward and update pipeline. Every nest gives each output block one
// owner that reduces it in a fixed order, so serial, pool and omp runs, on
// any team size or partition count, agree bitwise:
//   grad    over out blocks: g = act'(preact) * dO, dbias += row sums of g,
//           g^T (S x out col-major) for the wgrad B operand;
//   wgrad   over (in, out) tiles of the row-major master gradient, which is
//           a col-major in x out matrix: dW(i, o) += sum_s I(i, s) g^T(s, o),
//           one fp32 BRGEMM with beta = 1 and K = S per tile;
//   dgrad   the forward contraction shape on the fp32 W^T blocks;
//   update  over out blocks: W and bias rows -= lr * grad, then both packed
//           copies of those rows.
struct FcLayer::BackwardPlan {
  std::optional<tpp::UnaryTPP> act_bwd;  // bm x S tile of g
  std::optional<tpp::UnaryTPP> row_sum;  // bm x S tile -> bm dbias values
  tpp::BrgemmTPP wgrad;
  parlooper::LoopNest grad_nest, wgrad_nest, update_nest;
  TokenPlan dgrad;

  BackwardPlan(const FcConfig& cfg, std::int64_t bn)
      : wgrad(tpp::BrgemmDesc{cfg.bk, cfg.bm, cfg.tokens,
                              /*lda=*/cfg.in_features, /*ldb=*/cfg.tokens,
                              /*ldc=*/cfg.in_features, DType::F32, DType::F32,
                              DType::F32, /*beta=*/1.0f}),
        grad_nest({parlooper::LoopSpecs{0, cfg.out_features / cfg.bm, 1}},
                  "A", cfg.backend, grad_map(cfg)),
        wgrad_nest({parlooper::LoopSpecs{0, cfg.in_features / cfg.bk, 1},
                    parlooper::LoopSpecs{0, cfg.out_features / cfg.bm, 1}},
                   "AB", cfg.backend, wgrad_map(cfg)),
        update_nest({parlooper::LoopSpecs{0, cfg.out_features / cfg.bm, 1}},
                    "A", cfg.backend, update_map(cfg)),
        dgrad(Contraction{cfg.in_features, cfg.out_features, cfg.bk, cfg.bm,
                          DType::F32},
              cfg.tokens, bn, cfg, /*forward=*/false) {
    const std::int64_t O = cfg.out_features, S = cfg.tokens;
    if (cfg.act != FcActivation::kNone) {
      act_bwd.emplace(tpp::UnaryDesc{cfg.act == FcActivation::kGelu
                                         ? tpp::UnaryKind::kGeluBwd
                                         : tpp::UnaryKind::kReluBwd,
                                     cfg.bm, S, O, O, DType::F32, DType::F32,
                                     1.0f});
    }
    if (cfg.with_bias) {
      row_sum.emplace(tpp::UnaryDesc{tpp::UnaryKind::kReduceSumCols, cfg.bm, S,
                                     O, 0, DType::F32, DType::F32, 1.0f});
    }
  }

  // Out block ob: reads the bm x S tiles of dO (and preact), writes the g
  // tile, its bm dbias rows and its bm x S block of g^T.
  static parlooper::AccessMap grad_map(const FcConfig& cfg) {
    const std::int64_t O = cfg.out_features, S = cfg.tokens, bm = cfg.bm;
    parlooper::AccessMap access;
    access.add_read("grad_out", {bm}, bm, S, O)
        .add_read("preact", {bm}, bm, S, O)
        .add_write("g", {bm}, bm, S, O)
        .add_read("g", {bm}, bm, S, O)
        .add_write("db", {bm}, bm)
        .add_write("dbias", {bm}, bm)
        .add_read("dbias", {bm}, bm)
        .add_write("gt", {bm * S}, bm * S);
    return access;
  }

  // Tile (ib, ob): the bk x bm dW tile (ld = in) is read-modify-written; the
  // bk-row panel of the input and the bm-column panel of g^T are read.
  static parlooper::AccessMap wgrad_map(const FcConfig& cfg) {
    const std::int64_t I = cfg.in_features, S = cfg.tokens;
    const std::int64_t bm = cfg.bm, bk = cfg.bk;
    parlooper::AccessMap access;
    access.add_write("dweight", {bk, bm * I}, bk, bm, I)
        .add_read("dweight", {bk, bm * I}, bk, bm, I)
        .add_read("input", {bk, 0}, bk, S, I)
        .add_read("gt", {0, bm * S}, bm * S);
    return access;
  }

  // Out block ob: bm weight and bias rows are updated, the out block's row of
  // W blocks is rewritten, and its column of W^T blocks (one per in block).
  static parlooper::AccessMap update_map(const FcConfig& cfg) {
    const std::int64_t I = cfg.in_features, bm = cfg.bm, bk = cfg.bk;
    const std::int64_t Ib = I / bk, Ob = cfg.out_features / bm;
    const std::int64_t w_blk = cfg.dtype == DType::BF16
                                   ? tpp::vnni2_elems(bm, bk)
                                   : bm * bk;
    parlooper::AccessMap access;
    access.add_write("weight", {bm * I}, bm * I)
        .add_read("weight", {bm * I}, bm * I)
        .add_read("dweight", {bm * I}, bm * I)
        .add_write("bias", {bm}, bm)
        .add_read("dbias", {bm}, bm)
        .add_write("w_blocked", {Ib * w_blk}, Ib * w_blk)
        .add_write("wt_blocked", {bm * bk}, bm * bk, Ib, Ob * bm * bk);
    return access;
  }
};

FcLayer::FcLayer(FcConfig cfg, Xoshiro256& rng)
    : cfg_(cfg),
      w_pack_{cfg.out_features, cfg.in_features, /*rs=*/cfg.in_features,
              /*cs=*/1, cfg.bm, cfg.bk, tpp::PackOrder::kRowsFastest,
              cfg.dtype},
      wt_pack_{cfg.in_features, cfg.out_features, /*rs=*/1,
               /*cs=*/cfg.in_features, cfg.bk, cfg.bm,
               tpp::PackOrder::kRowsFastest, DType::F32} {
  PLT_CHECK(cfg_.in_features % cfg_.bk == 0 &&
                cfg_.out_features % cfg_.bm == 0,
            "fc: bk must divide in_features and bm out_features");
  weight_.reshape({cfg_.out_features, cfg_.in_features});
  bias_.reshape({cfg_.out_features});
  dweight_.reshape({cfg_.out_features, cfg_.in_features});
  dbias_.reshape({cfg_.out_features});
  preact_.reshape({cfg_.tokens, cfg_.out_features});
  weight_.randn_uniform(rng, -0.05f, 0.05f);
  bias_.randn_uniform(rng, -0.01f, 0.01f);

  // W blocks in the contraction dtype; W^T blocks (bm' = bk, bk' = bm) in
  // fp32 for dgrad, which runs on the fp32 master weights.
  const std::int64_t blocks = w_pack_.row_blocks() * w_pack_.col_blocks();
  w_blocked_.resize(static_cast<std::size_t>(blocks * w_pack_.block_elems()) *
                    dtype_size(cfg_.dtype));
  wt_blocked_.resize(static_cast<std::size_t>(blocks * wt_pack_.block_elems()) *
                     sizeof(float));
  if (cfg_.dtype == DType::BF16) {
    in_stage_.resize(static_cast<std::size_t>(cfg_.tokens * cfg_.in_features) *
                     sizeof(bf16));
  }
  repack();
}

FcLayer::~FcLayer() = default;

void FcLayer::repack() {
  tpp::pack_blocked(w_pack_, weight_.data(), w_blocked_.data());
  tpp::pack_blocked(wt_pack_, weight_.data(), wt_blocked_.data());
}

void FcLayer::forward(const float* input, float* output) const {
  forward_tokens(input, cfg_.tokens, output);
}

FcLayer::TokenPlan& FcLayer::token_plan(std::int64_t S) const {
  for (auto& entry : token_plans_) {
    if (entry.first == S) return *entry.second;
  }
  const std::int64_t bn = S % cfg_.bn == 0 ? cfg_.bn : 1;
  token_plans_.emplace_back(
      S, std::make_unique<TokenPlan>(
             Contraction{cfg_.out_features, cfg_.in_features, cfg_.bm, cfg_.bk,
                         cfg_.dtype},
             S, bn, cfg_, /*forward=*/true));
  return *token_plans_.back().second;
}

FcLayer::BackwardPlan& FcLayer::backward_plan() {
  if (!backward_plan_) {
    const std::int64_t bn = cfg_.tokens % cfg_.bn == 0 ? cfg_.bn : 1;
    backward_plan_ = std::make_unique<BackwardPlan>(cfg_, bn);
  }
  return *backward_plan_;
}

void FcLayer::forward_tokens(const float* input, std::int64_t S,
                             float* output) const {
  const std::int64_t out_f = cfg_.out_features;
  PLT_CHECK(S <= cfg_.tokens, "fc: token count exceeds configured maximum");

  const TokenPlan& tp = token_plan(S);
  const std::int64_t bn = tp.bn;

  // The B operand: a row-major [S][in] activation is a column-major
  // in x S matrix with ld = in.
  const void* b_panel = input;
  if (tp.stage) {
    (*tp.stage)(input, in_stage_.data());
    b_panel = in_stage_.data();
  }

  float* pre = preact_.data();
  tp.run(w_blocked_.data(), b_panel, output, /*accumulate=*/false,
         [&](float* c_tile, std::int64_t im, std::int64_t is) {
           if (tp.bias) (*tp.bias)(bias_.data() + im * cfg_.bm, c_tile, c_tile);
           if (tp.act) {
             // Save the pre-activation for the backward pass, then activate.
             float* p_tile = pre + im * cfg_.bm + is * bn * out_f;
             for (std::int64_t j = 0; j < bn; ++j)
               std::memcpy(p_tile + j * out_f, c_tile + j * out_f,
                           sizeof(float) * static_cast<std::size_t>(cfg_.bm));
             (*tp.act)(c_tile, c_tile);
           }
         });
}

void FcLayer::zero_grad() {
  dweight_.zero();
  dbias_.zero();
}

void FcLayer::backward(const float* input, const float* grad_out,
                       float* grad_in, bool accumulate_grad_in) {
  const std::int64_t S = cfg_.tokens, in_f = cfg_.in_features,
                     out_f = cfg_.out_features, bm = cfg_.bm, bk = cfg_.bk;
  const BackwardPlan& bp = backward_plan();

  // g (out x S col-major, ld = out) is dO itself without an activation.
  AlignedBuffer<float> g_buf(bp.act_bwd ? static_cast<std::size_t>(S * out_f) : 0);
  AlignedBuffer<float> gt(static_cast<std::size_t>(S * out_f));
  AlignedBuffer<float> db(bp.row_sum ? static_cast<std::size_t>(out_f) : 0);
  const float* g = bp.act_bwd ? g_buf.data() : grad_out;
  const float* pre = preact_.data();

  bp.grad_nest([&](const std::int64_t* ind) {
    const std::int64_t o0 = ind[0] * bm;
    if (bp.act_bwd) (*bp.act_bwd)(grad_out + o0, g_buf.data() + o0, pre + o0);
    if (bp.row_sum) {
      (*bp.row_sum)(g + o0, db.data() + o0);
      for (std::int64_t r = 0; r < bm; ++r)
        dbias_[static_cast<std::size_t>(o0 + r)] +=
            db[static_cast<std::size_t>(o0 + r)];
    }
    tpp::transpose_2d(g + o0, gt.data() + o0 * S, bm, S, out_f, S);
  });

  float* dw = dweight_.data();
  bp.wgrad_nest([&](const std::int64_t* ind) {
    const std::int64_t i0 = ind[0] * bk, o0 = ind[1] * bm;
    bp.wgrad(input + i0, gt.data() + o0 * S, dw + o0 * in_f + i0, 1);
  });

  if (grad_in != nullptr) {
    bp.dgrad.run(wt_blocked_.data(), g, grad_in, accumulate_grad_in,
                 [](float*, std::int64_t, std::int64_t) {});
  }
}

void FcLayer::sgd_step(float lr) {
  const std::int64_t in_f = cfg_.in_features, bm = cfg_.bm;
  const std::int64_t Ib = w_pack_.col_blocks();
  float* w = weight_.data();
  const float* dw = dweight_.data();
  backward_plan().update_nest([&](const std::int64_t* ind) {
    const std::int64_t ob = ind[0], o0 = ob * bm;
    for (std::int64_t i = o0 * in_f; i < (o0 + bm) * in_f; ++i)
      w[i] -= lr * dw[i];
    for (std::int64_t o = o0; o < o0 + bm; ++o)
      bias_[static_cast<std::size_t>(o)] -= lr * dbias_[static_cast<std::size_t>(o)];
    for (std::int64_t ib = 0; ib < Ib; ++ib) {
      tpp::pack_block(w_pack_, w, w_blocked_.data(), ob, ib);
      tpp::pack_block(wt_pack_, w, wt_blocked_.data(), ib, ob);
    }
  });
}

}  // namespace plt::dl
