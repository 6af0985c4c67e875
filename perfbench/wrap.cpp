// Link-time layer spans for the traced build. CMakeLists.txt reads the
// mangled names of the SYM_ macros below and links with -Wl,--wrap=SYM for
// each, so the libraries' calls to SYM reach __wrap_SYM, which opens a span
// and forwards to __real_SYM, the original definition. Each wrapper repeats
// the original C++ signature with `this` as an explicit first parameter,
// which is the same calling convention on the Itanium C++ ABI.
//
// __real_ references are weak and the libraries are linked whole-archive:
// if a later change renames or deletes one of these functions, the traced
// build still links, the layer reports zero calls, and
// wrapped_symbols_missing() names the loss instead of the link failing.
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/eval_engine.hpp"
#include "core/node.hpp"
#include "core/reference.hpp"
#include "data/training.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "spans.hpp"
#include "support/sha256.hpp"
#include "tangle/model_store.hpp"
#include "tangle/payload_codec.hpp"
#include "tangle/tangle.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

namespace tf = tanglefl;
using perfbench::Layer;
using perfbench::Span;

// --- core -----------------------------------------------------------------

#define SYM_NODE_STEP \
  _ZN8tanglefl4core10HonestNode4stepERNS0_11NodeContextERKNS_4data8UserDataE
#define SYM_REF_CACHED \
  _ZN8tanglefl4core16choose_referenceERKNS_6tangle10TangleViewERKNS1_10ModelStoreERKNS1_14ViewCacheEntryERNS_3RngERKNS0_15ReferenceConfigE
#define SYM_REF_DIRECT \
  _ZN8tanglefl4core16choose_referenceERKNS_6tangle10TangleViewERKNS1_10ModelStoreERNS_3RngERKNS0_15ReferenceConfigE
#define SYM_EVAL_MANY \
  _ZN8tanglefl4core10EvalEngine13evaluate_manyESt4spanIKNS0_11EvalRequestELm18446744073709551615EERKNS0_12BatchedSplitEPNS_10ThreadPoolE
#define SYM_TRAIN \
  _ZN8tanglefl4data11train_localERNS_2nn5ModelERKNS0_9DataSplitERKNS0_11TrainConfigERNS_3RngE
#define SYM_FORWARD _ZN8tanglefl2nn5Model7forwardERKNS0_6TensorEb
#define SYM_BACKWARD _ZN8tanglefl2nn5Model8backwardERKNS0_6TensorE
#define SYM_OPTIMIZER _ZN8tanglefl2nn12SgdOptimizer4stepERNS0_5ModelE
#define SYM_WALK_DIRECT \
  _ZN8tanglefl6tangle11select_tipsERKNS0_10TangleViewEmRNS_3RngERKNS0_18TipSelectionConfigE
#define SYM_WALK_CACHED \
  _ZN8tanglefl6tangle11select_tipsERKNS0_14ViewCacheEntryEmRNS_3RngERKNS0_18TipSelectionConfigE
#define SYM_CONES \
  _ZN8tanglefl6tangle9ViewCache3getERKNS0_10TangleViewEPNS_10ThreadPoolE
#define SYM_CODEC \
  _ZNK8tanglefl6tangle15PayloadPipeline7processESt6vectorIfSaIfEESt4spanIKmLm18446744073709551615EERKNS0_6TangleERKNS0_10ModelStoreE
#define SYM_STORE _ZN8tanglefl6tangle10ModelStore3addESt6vectorIfSaIfEE
#define SYM_DAG \
  _ZN8tanglefl6tangle6Tangle15add_transactionESt4spanIKmLm18446744073709551615EEmRKSt5arrayIhLm32EEmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm
#define SYM_SHA_BYTES _ZN8tanglefl6Sha2564hashESt4spanIKhLm18446744073709551615EE
#define SYM_SHA_TEXT \
  _ZN8tanglefl6Sha2564hashESt17basic_string_viewIcSt11char_traitsIcEE

// Token-pasting needs the macro arguments expanded first.
#define PB_CAT(a, b) a##b
#define PB_EXPAND_CAT(a, b) PB_CAT(a, b)
#define REAL(SYM) PB_EXPAND_CAT(__real_, SYM)
#define WRAP(SYM) PB_EXPAND_CAT(__wrap_, SYM)

extern "C" {

std::optional<tf::core::PublishRequest> REAL(SYM_NODE_STEP)(
    tf::core::HonestNode*, tf::core::NodeContext&, const tf::data::UserData&)
    __attribute__((weak));
std::optional<tf::core::PublishRequest> WRAP(SYM_NODE_STEP)(
    tf::core::HonestNode* self, tf::core::NodeContext& context,
    const tf::data::UserData& user) {
  Span span(Layer::kNodeStep);
  std::optional<tf::core::PublishRequest> result =
      REAL(SYM_NODE_STEP)(self, context, user);
  if (result) perfbench::note_publish();
  return result;
}

tf::core::ReferenceResult REAL(SYM_REF_CACHED)(
    const tf::tangle::TangleView&, const tf::tangle::ModelStore&,
    const tf::tangle::ViewCacheEntry&, tf::Rng&,
    const tf::core::ReferenceConfig&) __attribute__((weak));
tf::core::ReferenceResult WRAP(SYM_REF_CACHED)(
    const tf::tangle::TangleView& view, const tf::tangle::ModelStore& store,
    const tf::tangle::ViewCacheEntry& cones, tf::Rng& rng,
    const tf::core::ReferenceConfig& config) {
  Span span(Layer::kReference);
  return REAL(SYM_REF_CACHED)(view, store, cones, rng, config);
}

tf::core::ReferenceResult REAL(SYM_REF_DIRECT)(
    const tf::tangle::TangleView&, const tf::tangle::ModelStore&, tf::Rng&,
    const tf::core::ReferenceConfig&) __attribute__((weak));
tf::core::ReferenceResult WRAP(SYM_REF_DIRECT)(
    const tf::tangle::TangleView& view, const tf::tangle::ModelStore& store,
    tf::Rng& rng, const tf::core::ReferenceConfig& config) {
  Span span(Layer::kReference);
  return REAL(SYM_REF_DIRECT)(view, store, rng, config);
}

std::vector<tf::core::EvalOutcome> REAL(SYM_EVAL_MANY)(
    tf::core::EvalEngine*, std::span<const tf::core::EvalRequest>,
    const tf::core::BatchedSplit&, tf::ThreadPool*) __attribute__((weak));
std::vector<tf::core::EvalOutcome> WRAP(SYM_EVAL_MANY)(
    tf::core::EvalEngine* self, std::span<const tf::core::EvalRequest> requests,
    const tf::core::BatchedSplit& batched, tf::ThreadPool* pool) {
  Span span(Layer::kEvalMany);
  perfbench::note_eval_models(static_cast<std::int64_t>(requests.size()));
  return REAL(SYM_EVAL_MANY)(self, requests, batched, pool);
}

// --- data / nn ------------------------------------------------------------

double REAL(SYM_TRAIN)(tf::nn::Model&, const tf::data::DataSplit&,
                       const tf::data::TrainConfig&, tf::Rng&)
    __attribute__((weak));
double WRAP(SYM_TRAIN)(tf::nn::Model& model, const tf::data::DataSplit& split,
                       const tf::data::TrainConfig& config, tf::Rng& rng) {
  Span span(Layer::kTrain);
  return REAL(SYM_TRAIN)(model, split, config, rng);
}

tf::nn::Tensor REAL(SYM_FORWARD)(tf::nn::Model*, const tf::nn::Tensor&, bool)
    __attribute__((weak));
tf::nn::Tensor WRAP(SYM_FORWARD)(tf::nn::Model* self,
                                 const tf::nn::Tensor& input, bool training) {
  Span span(Layer::kForward);
  return REAL(SYM_FORWARD)(self, input, training);
}

tf::nn::Tensor REAL(SYM_BACKWARD)(tf::nn::Model*, const tf::nn::Tensor&)
    __attribute__((weak));
tf::nn::Tensor WRAP(SYM_BACKWARD)(tf::nn::Model* self,
                                  const tf::nn::Tensor& grad_output) {
  Span span(Layer::kBackward);
  return REAL(SYM_BACKWARD)(self, grad_output);
}

void REAL(SYM_OPTIMIZER)(tf::nn::SgdOptimizer*, tf::nn::Model&)
    __attribute__((weak));
void WRAP(SYM_OPTIMIZER)(tf::nn::SgdOptimizer* self, tf::nn::Model& model) {
  Span span(Layer::kOptimizer);
  REAL(SYM_OPTIMIZER)(self, model);
}

// --- tangle ---------------------------------------------------------------

std::vector<tf::tangle::TxIndex> REAL(SYM_WALK_DIRECT)(
    const tf::tangle::TangleView&, std::size_t, tf::Rng&,
    const tf::tangle::TipSelectionConfig&) __attribute__((weak));
std::vector<tf::tangle::TxIndex> WRAP(SYM_WALK_DIRECT)(
    const tf::tangle::TangleView& view, std::size_t count, tf::Rng& rng,
    const tf::tangle::TipSelectionConfig& config) {
  Span span(Layer::kWalk);
  return REAL(SYM_WALK_DIRECT)(view, count, rng, config);
}

std::vector<tf::tangle::TxIndex> REAL(SYM_WALK_CACHED)(
    const tf::tangle::ViewCacheEntry&, std::size_t, tf::Rng&,
    const tf::tangle::TipSelectionConfig&) __attribute__((weak));
std::vector<tf::tangle::TxIndex> WRAP(SYM_WALK_CACHED)(
    const tf::tangle::ViewCacheEntry& cones, std::size_t count, tf::Rng& rng,
    const tf::tangle::TipSelectionConfig& config) {
  Span span(Layer::kWalk);
  return REAL(SYM_WALK_CACHED)(cones, count, rng, config);
}

std::shared_ptr<const tf::tangle::ViewCacheEntry> REAL(SYM_CONES)(
    tf::tangle::ViewCache*, const tf::tangle::TangleView&, tf::ThreadPool*)
    __attribute__((weak));
std::shared_ptr<const tf::tangle::ViewCacheEntry> WRAP(SYM_CONES)(
    tf::tangle::ViewCache* self, const tf::tangle::TangleView& view,
    tf::ThreadPool* pool) {
  Span span(Layer::kCones);
  return REAL(SYM_CONES)(self, view, pool);
}

tf::nn::ParamVector REAL(SYM_CODEC)(const tf::tangle::PayloadPipeline*,
                                    tf::nn::ParamVector,
                                    std::span<const tf::tangle::TxIndex>,
                                    const tf::tangle::Tangle&,
                                    const tf::tangle::ModelStore&)
    __attribute__((weak));
tf::nn::ParamVector WRAP(SYM_CODEC)(
    const tf::tangle::PayloadPipeline* self, tf::nn::ParamVector params,
    std::span<const tf::tangle::TxIndex> parents,
    const tf::tangle::Tangle& tangle, const tf::tangle::ModelStore& store) {
  Span span(Layer::kCodec);
  return REAL(SYM_CODEC)(self, std::move(params), parents, tangle, store);
}

tf::tangle::ModelStore::AddResult REAL(SYM_STORE)(tf::tangle::ModelStore*,
                                                  tf::nn::ParamVector)
    __attribute__((weak));
tf::tangle::ModelStore::AddResult WRAP(SYM_STORE)(tf::tangle::ModelStore* self,
                                                  tf::nn::ParamVector params) {
  Span span(Layer::kStore);
  return REAL(SYM_STORE)(self, std::move(params));
}

tf::tangle::TxIndex REAL(SYM_DAG)(tf::tangle::Tangle*,
                                  std::span<const tf::tangle::TxIndex>,
                                  tf::tangle::PayloadId,
                                  const tf::Sha256Digest&, std::uint64_t,
                                  std::string, std::uint64_t)
    __attribute__((weak));
tf::tangle::TxIndex WRAP(SYM_DAG)(tf::tangle::Tangle* self,
                                  std::span<const tf::tangle::TxIndex> parents,
                                  tf::tangle::PayloadId payload,
                                  const tf::Sha256Digest& payload_hash,
                                  std::uint64_t round, std::string publisher,
                                  std::uint64_t nonce) {
  Span span(Layer::kDag);
  return REAL(SYM_DAG)(self, parents, payload, payload_hash, round,
                       std::move(publisher), nonce);
}

// --- support --------------------------------------------------------------

tf::Sha256Digest REAL(SYM_SHA_BYTES)(std::span<const std::uint8_t>) noexcept
    __attribute__((weak));
tf::Sha256Digest WRAP(SYM_SHA_BYTES)(
    std::span<const std::uint8_t> data) noexcept {
  Span span(Layer::kSha256);
  perfbench::note_sha256_bytes(static_cast<std::int64_t>(data.size()));
  return REAL(SYM_SHA_BYTES)(data);
}

tf::Sha256Digest REAL(SYM_SHA_TEXT)(std::string_view) noexcept
    __attribute__((weak));
tf::Sha256Digest WRAP(SYM_SHA_TEXT)(std::string_view data) noexcept {
  Span span(Layer::kSha256);
  perfbench::note_sha256_bytes(static_cast<std::int64_t>(data.size()));
  return REAL(SYM_SHA_TEXT)(data);
}

}  // extern "C"

namespace perfbench {

#define PB_STR(x) #x
#define PB_XSTR(x) PB_STR(x)
#define PB_ENTRY(SYM) \
  {PB_XSTR(SYM), reinterpret_cast<const void*>(&REAL(SYM))}

std::vector<std::string> wrapped_symbols_missing() {
  const std::pair<const char*, const void*> entries[] = {
      PB_ENTRY(SYM_NODE_STEP), PB_ENTRY(SYM_REF_CACHED),
      PB_ENTRY(SYM_REF_DIRECT), PB_ENTRY(SYM_EVAL_MANY),
      PB_ENTRY(SYM_TRAIN),     PB_ENTRY(SYM_FORWARD),
      PB_ENTRY(SYM_BACKWARD),  PB_ENTRY(SYM_OPTIMIZER),
      PB_ENTRY(SYM_WALK_DIRECT), PB_ENTRY(SYM_WALK_CACHED),
      PB_ENTRY(SYM_CONES),     PB_ENTRY(SYM_CODEC),
      PB_ENTRY(SYM_STORE),     PB_ENTRY(SYM_DAG),
      PB_ENTRY(SYM_SHA_BYTES), PB_ENTRY(SYM_SHA_TEXT),
  };
  std::vector<std::string> missing;
  for (const auto& [name, address] : entries) {
    if (address == nullptr) missing.emplace_back(name);
  }
  return missing;
}

}  // namespace perfbench
