#include "core/eval_engine.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::core {
namespace {

obs::Counter& cache_hit_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.cache.hit");
  return counter;
}

obs::Counter& cache_miss_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.cache.miss");
  return counter;
}

obs::Counter& forward_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.forwards");
  return counter;
}

obs::Counter& example_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.examples");
  return counter;
}

obs::Counter& batched_group_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.groups");
  return counter;
}

obs::Counter& batched_model_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.models");
  return counter;
}

obs::Counter& pack_reuse_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.batched.pack_reuses");
  return counter;
}

obs::Counter& split_reuse_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.split.reused");
  return counter;
}

obs::Counter& split_build_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("eval.split.built");
  return counter;
}

obs::Histogram& eval_us_histogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::global().histogram(
      "eval.us", obs::BucketLayout::exponential(1.0, 2.0, 24),
      /*timing=*/true);
  return histogram;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t state) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t fnv1a_reverse(const void* data, std::size_t bytes,
                            std::uint64_t state) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = bytes; i > 0; --i) {
    state ^= p[i - 1];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t mix64(std::uint64_t x) {
  // SplitMix64 finalizer.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// 128-bit content identity of a split: two independent byte passes
/// (forward and reverse order, distinct bases) over features then labels.
/// Used as an exact key; a collision would alias cache entries, so the
/// combined 128 bits + sample count keep that probability negligible.
SplitKey split_key_of(const data::DataSplit& split) {
  const std::span<const float> features = split.features.values();
  const std::size_t feature_bytes = features.size() * sizeof(float);
  const std::size_t label_bytes = split.labels.size() * sizeof(std::int32_t);

  SplitKey key;
  key.samples = split.size();
  key.lo = fnv1a(features.data(), feature_bytes, kFnvBasis);
  key.lo = fnv1a(split.labels.data(), label_bytes, key.lo);
  std::uint64_t hi = fnv1a_reverse(split.labels.data(), label_bytes,
                                   kFnvBasis ^ 0x9e3779b97f4a7c15ull);
  hi = fnv1a_reverse(features.data(), feature_bytes, hi);
  key.hi = mix64(hi);
  return key;
}

/// Per-batch partial score of one model; reduced per model in ascending
/// batch order, which reproduces evaluate()'s accumulation bit-for-bit.
struct BatchScore {
  float loss = 0.0f;
  std::size_t correct = 0;
};

BatchScore score_batch(const nn::Tensor& logits,
                       std::span<const std::int32_t> labels) {
  BatchScore score;
  score.loss = nn::softmax_cross_entropy_loss(logits, labels);
  for (std::size_t row = 0; row < labels.size(); ++row) {
    if (logits.argmax_row(row) == static_cast<std::size_t>(labels[row])) {
      ++score.correct;
    }
  }
  return score;
}

/// Reduces one model's per-batch scores in ascending batch order: the
/// data::evaluate accumulation chain (per-batch mean loss scaled by the
/// batch count, summed in double), bit-for-bit.
data::EvalResult reduce_scores(std::span<const BatchScore> scores,
                               const BatchedSplit& batched) {
  double loss_sum = 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < scores.size(); ++b) {
    const std::size_t count = batched.labels(b).size();
    loss_sum +=
        static_cast<double>(scores[b].loss) * static_cast<double>(count);
    correct += scores[b].correct;
    forward_counter().increment();
    example_counter().add(count);
  }
  data::EvalResult result;
  result.samples = batched.samples();
  result.loss = loss_sum / static_cast<double>(batched.samples());
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(batched.samples());
  return result;
}

void run_tasks(ThreadPool* pool, std::size_t n,
               const std::function<void(std::size_t)>& body) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
  } else {
    pool->parallel_for(n, body);
  }
}

}  // namespace

ParamsKey::ParamsKey() : ParamsKey(std::vector<tangle::PayloadId>{}) {}

ParamsKey::ParamsKey(std::vector<tangle::PayloadId> payloads)
    : payloads_(std::move(payloads)),
      hash_(fnv1a(payloads_.data(),
                  payloads_.size() * sizeof(tangle::PayloadId), kFnvBasis)) {}

BatchedSplit::BatchedSplit(const data::DataSplit& split, SplitKey key)
    : key_(key), samples_(split.size()) {
  constexpr std::size_t batch_size = data::kEvalBatchSize;
  features_.reserve((samples_ + batch_size - 1) / batch_size);
  labels_.reserve(features_.capacity());
  // Batch boundaries replicate data::evaluate exactly: [start, start+count)
  // for start = 0, batch_size, 2*batch_size, ...
  for (std::size_t start = 0; start < samples_; start += batch_size) {
    const std::size_t count = std::min(batch_size, samples_ - start);
    data::DataSplit batch = split.slice(start, count);
    bytes_ += batch.features.size() * sizeof(float) +
              batch.labels.size() * sizeof(std::int32_t);
    features_.push_back(std::move(batch.features));
    labels_.push_back(std::move(batch.labels));
  }
}

EvalEngine::EvalEngine(nn::ModelFactory factory, EvalEngineConfig config)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      shards_(std::make_unique<Shard[]>(kShards)) {
  assert(factory_);
}

EvalEngine::ModelLease::~ModelLease() {
  if (engine_ != nullptr) engine_->release(std::move(model_));
}

EvalEngine::ModelLease EvalEngine::acquire() {
  std::unique_ptr<nn::Model> model;
  {
    const MutexLock lock(pool_mutex_);
    if (!pool_.empty()) {
      model = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++models_created_;
    }
  }
  // Factory runs outside the lock; the slot was already accounted for.
  if (model == nullptr) model = std::make_unique<nn::Model>(factory_());
  return ModelLease(this, std::move(model));
}

void EvalEngine::release(std::unique_ptr<nn::Model> model) {
  const MutexLock lock(pool_mutex_);
  pool_.push_back(std::move(model));
}

std::shared_ptr<const BatchedSplit> EvalEngine::find_split(
    const SplitKey& key) {
  for (SplitSlot& slot : splits_) {
    if (slot.batched->key() == key) {
      slot.last_used = ++split_tick_;
      return slot.batched;
    }
  }
  return nullptr;
}

std::shared_ptr<const BatchedSplit> EvalEngine::prepare(
    const data::DataSplit& split) {
  assert(!split.empty());
  const SplitKey key = split_key_of(split);
  {
    const MutexLock lock(split_mutex_);
    if (auto resident = find_split(key)) {
      split_reuse_counter().increment();
      return resident;
    }
  }
  split_build_counter().increment();
  auto batched = std::make_shared<const BatchedSplit>(split, key);

  // Evicted splits are parked here and freed after the lock releases: a
  // pooled-test split can be tens of MB, and running its destructor under
  // split_mutex_ would block every concurrent probe's prepare().
  std::vector<std::shared_ptr<const BatchedSplit>> evicted;
  {
    const MutexLock lock(split_mutex_);
    // Another thread may have inserted the same contents while we
    // gathered; prefer the resident copy so probes share one instance.
    if (auto resident = find_split(key)) return resident;
    splits_.push_back(SplitSlot{batched, ++split_tick_});
    split_bytes_ += batched->bytes();
    // Evict least-recently-used entries over budget, always keeping the
    // newest (linear scan over a small vector — no unordered iteration).
    while (split_bytes_ > config_.batched_budget_bytes && splits_.size() > 1) {
      std::size_t oldest = 0;
      for (std::size_t i = 1; i < splits_.size(); ++i) {
        if (splits_[i].last_used < splits_[oldest].last_used) oldest = i;
      }
      split_bytes_ -= splits_[oldest].batched->bytes();
      evicted.push_back(std::move(splits_[oldest].batched));
      splits_.erase(splits_.begin() + static_cast<std::ptrdiff_t>(oldest));
    }
  }
  return batched;
}

data::EvalResult EvalEngine::evaluate(nn::Model& model,
                                      const BatchedSplit& batched) {
  obs::TraceScope span("eval.forward", &eval_us_histogram());
  if (batched.samples() == 0) return data::EvalResult{};
  std::vector<BatchScore> scores(batched.batch_count());
  for (std::size_t b = 0; b < scores.size(); ++b) {
    scores[b] = score_batch(
        model.forward(batched.features(b), /*training=*/false),
        batched.labels(b));
  }
  return reduce_scores(scores, batched);
}

data::EvalResult EvalEngine::eval_one(std::span<const float> params,
                                      const BatchedSplit& batched) {
  ModelLease lease = acquire();
  lease.model().set_parameters(params);
  return evaluate(lease.model(), batched);
}

// The fused pass shares each activation batch's conv im2col + panel pack
// across every model (the per-model weight packs and reduction chains are
// untouched, so each model's result is bit-identical to its solo eval) and
// drives the k×batches grid through the kernel pool — one leased instance
// per model, because layers cache activations and a single instance cannot
// run two batches concurrently.
void EvalEngine::eval_many(std::span<const std::span<const float>> params,
                           const BatchedSplit& batched,
                           std::span<data::EvalResult> results,
                           ThreadPool* pool) {
  const std::size_t k = params.size();
  assert(results.size() >= k);
  if (k == 0) return;
  if (batched.samples() == 0) {
    for (std::size_t i = 0; i < k; ++i) results[i] = data::EvalResult{};
    return;
  }
  // A lone model has nothing to share: take the standalone path.
  if (k == 1) {
    results[0] = eval_one(params[0], batched);
    return;
  }

  obs::TraceScope span("eval.forward", &eval_us_histogram());
  batched_group_counter().increment();
  batched_model_counter().add(k);
  const std::size_t batches = batched.batch_count();
  std::vector<ModelLease> leases;
  leases.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    leases.push_back(acquire());
    leases.back().model().set_parameters(params[i]);
  }

  // Input-pack sharing applies when the stack opens with a convolution
  // (every leased model has the same architecture); other stacks still get
  // the grid parallelism with per-model full forwards.
  nn::Model& probe = leases.front().model();
  const bool fuse_conv =
      probe.layer_count() > 1 && probe.layer(0).name() == "Conv2D";

  std::vector<BatchScore> grid(k * batches);
  if (fuse_conv) {
    const nn::ops::Conv2DShape shape =
        static_cast<nn::Conv2D&>(probe.layer(0)).shape();
    nn::ops::Workspace pack_scratch;
    std::vector<float> packed;
    for (std::size_t b = 0; b < batches; ++b) {
      const nn::Tensor& x = batched.features(b);
      const std::size_t h = x.dim(2), w = x.dim(3);
      const std::size_t per_sample =
          nn::ops::conv2d_packed_input_floats(shape, h, w);
      packed.resize(x.dim(0) * per_sample);
      nn::ops::conv2d_pack_input(x, shape, packed, &pack_scratch);
      pack_reuse_counter().add(k - 1);
      run_tasks(pool, k, [&](std::size_t i) {
        nn::Model& model = leases[i].model();
        auto& conv = static_cast<nn::Conv2D&>(model.layer(0));
        nn::Tensor y1({x.dim(0), shape.out_channels, shape.out_extent(h),
                       shape.out_extent(w)});
        nn::ops::conv2d_forward_prepacked(packed, x.dim(0), h, w,
                                          conv.weight(), conv.bias(), shape,
                                          y1);
        const nn::Tensor logits =
            model.forward_from(1, y1, /*training=*/false);
        grid[i * batches + b] = score_batch(logits, batched.labels(b));
      });
    }
  } else {
    run_tasks(pool, k, [&](std::size_t i) {
      nn::Model& model = leases[i].model();
      for (std::size_t b = 0; b < batches; ++b) {
        const nn::Tensor logits =
            model.forward(batched.features(b), /*training=*/false);
        grid[i * batches + b] = score_batch(logits, batched.labels(b));
      }
    });
  }

  // Serial reduction in (model, batch) order: the same double-precision
  // chain and counter totals as k standalone evaluate() calls.
  for (std::size_t i = 0; i < k; ++i) {
    results[i] = reduce_scores(
        std::span<const BatchScore>(grid).subspan(i * batches, batches),
        batched);
  }
}

std::vector<EvalOutcome> EvalEngine::evaluate_many(
    std::span<const EvalRequest> requests, const BatchedSplit& batched,
    ThreadPool* pool) {
  std::vector<EvalOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;

  // Resolve cache hits up front so only misses enter the fused pass. A key
  // duplicated within the group is evaluated once: the first occurrence is
  // the miss, later ones resolve as hits against its result — the same
  // hit/miss sequence the serial probe order produces (where the first
  // probe's insert precedes the second probe's lookup).
  std::vector<std::size_t> miss_requests;  // request index per fused slot
  std::vector<std::pair<std::size_t, std::size_t>> aliases;  // request, slot
  miss_requests.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    if (!request.key.has_value()) {
      // No cache identity: always evaluated, never cached or deduplicated.
      miss_requests.push_back(i);
      continue;
    }
    data::EvalResult cached;
    if (lookup(ResultKey{*request.key, batched.key()}, cached)) {
      cache_hit_counter().increment();
      outcomes[i] = EvalOutcome{cached, true};
      continue;
    }
    bool aliased = false;
    for (std::size_t slot = 0; slot < miss_requests.size(); ++slot) {
      const EvalRequest& prior = requests[miss_requests[slot]];
      if (prior.key.has_value() && *prior.key == *request.key) {
        cache_hit_counter().increment();
        aliases.emplace_back(i, slot);
        aliased = true;
        break;
      }
    }
    if (aliased) continue;
    cache_miss_counter().increment();
    miss_requests.push_back(i);
  }

  std::vector<data::EvalResult> results(miss_requests.size());
  if (!miss_requests.empty()) {
    std::vector<std::span<const float>> params(miss_requests.size());
    for (std::size_t slot = 0; slot < miss_requests.size(); ++slot) {
      params[slot] = requests[miss_requests[slot]].params;
    }
    eval_many(params, batched, results, pool);
    for (std::size_t slot = 0; slot < miss_requests.size(); ++slot) {
      const EvalRequest& request = requests[miss_requests[slot]];
      outcomes[miss_requests[slot]] = EvalOutcome{results[slot], false};
      if (request.key.has_value()) {
        insert(ResultKey{*request.key, batched.key()}, results[slot]);
      }
    }
  }
  for (const auto& [request_index, slot] : aliases) {
    outcomes[request_index] = EvalOutcome{results[slot], true};
  }
  return outcomes;
}

std::vector<EvalOutcome> EvalEngine::payloads_eval_many(
    const tangle::ModelStore& store,
    std::span<const tangle::PayloadId> payloads, const BatchedSplit& batched,
    ThreadPool* pool) {
  std::vector<EvalRequest> requests(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    requests[i].params = store.get(payloads[i]);
    requests[i].key = ParamsKey::single(payloads[i]);
  }
  return evaluate_many(requests, batched, pool);
}

std::size_t EvalEngine::ResultKeyHash::operator()(
    const ResultKey& key) const noexcept {
  // The payload-list pass is precomputed by ParamsKey at construction; only
  // the fixed-size split key is mixed per lookup. The resulting value is
  // unchanged from hashing both parts here.
  const std::uint64_t state =
      fnv1a(&key.split, sizeof(SplitKey), key.params.hash());
  return static_cast<std::size_t>(mix64(state));
}

EvalEngine::Shard& EvalEngine::shard_for(const ResultKey& key) const {
  return shards_[ResultKeyHash{}(key) % kShards];
}

bool EvalEngine::lookup(const ResultKey& key, data::EvalResult& out) const {
  Shard& shard = shard_for(key);
  const ReaderLock lock(shard.mutex);
  const auto it = shard.results.find(key);
  if (it == shard.results.end()) return false;
  out = it->second;
  return true;
}

void EvalEngine::insert(const ResultKey& key, const data::EvalResult& result) {
  Shard& shard = shard_for(key);
  const WriterLock lock(shard.mutex);
  shard.results.emplace(key, result);
}

std::size_t EvalEngine::models_created() const {
  const MutexLock lock(pool_mutex_);
  return models_created_;
}

std::size_t EvalEngine::pool_size() const {
  const MutexLock lock(pool_mutex_);
  return pool_.size();
}

std::size_t EvalEngine::cached_results() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const ReaderLock lock(shards_[i].mutex);
    total += shards_[i].results.size();
  }
  return total;
}

std::size_t EvalEngine::cached_splits() const {
  const MutexLock lock(split_mutex_);
  return splits_.size();
}

}  // namespace tanglefl::core
