// A KvBackend decorator that times every call into the backend layer
// from outside, and can corrupt replies on purpose so the self-test can
// prove the reply checker catches a wrong value.

#ifndef PERFBENCH_TIMING_BACKEND_H_
#define PERFBENCH_TIMING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "common.h"
#include "net/backend.h"
#include "obs/histogram.h"

namespace perfbench {

class TimingBackend final : public simdtree::net::KvBackend {
 public:
  // `inner` is borrowed and must outlive this decorator. With
  // corrupt_every = N > 0, every N-th key a FindBatch finds comes back
  // with its value changed.
  explicit TimingBackend(simdtree::net::KvBackend* inner,
                         uint64_t corrupt_every = 0)
      : inner_(inner), corrupt_every_(corrupt_every) {}

  // Timing is off until armed, so the untraced phase of a traced run
  // pays one relaxed load per call.
  void Arm(bool on) { armed_.store(on, std::memory_order_relaxed); }

  void FindBatch(const uint64_t* keys, size_t n,
                 std::optional<uint64_t>* out) override {
    const bool armed = armed_.load(std::memory_order_relaxed);
    const uint64_t t0 = armed ? NowNs() : 0;
    inner_->FindBatch(keys, n, out);
    if (armed) {
      find_batch_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
      find_batch_keys_.fetch_add(n, std::memory_order_relaxed);
    }
    if (corrupt_every_ > 0) {
      for (size_t i = 0; i < n; ++i) {
        if (out[i].has_value() &&
            found_.fetch_add(1, std::memory_order_relaxed) % corrupt_every_ ==
                corrupt_every_ - 1) {
          *out[i] ^= 1;
        }
      }
    }
  }

  bool LowerBound(uint64_t key, uint64_t* out_key,
                  uint64_t* out_value) override {
    const bool armed = armed_.load(std::memory_order_relaxed);
    const uint64_t t0 = armed ? NowNs() : 0;
    const bool found = inner_->LowerBound(key, out_key, out_value);
    if (armed) {
      lower_bound_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
      lower_bound_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    return found;
  }

  void Put(uint64_t key, uint64_t value) override {
    const bool armed = armed_.load(std::memory_order_relaxed);
    const uint64_t t0 = armed ? NowNs() : 0;
    inner_->Put(key, value);
    if (armed) put_ns_.Record(NowNs() - t0);
  }

  bool Del(uint64_t key) override {
    const bool armed = armed_.load(std::memory_order_relaxed);
    const uint64_t t0 = armed ? NowNs() : 0;
    const bool erased = inner_->Del(key);
    if (armed) del_ns_.Record(NowNs() - t0);
    return erased;
  }

  std::string StatsJson() override { return inner_->StatsJson(); }

  double find_batch_ns_per_key() const {
    const uint64_t k = find_batch_keys_.load(std::memory_order_relaxed);
    return k ? static_cast<double>(find_batch_ns_.load()) / k : 0.0;
  }
  double lower_bound_ns() const {
    const uint64_t c = lower_bound_calls_.load(std::memory_order_relaxed);
    return c ? static_cast<double>(lower_bound_ns_.load()) / c : 0.0;
  }
  const simdtree::obs::LogHistogram& put_ns() const { return put_ns_; }
  const simdtree::obs::LogHistogram& del_ns() const { return del_ns_; }

 private:
  simdtree::net::KvBackend* inner_;
  const uint64_t corrupt_every_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> found_{0};
  std::atomic<uint64_t> find_batch_ns_{0};
  std::atomic<uint64_t> find_batch_keys_{0};
  std::atomic<uint64_t> lower_bound_ns_{0};
  std::atomic<uint64_t> lower_bound_calls_{0};
  simdtree::obs::LogHistogram put_ns_;
  simdtree::obs::LogHistogram del_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_BACKEND_H_
