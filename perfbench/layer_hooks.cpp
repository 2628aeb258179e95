// Per-layer interposers, the routing decorator and the allocation counter
// (hlsbench_traced only). Each wrapper opens a Span and forwards; see
// hooks.hpp for how --wrap installs them.
//
// The wrappers restate each member function as a free function taking the
// object pointer first, which is how the Itanium C++ ABI passes `this`.
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "hooks.hpp"

using perfbench::Span;

// Weak, so a changed signature links and shows up as a hook with zero calls
// (bench.cpp's stale-interposer guard) rather than as a link error.
#define PERFBENCH_REAL extern "C" __attribute__((weak))

// ---- sim: event queue and CPU resources ----

PERFBENCH_REAL hls::EventId __real__ZN3hls9Simulator11schedule_atEdNS_14UniqueFunctionIFvvEEE(
    hls::Simulator* self, double t, hls::UniqueFunction<void()> cb);
extern "C" hls::EventId __wrap__ZN3hls9Simulator11schedule_atEdNS_14UniqueFunctionIFvvEEE(
    hls::Simulator* self, double t, hls::UniqueFunction<void()> cb) {
  const Span span(perfbench::kScheduleAt);
  return __real__ZN3hls9Simulator11schedule_atEdNS_14UniqueFunctionIFvvEEE(self, t,
                                                                           std::move(cb));
}

PERFBENCH_REAL hls::EventId __real__ZN3hls9Simulator14schedule_afterEdNS_14UniqueFunctionIFvvEEE(
    hls::Simulator* self, double delay, hls::UniqueFunction<void()> cb);
extern "C" hls::EventId __wrap__ZN3hls9Simulator14schedule_afterEdNS_14UniqueFunctionIFvvEEE(
    hls::Simulator* self, double delay, hls::UniqueFunction<void()> cb) {
  const Span span(perfbench::kScheduleAfter);
  return __real__ZN3hls9Simulator14schedule_afterEdNS_14UniqueFunctionIFvvEEE(self, delay,
                                                                              std::move(cb));
}

PERFBENCH_REAL bool __real__ZN3hls9Simulator6cancelEm(hls::Simulator* self, hls::EventId id);
extern "C" bool __wrap__ZN3hls9Simulator6cancelEm(hls::Simulator* self, hls::EventId id) {
  const Span span(perfbench::kCancel);
  return __real__ZN3hls9Simulator6cancelEm(self, id);
}

PERFBENCH_REAL hls::EventQueue::Popped __real__ZN3hls10EventQueue3popEv(hls::EventQueue* self);
extern "C" hls::EventQueue::Popped __wrap__ZN3hls10EventQueue3popEv(hls::EventQueue* self) {
  const Span span(perfbench::kPop);
  return __real__ZN3hls10EventQueue3popEv(self);
}

PERFBENCH_REAL void __real__ZN3hls12FcfsResource6submitEdNS_14UniqueFunctionIFvvEEE(
    hls::FcfsResource* self, double service, hls::UniqueFunction<void()> cb);
extern "C" void __wrap__ZN3hls12FcfsResource6submitEdNS_14UniqueFunctionIFvvEEE(
    hls::FcfsResource* self, double service, hls::UniqueFunction<void()> cb) {
  const Span span(perfbench::kSubmit);
  __real__ZN3hls12FcfsResource6submitEdNS_14UniqueFunctionIFvvEEE(self, service, std::move(cb));
}

// ---- db: lock manager ----

PERFBENCH_REAL hls::LockRequestOutcome
__real__ZN3hls11LockManager7requestEmjNS_8LockModeENS_14UniqueFunctionIFvvEEEPSt6vectorImSaImEE(
    hls::LockManager* self, hls::TxnId txn, hls::LockId lock, hls::LockMode mode,
    hls::UniqueFunction<void()> on_grant, std::vector<hls::TxnId>* cycle_out);
extern "C" hls::LockRequestOutcome
__wrap__ZN3hls11LockManager7requestEmjNS_8LockModeENS_14UniqueFunctionIFvvEEEPSt6vectorImSaImEE(
    hls::LockManager* self, hls::TxnId txn, hls::LockId lock, hls::LockMode mode,
    hls::UniqueFunction<void()> on_grant, std::vector<hls::TxnId>* cycle_out) {
  const Span span(perfbench::kLockRequest);
  return __real__ZN3hls11LockManager7requestEmjNS_8LockModeENS_14UniqueFunctionIFvvEEEPSt6vectorImSaImEE(
      self, txn, lock, mode, std::move(on_grant), cycle_out);
}

PERFBENCH_REAL void __real__ZN3hls11LockManager7releaseEmj(hls::LockManager* self, hls::TxnId txn,
                                                          hls::LockId lock);
extern "C" void __wrap__ZN3hls11LockManager7releaseEmj(hls::LockManager* self, hls::TxnId txn,
                                                      hls::LockId lock) {
  const Span span(perfbench::kLockRelease);
  __real__ZN3hls11LockManager7releaseEmj(self, txn, lock);
}

PERFBENCH_REAL void __real__ZN3hls11LockManager11release_allEm(hls::LockManager* self,
                                                              hls::TxnId txn);
extern "C" void __wrap__ZN3hls11LockManager11release_allEm(hls::LockManager* self,
                                                          hls::TxnId txn) {
  const Span span(perfbench::kLockReleaseAll);
  __real__ZN3hls11LockManager11release_allEm(self, txn);
}

PERFBENCH_REAL std::vector<hls::LockId> __real__ZN3hls11LockManager12cancel_waitsEm(
    hls::LockManager* self, hls::TxnId txn);
extern "C" std::vector<hls::LockId> __wrap__ZN3hls11LockManager12cancel_waitsEm(
    hls::LockManager* self, hls::TxnId txn) {
  const Span span(perfbench::kLockCancelWaits);
  return __real__ZN3hls11LockManager12cancel_waitsEm(self, txn);
}

PERFBENCH_REAL hls::LockManager::GrabResult
__real__ZN3hls11LockManager23grab_for_authenticationEmjNS_8LockModeE(hls::LockManager* self,
                                                                    hls::TxnId grabber,
                                                                    hls::LockId lock,
                                                                    hls::LockMode mode);
extern "C" hls::LockManager::GrabResult
__wrap__ZN3hls11LockManager23grab_for_authenticationEmjNS_8LockModeE(hls::LockManager* self,
                                                                    hls::TxnId grabber,
                                                                    hls::LockId lock,
                                                                    hls::LockMode mode) {
  const Span span(perfbench::kLockGrab);
  return __real__ZN3hls11LockManager23grab_for_authenticationEmjNS_8LockModeE(self, grabber,
                                                                             lock, mode);
}

// ---- net: links ----

PERFBENCH_REAL void __real__ZN3hls4Link4sendENS_14UniqueFunctionIFvvEEE(
    hls::Link* self, hls::UniqueFunction<void()> deliver);
extern "C" void __wrap__ZN3hls4Link4sendENS_14UniqueFunctionIFvvEEE(
    hls::Link* self, hls::UniqueFunction<void()> deliver) {
  const Span span(perfbench::kLinkSend);
  __real__ZN3hls4Link4sendENS_14UniqueFunctionIFvvEEE(self, std::move(deliver));
}

// ---- model ----

PERFBENCH_REAL hls::RouteEstimate __real__ZNK3hls16DynamicEstimator8estimateERKNS_15SystemStateViewE(
    const hls::DynamicEstimator* self, const hls::SystemStateView& view);
extern "C" hls::RouteEstimate __wrap__ZNK3hls16DynamicEstimator8estimateERKNS_15SystemStateViewE(
    const hls::DynamicEstimator* self, const hls::SystemStateView& view) {
  const Span span(perfbench::kEstimate);
  return __real__ZNK3hls16DynamicEstimator8estimateERKNS_15SystemStateViewE(self, view);
}

PERFBENCH_REAL hls::StaticOptimum __real__ZNK3hls15StaticOptimizer8optimizeERKNS_11ModelParamsE(
    const hls::StaticOptimizer* self, const hls::ModelParams& params);
extern "C" hls::StaticOptimum __wrap__ZNK3hls15StaticOptimizer8optimizeERKNS_11ModelParamsE(
    const hls::StaticOptimizer* self, const hls::ModelParams& params) {
  const Span span(perfbench::kOptimize);
  return __real__ZNK3hls15StaticOptimizer8optimizeERKNS_11ModelParamsE(self, params);
}

// ---- workload: transaction generation ----

PERFBENCH_REAL void __real__ZN3hls10TxnFactory4fillERNS_11TransactionEid(hls::TxnFactory* self,
                                                                        hls::Transaction& txn,
                                                                        int site, double now);
extern "C" void __wrap__ZN3hls10TxnFactory4fillERNS_11TransactionEid(hls::TxnFactory* self,
                                                                    hls::Transaction& txn,
                                                                    int site, double now) {
  const Span span(perfbench::kTxnFill);
  __real__ZN3hls10TxnFactory4fillERNS_11TransactionEid(self, txn, site, now);
}

PERFBENCH_REAL hls::Transaction __real__ZN3hls10TxnFactory4makeEid(hls::TxnFactory* self,
                                                                  int site, double now);
extern "C" hls::Transaction __wrap__ZN3hls10TxnFactory4makeEid(hls::TxnFactory* self, int site,
                                                              double now) {
  const Span span(perfbench::kTxnMake);
  return __real__ZN3hls10TxnFactory4makeEid(self, site, now);
}

// ---- obs: registry export ----

PERFBENCH_REAL void __real__ZNK3hls12HybridSystem15export_registryERNS_3obs8RegistryE(
    const hls::HybridSystem* self, hls::obs::Registry& reg);
extern "C" void __wrap__ZNK3hls12HybridSystem15export_registryERNS_3obs8RegistryE(
    const hls::HybridSystem* self, hls::obs::Registry& reg) {
  const Span span(perfbench::kExport);
  __real__ZNK3hls12HybridSystem15export_registryERNS_3obs8RegistryE(self, reg);
}

// ---- routing: decide() is virtual, so it is timed by a decorator that
// every strategy built through make_strategy is wrapped in ----

namespace {

class TimedStrategy final : public hls::RoutingStrategy {
 public:
  explicit TimedStrategy(std::unique_ptr<hls::RoutingStrategy> inner)
      : inner_(std::move(inner)) {}

  hls::Route decide(const hls::Transaction& txn, const hls::SystemStateView& view) override {
    const Span span(perfbench::kDecide);
    return inner_->decide(txn, view);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] hls::AdaptiveController* controller() override { return inner_->controller(); }
  [[nodiscard]] hls::TunableThreshold* tunable_threshold() override {
    return inner_->tunable_threshold();
  }

 private:
  std::unique_ptr<hls::RoutingStrategy> inner_;
};

}  // namespace

PERFBENCH_REAL std::unique_ptr<hls::RoutingStrategy>
__real__ZN3hls13make_strategyERKNS_12StrategySpecERKNS_11ModelParamsEm(
    const hls::StrategySpec& spec, const hls::ModelParams& base, std::uint64_t seed);
extern "C" std::unique_ptr<hls::RoutingStrategy>
__wrap__ZN3hls13make_strategyERKNS_12StrategySpecERKNS_11ModelParamsEm(
    const hls::StrategySpec& spec, const hls::ModelParams& base, std::uint64_t seed) {
  return std::make_unique<TimedStrategy>(
      __real__ZN3hls13make_strategyERKNS_12StrategySpecERKNS_11ModelParamsEm(spec, base, seed));
}

// ---- util: heap allocations (counted, then served by malloc) ----

void* operator new(std::size_t bytes) {
  perfbench::note_alloc(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  perfbench::note_alloc(bytes);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return ::operator new(bytes, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
