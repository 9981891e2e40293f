#include "cache/sim.hpp"

namespace tdt::cache {

using trace::AccessKind;

TraceCacheSim::TraceCacheSim(CacheHierarchy& hierarchy, SimOptions options)
    : hierarchy_(&hierarchy), options_(options) {}

void TraceCacheSim::add_observer(AccessObserver* observer) {
  observers_.push_back(observer);
}

void TraceCacheSim::on_record(const trace::TraceRecord& rec) {
  push_batch(std::span(&rec, 1));
}

void TraceCacheSim::push_batch(std::span<const trace::TraceRecord> batch) {
  // One virtual call per batch, and the options are read once per batch.
  CacheLevel& l1 = hierarchy_->l1();
  const bool ignore_instr = options_.ignore_instr;
  PageMapper* const mapper = options_.page_mapper;
  const bool modify_is_read_write = options_.modify_is_read_write;
  std::uint64_t simulated = 0;
  for (const trace::TraceRecord& rec : batch) {
    if (rec.kind == AccessKind::Instr && ignore_instr) continue;
    const std::uint64_t address =
        mapper != nullptr ? mapper->translate(rec.address) : rec.address;
    const bool is_write =
        rec.kind == AccessKind::Store || rec.kind == AccessKind::Modify;
    if (rec.kind == AccessKind::Modify && modify_is_read_write) {
      // DineroIV-style: the read part first (classified), then the write.
      l1.access_range(address, rec.size, /*is_write=*/false);
    }
    const AccessOutcome outcome = l1.access_range(address, rec.size, is_write);
    ++simulated;
    for (AccessObserver* obs : observers_) obs->on_access(rec, outcome);
  }
  simulated_ += simulated;
}

void TraceCacheSim::on_end() {
  for (AccessObserver* obs : observers_) obs->on_done();
}

void TraceCacheSim::simulate(std::span<const trace::TraceRecord> records) {
  push_batch(records);
  on_end();
}

}  // namespace tdt::cache
