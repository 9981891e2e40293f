// Differential oracle for the text writers: a deliberately naive
// reference runs next to the block encoder on fixed-seed random records,
// and the bytes must match — for the whole-trace helpers, for WriterSink
// and DinSink fed in batches of every shape, and for format_record /
// format_var.
//
// The reference is the per-line formatter the encoder replaced: one
// std::string per line, built with to_hex and std::to_string, names
// looked up in the pool on every use. It shares no formatting code with
// the encoder.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "trace/din.hpp"
#include "trace/writer.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace tdt::trace {
namespace {

std::string reference_var(const TraceContext& ctx, const VarRef& var) {
  std::string out(ctx.name(var.base));
  for (const VarStep& step : var.steps) {
    if (step.is_field) {
      out += '.';
      out += ctx.name(step.field);
    } else {
      out += '[';
      out += std::to_string(step.index);
      out += ']';
    }
  }
  return out;
}

std::string reference_line(const TraceContext& ctx, const TraceRecord& rec) {
  std::string out;
  out += access_kind_code(rec.kind);
  out += ' ';
  out += to_hex(rec.address, 9);
  out += ' ';
  out += std::to_string(rec.size);
  out += ' ';
  out += ctx.name(rec.function);
  if (rec.scope != VarScope::Unknown) {
    out += ' ';
    out += var_scope_code(rec.scope);
    if (!is_global_scope(rec.scope)) {
      out += ' ';
      out += std::to_string(rec.frame);
      out += ' ';
      out += std::to_string(rec.thread);
    }
    out += ' ';
    out += reference_var(ctx, rec.var);
  }
  return out;
}

std::string reference_trace(const TraceContext& ctx,
                            const std::vector<TraceRecord>& records,
                            std::uint64_t pid) {
  std::string out = "START PID " + std::to_string(pid) + "\n";
  for (const TraceRecord& rec : records) {
    out += reference_line(ctx, rec);
    out += '\n';
  }
  out += "END PID " + std::to_string(pid) + "\n";
  return out;
}

std::string reference_din(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& rec : records) {
    char label = '0';
    switch (rec.kind) {
      case AccessKind::Load: label = '0'; break;
      case AccessKind::Store:
      case AccessKind::Modify: label = '1'; break;
      case AccessKind::Instr: label = '2'; break;
      case AccessKind::Misc: continue;
    }
    out += label;
    out += ' ';
    out += to_hex(rec.address);
    out += ' ';
    out += to_hex(rec.size);
    out += '\n';
  }
  return out;
}

/// Fixed-seed records covering every kind and scope, local and global
/// frames and threads up to 0xFFFF, addresses and 64-bit indices of
/// every width (0 and 2^64-1 included), sizes up to 2^32-1, selectors of
/// 0 to 12 steps (many spill SmallVector's three inline steps), names
/// from 2 bytes to about 100 KiB, and a variable on some Unknown-scope
/// records, which the text format does not print.
std::vector<TraceRecord> random_records(TraceContext& ctx, std::size_t n,
                                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Symbol> names;
  for (int i = 0; i < 3000; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    if (i % 500 == 7) name.append(static_cast<std::size_t>(40 * i), 'x');
    names.push_back(ctx.intern(name));
  }
  const auto pick_name = [&] {
    return names[rng.next_below(4) != 0 ? rng.next_below(16)
                                        : rng.next_below(names.size())];
  };
  const auto any_width = [&]() -> std::uint64_t {
    const unsigned bits = static_cast<unsigned>(rng.next_below(65));
    return bits == 0 ? 0 : rng.next() >> (64 - bits);
  };
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.kind = static_cast<AccessKind>(rng.next_below(5));
    rec.scope = static_cast<VarScope>(rng.next_below(5));
    switch (rng.next_below(4)) {
      case 0: rec.address = 0; break;
      case 1: rec.address = ~std::uint64_t{0}; break;
      default: rec.address = any_width(); break;
    }
    switch (rng.next_below(4)) {
      case 0: rec.size = 0xFFFFFFFFu; break;
      case 1: rec.size = static_cast<std::uint32_t>(any_width()); break;
      default: rec.size = 1u << rng.next_below(4); break;
    }
    rec.frame = static_cast<std::uint16_t>(any_width());
    rec.thread = static_cast<std::uint16_t>(any_width());
    rec.function = pick_name();
    if (rec.scope != VarScope::Unknown || rng.next_below(8) == 0) {
      rec.var.base = pick_name();
      const std::uint64_t steps =
          rng.next_below(10) == 0 ? 12 : rng.next_below(7);
      for (std::uint64_t s = 0; s < steps; ++s) {
        if (rng.next_below(3) == 0) {
          rec.var.steps.push_back(VarStep::make_field(pick_name()));
        } else {
          const std::uint64_t index =
              rng.next_below(4) == 0 ? ~std::uint64_t{0} : any_width();
          rec.var.steps.push_back(VarStep::make_index(index));
        }
      }
    }
    out.push_back(std::move(rec));
  }
  return out;
}

/// Streams `records` through `sink` in batches of `batch` records (0
/// means one on_record call per record), then ends the trace.
void feed(TraceSink& sink, const std::vector<TraceRecord>& records,
          std::size_t batch) {
  if (batch == 0) {
    for (const TraceRecord& rec : records) sink.on_record(rec);
  } else {
    for (std::size_t i = 0; i < records.size(); i += batch) {
      sink.push_batch(std::span<const TraceRecord>(records).subspan(
          i, std::min(batch, records.size() - i)));
    }
  }
  sink.on_end();
}

constexpr std::uint64_t kPid = ~std::uint64_t{0};

TEST(TextWriterDiff, WholeTraceMatchesTheNaiveReference) {
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 5000, 0x7e47);
  const std::string want = reference_trace(ctx, records, kPid);
  ASSERT_GT(want.size(), 4 * kTextBlock);  // many blocks
  EXPECT_EQ(write_trace_string(ctx, records, kPid), want);
}

TEST(TextWriterDiff, StreamedBatchesMatchTheNaiveReference) {
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 3000, 0x5eed);
  const std::string want = reference_trace(ctx, records, 17);
  for (const std::size_t batch : {0u, 1u, 7u, 4096u}) {
    std::ostringstream out;
    WriterSink sink(ctx, out, 17);
    feed(sink, records, batch);
    EXPECT_EQ(out.str(), want) << "batch " << batch;
    EXPECT_EQ(sink.records_written(), records.size());
  }
}

TEST(TextWriterDiff, FormatRecordAndVarMatchTheNaiveReference) {
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 3000, 0xf0f0);
  for (const TraceRecord& rec : records) {
    ASSERT_EQ(ctx.format_record(rec), reference_line(ctx, rec));
    ASSERT_EQ(ctx.format_var(rec.var), reference_var(ctx, rec.var));
  }
}

TEST(TextWriterDiff, LinesLongerThanOneBlock) {
  TraceContext ctx;
  const std::string huge(kTextBlock + 1000, 'f');
  TraceRecord rec;
  rec.kind = AccessKind::Modify;
  rec.scope = VarScope::LocalStructure;
  rec.address = ~std::uint64_t{0};
  rec.size = 0xFFFFFFFFu;
  rec.frame = 0xFFFF;
  rec.thread = 0xFFFF;
  rec.function = ctx.intern(huge);
  rec.var.base = ctx.intern(huge + "b");
  for (int i = 0; i < 5; ++i) {
    rec.var.steps.push_back(VarStep::make_field(ctx.intern(huge + "c")));
    rec.var.steps.push_back(VarStep::make_index(~std::uint64_t{0} - i));
  }
  TraceRecord small;
  small.function = ctx.intern("f");
  const std::vector<TraceRecord> records{small, rec, small, rec, rec, small};
  const std::string want = reference_trace(ctx, records, 0);
  ASSERT_GT(reference_line(ctx, rec).size(), 5 * kTextBlock);
  EXPECT_EQ(write_trace_string(ctx, records, 0), want);
  std::ostringstream out;
  WriterSink sink(ctx, out, 0);
  feed(sink, records, 1);
  EXPECT_EQ(out.str(), want);
  EXPECT_EQ(ctx.format_record(rec), reference_line(ctx, rec));
}

TEST(TextWriterDiff, DinMatchesTheNaiveReference) {
  TraceContext ctx;
  const std::vector<TraceRecord> records = random_records(ctx, 30000, 0xd1);
  const std::string want = reference_din(records);
  ASSERT_GT(want.size(), 4 * kTextBlock);
  EXPECT_EQ(write_din_string(records), want);
  for (const std::size_t batch : {0u, 1u, 4096u}) {
    std::ostringstream out;
    DinSink sink(out);
    feed(sink, records, batch);
    EXPECT_EQ(out.str(), want) << "batch " << batch;
  }
}

}  // namespace
}  // namespace tdt::trace
