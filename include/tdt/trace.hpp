// Public facade: trace input/output.
//
// Everything a client needs to read, write, stream, diff, and summarize
// traces in the three on-disk encodings (Gleipnir text, classic din,
// TDTB binary). Include this instead of the internal src/trace headers;
// only the names re-exported here (and the nested tdt::trace:: names the
// included headers define) are supported API.
#pragma once

#include "trace/binary.hpp"
#include "trace/codec.hpp"
#include "trace/diff.hpp"
#include "trace/din.hpp"
#include "trace/parallel.hpp"
#include "trace/reader.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"
#include "trace/source.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"
#include "trace/view.hpp"
#include "trace/writer.hpp"

namespace tdt {

// Supported surface, re-exported at the top level.
using trace::AccessKind;
using trace::TraceContext;
using trace::TraceRecord;
using trace::TraceSink;
using trace::VectorSink;

/// Reads a whole trace file into memory (format guessed from the
/// extension). `diags` selects the error-recovery policy; nullptr means
/// strict fail-fast. For traces larger than memory, drain a
/// trace::View::source into your own sink instead.
inline std::vector<trace::TraceRecord> open_trace(trace::TraceContext& ctx,
                                                  const std::string& path,
                                                  DiagEngine* diags = nullptr) {
  return trace::View::source(ctx, path, {.diags = diags}).collect();
}

}  // namespace tdt
