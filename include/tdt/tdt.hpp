// tdt — Trace Driven Data Structure Transformations: public API facade.
//
// This umbrella header (and the per-subsystem facades it includes) is the
// supported surface of the library. Client code — the bundled tools, the
// examples, and external embedders — should include <tdt/tdt.hpp> or the
// individual tdt/*.hpp facades and nothing from src/. Internal headers
// may change layout, split, or disappear between versions; the names
// re-exported by the facades follow TDT_API_VERSION.
//
//   #include "tdt/tdt.hpp"
//
//   tdt::trace::TraceContext ctx;
//   auto records = tdt::open_trace(ctx, "trace.out");
//   auto rules   = tdt::load_rules("t1.rules");
//   auto out     = tdt::transform_trace(rules, ctx, records);
//
//   tdt::CacheHierarchy cache({tdt::cache::paper_direct_mapped()});
//   tdt::TraceCacheSim sim(cache);
//   sim.simulate(out);
#pragma once

// Single integer, bumped on incompatible changes to the facade surface.
#define TDT_API_VERSION 6

#include "tdt/analysis.hpp"
#include "tdt/cache.hpp"
#include "tdt/rules.hpp"
#include "tdt/trace.hpp"
#include "tdt/tracer.hpp"
#include "tdt/util.hpp"
