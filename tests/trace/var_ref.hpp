// Test helper: the interned VarRef for a well-formed variable reference
// text, through the one variable-path parser (TraceContext::try_parse_var).
#pragma once

#include <gtest/gtest.h>

#include <string_view>

#include "trace/record.hpp"

namespace tdt::trace {

inline VarRef var_ref(TraceContext& ctx, std::string_view text) {
  VarRef var;
  const VarFault fault = ctx.try_parse_var(text, var);
  EXPECT_TRUE(fault.ok()) << fault.message(text);
  return var;
}

}  // namespace tdt::trace
