// Univariate integer maps as code→code tables.
//
// An integer layer whose output code depends on one input code alone — a
// GELU/HSWISH unit followed by output quantization, a dyadic requantizer —
// is a function over its input domain, and with INT8 activations that
// domain has 256 codes (§3.1, §4.2: an INT8 GQA-LUT layer *is* a 256-entry
// table). A table is filled by evaluating the reference map once per code,
// so it is bit-identical to that map by construction; the forward then
// gathers one entry per element. A code outside the table's domain is a
// ContractViolation, never an out-of-bounds read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "quant/requant.h"

namespace gqa::tfm {

/// Largest input domain a code table covers (12-bit codes): an Activation
/// table of this size still fits on the stack of the forward building it.
inline constexpr std::size_t kMaxTableCodes = std::size_t{1} << 12;

/// Number of codes in `in`'s domain; a ContractViolation when it exceeds
/// kMaxTableCodes.
[[nodiscard]] std::size_t table_domain_size(const QuantParams& in);

/// Throws the ContractViolation for a code outside [lo, lo + size).
[[noreturn]] void table_code_out_of_range(std::int64_t code, std::int64_t lo,
                                          std::size_t size);

/// table[code - lo], range-checked.
[[nodiscard]] inline std::int32_t lookup_code(
    std::span<const std::int32_t> table, std::int64_t lo, std::int64_t code) {
  const auto k = static_cast<std::uint64_t>(code - lo);
  if (k >= table.size()) [[unlikely]] {
    table_code_out_of_range(code, lo, table.size());
  }
  return table[k];
}

/// y[i] = table[x[i] - lo] for every i (x and y have equal sizes).
void gather_codes(std::span<const std::int32_t> table, std::int64_t lo,
                  std::span<const std::int32_t> x, std::span<std::int32_t> y);

/// An owned table over every code of one input domain, built at freeze
/// time for maps that are fixed once the model is frozen.
class CodeTable {
 public:
  CodeTable() = default;
  /// rq.apply(c) for every code c of `in`.
  CodeTable(const QuantParams& in, const Requantizer& rq);

  [[nodiscard]] std::int32_t operator()(std::int64_t code) const {
    return lookup_code(codes_, lo_, code);
  }
  void gather(std::span<const std::int32_t> x,
              std::span<std::int32_t> y) const {
    gather_codes(codes_, lo_, x, y);
  }

  /// Entry i maps input code lo() + i.
  [[nodiscard]] std::span<const std::int32_t> codes() const { return codes_; }
  [[nodiscard]] std::int64_t lo() const { return lo_; }

 private:
  std::int64_t lo_ = 0;
  std::vector<std::int32_t> codes_;
};

}  // namespace gqa::tfm
