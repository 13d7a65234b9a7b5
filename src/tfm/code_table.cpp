#include "tfm/code_table.h"

#include <string>

#include "util/contracts.h"

namespace gqa::tfm {

std::size_t table_domain_size(const QuantParams& in) {
  GQA_EXPECTS_MSG(in.bits >= 1 && in.bits <= 12,
                  "a code table covers input domains of at most 2^12 codes");
  return static_cast<std::size_t>(in.qmax() - in.qmin() + 1);
}

void table_code_out_of_range(std::int64_t code, std::int64_t lo,
                             std::size_t size) {
  detail::contract_fail(
      "Precondition", "lo <= code < lo + size", __FILE__, __LINE__,
      "code " + std::to_string(code) + " is outside the table's domain [" +
          std::to_string(lo) + ", " +
          std::to_string(lo + static_cast<std::int64_t>(size)) + ")");
}

void gather_codes(std::span<const std::int32_t> table, std::int64_t lo,
                  std::span<const std::int32_t> x, std::span<std::int32_t> y) {
  GQA_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = lookup_code(table, lo, x[i]);
}

CodeTable::CodeTable(const QuantParams& in, const Requantizer& rq)
    : lo_(in.qmin()), codes_(table_domain_size(in)) {
  for (std::size_t i = 0; i < codes_.size(); ++i) {
    codes_[i] = static_cast<std::int32_t>(
        rq.apply(lo_ + static_cast<std::int64_t>(i)));
  }
}

}  // namespace gqa::tfm
