// Exhaustive gates for the code→code tables (tfm/code_table.h): every
// table entry equals the reference map it replaces, for every input code,
// and a code outside a table's domain is a contract violation.
#include <gtest/gtest.h>

#include <vector>

#include "quant/requant.h"
#include "tfm/code_table.h"
#include "tfm/modules.h"
#include "util/contracts.h"

namespace gqa::tfm {
namespace {

const std::vector<Op>& activation_ops() {
  static const std::vector<Op> ops = {Op::kGelu, Op::kHswish};
  return ops;
}

/// The providers a deployment can put behind an Activation: exact, and the
/// fitted GQA w/ RM and NN-LUT units replacing both activation ops.
struct NamedProvider {
  const char* name;
  NonlinearProvider nl;
};
const std::vector<NamedProvider>& providers() {
  static const std::vector<NamedProvider> all = [] {
    std::vector<NamedProvider> v;
    v.push_back({"exact", NonlinearProvider::exact()});
    v.push_back({"gqa_rm", NonlinearProvider::with_method(
                               Method::kGqaRm, {Op::kGelu, Op::kHswish})});
    v.push_back({"nnlut", NonlinearProvider::with_method(
                              Method::kNnLut, {Op::kGelu, Op::kHswish})});
    return v;
  }();
  return all;
}

/// A 1-D tensor holding every code of `qp`'s domain, in order.
QTensor all_codes(const QuantParams& qp) {
  QTensor x(Shape{static_cast<int>(qp.qmax() - qp.qmin() + 1)}, qp);
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    x.data()[i] = static_cast<std::int32_t>(qp.qmin() + static_cast<std::int64_t>(i));
  }
  return x;
}

/// A frozen Activation whose input is `in_qp`, calibrated on the dequantized
/// input domain so its output params are the ones a model would freeze.
Activation frozen_activation(Op op, const QuantParams& in_qp) {
  Activation act(op);
  (void)act.forward_fp(all_codes(in_qp).dequantize(), {.calibrating = true});
  (void)act.freeze(in_qp, QuantPolicy{});
  return act;
}

// Every exponent of the deployment window is a possible frozen input
// exponent: the po2 activation scales of both models all land in it, so
// this covers each model's actual exponents.
TEST(ActivationTable, MatchesProviderAtEveryCodeAndExponent) {
  for (const NamedProvider& p : providers()) {
    for (const Op op : activation_ops()) {
      for (const int sx : NonlinearProvider::deployment_scale_exps()) {
        const QuantParams in_qp{std::ldexp(1.0, sx), 8, true};
        const Activation act = frozen_activation(op, in_qp);
        const QTensor x = all_codes(in_qp);
        const QTensor y = act.forward_int(x, p.nl);
        std::vector<std::int32_t> table(table_domain_size(in_qp));
        act.code_table(p.nl, table);
        for (std::size_t i = 0; i < table.size(); ++i) {
          const std::int64_t c = x.data()[i];
          const double v =
              op == Op::kGelu ? p.nl.gelu_code(c, sx) : p.nl.hswish_code(c, sx);
          const auto want =
              static_cast<std::int32_t>(y.params().quantize(v));
          ASSERT_EQ(table[i], want) << p.name << " op " << static_cast<int>(op)
                                    << " sx " << sx << " code " << c;
          ASSERT_EQ(y.data()[i], want) << p.name << " sx " << sx;
        }
      }
    }
  }
}

TEST(ActivationTable, CoversTwelveBitDomainsAndRejectsWider) {
  const NonlinearProvider exact = NonlinearProvider::exact();
  const QuantParams in12{std::ldexp(1.0, -8), 12, true};
  const Activation act = frozen_activation(Op::kGelu, in12);
  const QTensor y = act.forward_int(all_codes(in12), exact);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    const std::int64_t c = in12.qmin() + static_cast<std::int64_t>(i);
    ASSERT_EQ(y.data()[i], y.params().quantize(exact.gelu_code(c, -8)));
  }

  Activation wide(Op::kGelu);
  const QuantParams in13{std::ldexp(1.0, -8), 13, true};
  (void)wide.forward_fp(all_codes(in13).dequantize(), {.calibrating = true});
  EXPECT_THROW((void)wide.freeze(in13, QuantPolicy{}), ContractViolation);
}

TEST(ActivationTable, OutOfRangeCodeThrows) {
  const QuantParams in_qp{std::ldexp(1.0, -4), 8, true};
  const Activation act = frozen_activation(Op::kHswish, in_qp);
  QTensor x = all_codes(in_qp);
  x.data()[7] = 128;  // one past qmax, carried under the frozen params
  EXPECT_THROW((void)act.forward_int(x, NonlinearProvider::exact()),
               ContractViolation);
  x.data()[7] = -129;
  EXPECT_THROW((void)act.forward_int(x, NonlinearProvider::exact()),
               ContractViolation);
}

// The model heads (SegFormer's per-stage requantizers, EfficientViT's
// concat requantizers) are CodeTable(in, rq): check that constructor over
// signed, unsigned and 12-bit domains at scales either side of 1.
TEST(RequantTable, MatchesRequantizerAtEveryCode) {
  const std::vector<QuantParams> ins = {
      {0.037, 8, true}, {0.004, 8, false}, {1.7, 8, true}, {0.0009, 12, true}};
  const std::vector<QuantParams> outs = {{0.05, 8, true}, {0.011, 8, false}};
  for (const QuantParams& in : ins) {
    for (const QuantParams& out : outs) {
      const Requantizer rq(in.scale, out);
      const CodeTable table(in, rq);
      ASSERT_EQ(table.codes().size(), table_domain_size(in));
      for (std::int64_t c = in.qmin(); c <= in.qmax(); ++c) {
        ASSERT_EQ(table(c), rq.apply(c)) << in.to_string() << " code " << c;
      }
      EXPECT_THROW((void)table(in.qmax() + 1), ContractViolation);
      EXPECT_THROW((void)table(in.qmin() - 1), ContractViolation);
    }
  }
  EXPECT_THROW(CodeTable(QuantParams{0.01, 13, true},
                         Requantizer(0.01, QuantParams{0.02, 8, true})),
               ContractViolation);
}

TEST(ResidualAddTable, MatchesRequantizedSumForEveryCodePair) {
  const QuantParams a_qp{0.021, 8, true};
  const QuantParams b_qp{0.0067, 8, true};
  const QTensor a_codes = all_codes(a_qp);
  const QTensor b_codes = all_codes(b_qp);
  const int n = static_cast<int>(a_codes.data().size());
  QTensor a(Shape{n * n}, a_qp);
  QTensor b(Shape{n * n}, b_qp);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a.data()[static_cast<std::size_t>(i * n + j)] = a_codes.data()[static_cast<std::size_t>(i)];
      b.data()[static_cast<std::size_t>(i * n + j)] = b_codes.data()[static_cast<std::size_t>(j)];
    }
  }
  ResidualAdd add;
  (void)add.forward_fp(a.dequantize(), b.dequantize(), {.calibrating = true});
  const QuantParams out = add.freeze(a_qp, b_qp, QuantPolicy{});
  const Requantizer rq_a(a_qp.scale, out);
  const Requantizer rq_b(b_qp.scale, out);
  const QTensor y = add.forward_int(a, b);
  for (std::size_t k = 0; k < y.data().size(); ++k) {
    const std::int64_t want = saturate(
        rq_a.apply(a.data()[k]) + rq_b.apply(b.data()[k]), out.bits,
        out.is_signed);
    ASSERT_EQ(y.data()[k], want) << "a " << a.data()[k] << " b " << b.data()[k];
  }

  a.data()[0] = 200;  // outside a_qp's 8-bit domain
  EXPECT_THROW((void)add.forward_int(a, b), ContractViolation);
}

}  // namespace
}  // namespace gqa::tfm
