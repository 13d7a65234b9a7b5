// perfbench: the repository benchmark. One process runs one workload with
// one seed and prints a single JSON line (the last line of stdout) holding
// the end-to-end metrics, the per-layer metrics of a traced run, and the
// run's metadata. perfbench/run.py builds this program and turns that line
// into the benchmark's result; README.md beside this file says why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
//   perfbench --workload serve_open|serve_batch|fit_sweep --seed N
//             --seconds S [--trace-out spans.json]
//
// The seed is the only source of inputs: it generates the scenes, the
// arrival schedule and the fit seeds. Every served result is checked
// against a serial forward_int of the same image computed before the timed
// region; a divergence, or a non-finite fit MSE, makes the run incorrect
// and the exit code non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/approximator.h"
#include "eval/protocol.h"
#include "eval/scene.h"
#include "eval/server.h"
#include "genetic/genetic.h"
#include "gqa/gqa_lut.h"
#include "gqa/objective.h"
#include "kernel/dispatch.h"
#include "pwl/fit_grid.h"
#include "stats.h"
#include "tfm/models/efficientvit.h"
#include "tfm/models/segformer.h"
#include "tfm/workspace.h"
#include "trace.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using gqa::Json;
using gqa::Method;
using gqa::Op;
using gqa::Server;

// ------------------------------------------------------------ constants ---

constexpr int kScenes = 24;        ///< scene set size, 64x64
constexpr int kSetupReps = 3;      ///< setups per run; setup_s is the median
/// Latency limit of the goodput rule: about three serial SegFormer
/// forwards on a 4-core x86-64 host. Fixed, so a faster forward shows as
/// more goodput rather than a tighter limit.
constexpr double kLatencyLimitMs = 50.0;
/// Closed-loop requests per model in one segment: what a p99 needs.
constexpr std::size_t kClosedLoopMinPerModel = 1000;
/// The closed-loop client's pause after each drain. It lets every lane see
/// the empty server and leave the span, so each batch starts a fresh span
/// on all lanes. Without it, lanes that leave at a batch boundary sit out
/// the following batches (the defect in README.md), the lane count drifts
/// from batch to batch, and the closed loop's figures do not repeat.
constexpr auto kBatchPause = std::chrono::milliseconds(2);
/// Segments a closed loop runs at least; its serving metrics are medians
/// over segments, so one unlucky stretch cannot move them.
constexpr std::size_t kMinSegments = 3;
/// Share of fit_sweep's window given to repeated Table-3 passes; the rest
/// is its serving pass.
constexpr double kFitShare = 0.3;
/// Repetitions of the deployment fit set on serve_open and serve_batch.
constexpr int kDeploymentFitReps = 15;

/// The serve_open ladder in mixed requests per second. The base rung sits
/// below one-lane capacity (~95 req/s for the 1:1 mix of a 17 ms SegFormer
/// and a 3.6 ms EfficientViT forward); the upper rungs run from above one
/// lane's capacity to near what all lanes together can serve.
constexpr double kBaseRateRps = 90.0;
constexpr double kUpperRatesRps[] = {150.0, 190.0, 230.0};
constexpr double kUpperRungSeconds = 0.8;
/// serve_open: the base rung gets the window minus this reserve, which
/// covers the upper rungs and the drains between them.
constexpr double kUpperReserveSeconds = 5.0;

/// The end-to-end metrics a closed loop reports per segment.
const char* const kServingMetrics[] = {"seg_p50_ms",  "seg_p99_ms",  "evit_p50_ms",
                                       "evit_p99_ms", "goodput_rps", "images_per_s"};

const Op kSweepOps[] = {Op::kGelu, Op::kHswish, Op::kExp, Op::kDiv,
                        Op::kRsqrt};
const int kSweepEntries[] = {8, 16};

// Seed streams (derive_seed) of the inputs one benchmark seed generates.
constexpr std::uint64_t kSceneStream = 1;
constexpr std::uint64_t kScheduleStream = 2;
constexpr std::uint64_t kFitStream = 3;
constexpr std::uint64_t kProbeStream = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_out;  ///< empty = untraced
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "serve_open" && a.workload != "serve_batch" &&
      a.workload != "fit_sweep") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t now = now_ns();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// ----------------------------------------------------------- requests ---

enum Status : std::uint8_t { kPending, kOk, kMismatch, kFailed, kRefused };

/// Per-request timestamps. Each slot is written by exactly one party (the
/// client before submit, one service lane after), and read after drain().
/// Slots are only appended between drains, so no lane holds a reference
/// across a reallocation.
struct RequestLog {
  std::vector<std::int64_t> due, submitted, start, end, done;
  std::vector<Model> model;
  std::vector<int> scene, rung;
  std::vector<Status> status;
  std::vector<std::uint32_t> span;  ///< reserved root span id (traced)

  void add(std::int64_t due_ns, Model m, int scene_idx, int rung_idx) {
    due.push_back(due_ns);
    submitted.push_back(0);
    start.push_back(0);
    end.push_back(0);
    done.push_back(0);
    model.push_back(m);
    scene.push_back(scene_idx);
    rung.push_back(rung_idx);
    status.push_back(kPending);
    span.push_back(0);
  }
  [[nodiscard]] std::size_t size() const { return due.size(); }
  /// Latency from due time in ms; +inf for a request that did not succeed.
  [[nodiscard]] double latency_ms(std::size_t i) const {
    return status[i] == kOk ? ms_between(due[i], done[i])
                            : std::numeric_limits<double>::infinity();
  }
};

/// Traced run only: maps a submitted image buffer to its request so the
/// forward wrapper registered with the server can time the request it is
/// running. Submit moves the image through to the lane without copying.
class ForwardTap {
 public:
  void expect(const float* image, std::size_t request) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[image] = request;
  }
  void forget(const float* image) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.erase(image);
  }
  std::optional<std::size_t> take(const float* image) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(image);
    if (it == pending_.end()) return std::nullopt;
    const std::size_t request = it->second;
    pending_.erase(it);
    return request;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<const float*, std::size_t> pending_;
};

// -------------------------------------------------------------- setup ---

/// One complete deployment: both frozen models, a cold-warmed GQA-LUT
/// provider, and a started server with both models registered.
struct Deployment {
  std::unique_ptr<gqa::tfm::SegformerB0Like> seg;
  std::unique_ptr<gqa::tfm::EfficientViTB0Like> evit;
  std::unique_ptr<gqa::tfm::NonlinearProvider> provider;
  std::unique_ptr<Server> server;  ///< declared last: destroyed first
  int seg_id = 0, evit_id = 0;
  double seconds = 0.0;       ///< whole set-up
  double warm_up_ms = 0.0;    ///< NonlinearProvider::warm_up_deployment
};

struct Context {
  Args args;
  int lanes = 1;
  Tracer tracer;
  ForwardTap tap;
  RequestLog log;
  std::vector<gqa::tfm::Tensor> images;
  /// refs[model][scene]: serial forward_int through the GQA-LUT provider.
  std::vector<gqa::tfm::QTensor> refs[2];
  Json meta = Json::object();
  std::size_t failed_fits = 0;

  explicit Context(Args a) : args(std::move(a)), tracer(!args.trace_out.empty()) {}
};

std::set<Op> all_replaced() { return {Op::kExp, Op::kGelu, Op::kHswish, Op::kDiv, Op::kRsqrt}; }

Deployment build_deployment(Context& ctx) {
  Deployment d;
  const std::int64_t t0 = now_ns();
  const std::uint32_t root = ctx.tracer.reserve_id();
  d.seg = std::make_unique<gqa::tfm::SegformerB0Like>();
  d.seg->calibrate(ctx.images.front());
  d.seg->freeze();
  d.evit = std::make_unique<gqa::tfm::EfficientViTB0Like>();
  d.evit->calibrate(ctx.images.front());
  d.evit->freeze();
  const std::int64_t t1 = now_ns();
  d.provider = std::make_unique<gqa::tfm::NonlinearProvider>(
      gqa::tfm::NonlinearProvider::with_method(Method::kGqaRm, all_replaced()));
  d.provider->warm_up_deployment();
  const std::int64_t t2 = now_ns();
  gqa::ServerOptions options;
  options.num_threads = ctx.lanes;
  d.server = std::make_unique<Server>(*d.provider, options);
  if (ctx.tracer.enabled()) {
    const auto wrap = [&ctx](const auto& model, const gqa::tfm::NonlinearProvider& nl,
                             const char* span_name) {
      return [&ctx, &model, &nl, span_name](const gqa::tfm::Tensor& image,
                                            gqa::tfm::Workspace* ws) {
        const std::optional<std::size_t> request = ctx.tap.take(image.data().data());
        const std::int64_t start = now_ns();
        gqa::tfm::QTensor out = model.forward_int(image, nl, nullptr, ws);
        const std::int64_t end = now_ns();
        if (request) {
          ctx.log.start[*request] = start;
          ctx.log.end[*request] = end;
          ctx.tracer.record(span_name, start, end, ctx.log.span[*request],
                            static_cast<std::int64_t>(*request));
        }
        return out;
      };
    };
    d.seg_id = d.server->register_forward("segformer", wrap(*d.seg, *d.provider, "server.forward.seg"));
    d.evit_id = d.server->register_forward("efficientvit", wrap(*d.evit, *d.provider, "server.forward.evit"));
  } else {
    d.seg_id = d.server->register_model(*d.seg, "segformer");
    d.evit_id = d.server->register_model(*d.evit, "efficientvit");
  }
  const std::int64_t t3 = now_ns();
  ctx.tracer.record("setup.models", t0, t1, root);
  ctx.tracer.record("setup.warm_up", t1, t2, root);
  ctx.tracer.record("setup.server_start", t2, t3, root);
  ctx.tracer.record("setup", t0, t3, 0, -1, root);
  d.seconds = to_s(t3 - t0);
  d.warm_up_ms = ms_between(t1, t2);
  return d;
}

// ---------------------------------------------------- reference forwards ---

/// Serial references for the correctness gate and the quality metric,
/// computed before any timed region. Returns the label agreement between
/// the GQA-LUT provider and the exact INT8 provider over the scene set.
double compute_references(Context& ctx, const Deployment& d) {
  const gqa::tfm::NonlinearProvider exact = gqa::tfm::NonlinearProvider::exact();
  std::size_t agree = 0, total = 0;
  for (int s = 0; s < kScenes; ++s) {
    const gqa::tfm::Tensor& img = ctx.images[static_cast<std::size_t>(s)];
    for (const Model m : {Model::kSeg, Model::kEvit}) {
      const std::int64_t t0 = now_ns();
      gqa::tfm::QTensor lut = m == Model::kSeg ? d.seg->forward_int(img, *d.provider)
                                               : d.evit->forward_int(img, *d.provider);
      ctx.tracer.record(m == Model::kSeg ? "tfm.forward.seg" : "tfm.forward.evit", t0, now_ns());
      const gqa::tfm::QTensor ex = m == Model::kSeg ? d.seg->forward_int(img, exact)
                                                    : d.evit->forward_int(img, exact);
      const std::vector<int> a = gqa::tfm::argmax_label_map(lut);
      const std::vector<int> b = gqa::tfm::argmax_label_map(ex);
      for (std::size_t i = 0; i < a.size(); ++i) agree += a[i] == b[i] ? 1 : 0;
      total += a.size();
      ctx.refs[static_cast<int>(m)].push_back(std::move(lut));
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

// ------------------------------------------------------------ fitting ---

const char* method_key(Method m) {
  switch (m) {
    case Method::kNnLut: return "nnlut";
    case Method::kGqaNoRm: return "gqa_norm";
    case Method::kGqaRm: return "gqa_rm";
  }
  return "?";
}

struct FitPhase {
  std::size_t fits = 0;
  std::vector<double> pass_rates;  ///< fits per second of each full pass
  std::vector<double> mses;        ///< operator-level MSE of every fit
  std::map<std::string, std::vector<double>> fit_ms;  ///< by method key
  std::vector<double> mse_ms;      ///< each operator_level_mse call
};

struct FitJob {
  Op op;
  Method method;
  int entries;
  std::uint64_t seed;  ///< 0 = the library's own per-(op, method) seed
};

/// One Table-3 pass: every op x {8, 16} entries x {NN-LUT, GQA w/o RM,
/// GQA w/ RM}, with seeds from the benchmark seed.
std::vector<FitJob> table3_pass(const Context& ctx, int pass) {
  std::vector<FitJob> jobs;
  for (const Op op : kSweepOps) {
    for (const int entries : kSweepEntries) {
      for (const Method method : gqa::all_methods()) {
        const std::uint64_t seed = derive_seed(ctx.args.seed, kFitStream) ^
                                   (static_cast<std::uint64_t>(pass) << 20 | jobs.size());
        jobs.push_back({op, method, entries, seed == 0 ? 1 : seed});
      }
    }
  }
  return jobs;
}

/// The fits a deployment waits for: every op the provider replaces, fitted
/// the way NonlinearProvider::with_method fits them (GQA w/ RM, 8 entries,
/// default options).
std::vector<FitJob> deployment_set(const Context&, int) {
  std::vector<FitJob> jobs;
  for (const Op op : all_replaced()) jobs.push_back({op, Method::kGqaRm, 8, 0});
  return jobs;
}

/// Fits each pass's jobs cold (the artifact store is disabled) and scores
/// every fit with operator_level_mse. Runs at least `min_passes` passes,
/// and more while another pass fits in `budget_s`.
FitPhase run_fit_passes(Context& ctx, std::vector<FitJob> (*pass_jobs)(const Context&, int),
                        int min_passes, double budget_s) {
  FitPhase phase;
  const std::int64_t t_begin = now_ns();
  for (int pass = 0;; ++pass) {
    const std::vector<FitJob> jobs = pass_jobs(ctx, pass);
    const std::int64_t pass_start = now_ns();
    const std::uint32_t pass_id = ctx.tracer.reserve_id();
    for (const FitJob& job : jobs) {
      gqa::FitOptions options;
      options.entries = job.entries;
      options.seed = job.seed;
      const std::int64_t f0 = now_ns();
      const gqa::Approximator approx = gqa::Approximator::fit(job.op, job.method, options);
      const std::int64_t f1 = now_ns();
      const double mse = gqa::operator_level_mse(approx);
      const std::int64_t f2 = now_ns();
      ctx.tracer.record(job.method == Method::kNnLut     ? "fit.nnlut"
                        : job.method == Method::kGqaNoRm ? "fit.gqa_norm"
                                                         : "fit.gqa_rm",
                        f0, f1, pass_id);
      ctx.tracer.record("fit.mse", f1, f2, pass_id);
      phase.fit_ms[method_key(job.method)].push_back(ms_between(f0, f1));
      phase.mse_ms.push_back(ms_between(f1, f2));
      phase.mses.push_back(mse);
      if (!std::isfinite(mse)) ++ctx.failed_fits;
      ++phase.fits;
    }
    const std::int64_t pass_end = now_ns();
    ctx.tracer.record("fit.pass", pass_start, pass_end, 0, -1, pass_id);
    phase.pass_rates.push_back(static_cast<double>(jobs.size()) / to_s(pass_end - pass_start));
    // Stop when another pass of the same length would overrun the budget.
    if (pass + 1 >= min_passes &&
        to_s(pass_end - t_begin) + to_s(pass_end - pass_start) > budget_s) {
      break;
    }
  }
  return phase;
}

// ------------------------------------------------------------ serving ---

Server::Callback make_callback(Context& ctx, std::size_t i) {
  return [&ctx, i](Server::Ticket, gqa::tfm::QTensor result, std::exception_ptr error) {
    RequestLog& log = ctx.log;
    log.done[i] = now_ns();
    if (error != nullptr) {
      log.status[i] = kFailed;
    } else {
      const auto& ref = ctx.refs[static_cast<int>(log.model[i])][static_cast<std::size_t>(log.scene[i])];
      log.status[i] = result.data() == ref.data() ? kOk : kMismatch;
    }
    if (ctx.tracer.enabled()) {
      const std::uint32_t root = log.span[i];
      const auto req = static_cast<std::int64_t>(i);
      if (log.start[i] != 0) {
        ctx.tracer.record("server.queue_wait", log.submitted[i], log.start[i], root, req);
        ctx.tracer.record("server.delivery", log.end[i], log.done[i], root, req);
      }
      ctx.tracer.record("request", log.due[i], log.done[i], 0, req, root);
    }
  };
}

/// Submits request i (already in the log) without blocking; a refusal is
/// recorded as such and never leaves the latency samples.
void submit(Context& ctx, Deployment& d, std::size_t i) {
  RequestLog& log = ctx.log;
  gqa::tfm::Tensor image = ctx.images[static_cast<std::size_t>(log.scene[i])];
  const float* buffer = image.data().data();
  if (ctx.tracer.enabled()) {
    log.span[i] = ctx.tracer.reserve_id();
    ctx.tap.expect(buffer, i);
  }
  const int model_id = log.model[i] == Model::kSeg ? d.seg_id : d.evit_id;
  // Written before the submit: the lane that runs the callback reads it.
  log.submitted[i] = now_ns();
  const std::optional<Server::Ticket> ticket =
      d.server->try_submit(model_id, std::move(image), make_callback(ctx, i));
  if (!ticket) {
    log.status[i] = kRefused;
    log.done[i] = now_ns();
    if (ctx.tracer.enabled()) ctx.tap.forget(buffer);
  }
}

/// A few untimed requests per model so lazy state is settled before the
/// timed region.
void warm_serving(Context& ctx, Deployment& d) {
  for (int s = 0; s < 4; ++s) {
    for (const int id : {d.seg_id, d.evit_id}) {
      (void)d.server->submit(id, ctx.images[static_cast<std::size_t>(s)],
                             [](Server::Ticket, gqa::tfm::QTensor, std::exception_ptr) {});
    }
  }
  d.server->drain();
}

struct ServePhase {
  std::size_t first = 0, last = 0;  ///< request index range [first, last)
  double wall_s = 0.0;              ///< serving time, drains included
  /// Lane-accounting windows in seconds on the now_ns() clock: the upper
  /// rungs of the open loop, the whole loop of a closed one.
  std::vector<Interval> windows;
  std::vector<RungResult> rungs;  ///< open loop only
  /// Closed loop only: consecutive runs of whole batches, each with at
  /// least kClosedLoopMinPerModel requests per model, so every segment
  /// supports its own p99. Serving metrics are medians over segments.
  struct Segment {
    std::size_t first = 0, last = 0;
    double wall_s = 0.0;
  };
  std::vector<Segment> segments;
};

/// Open loop: the seeded Poisson ladder, sent on schedule regardless of
/// progress; each request is timed from when it was due. Every rung starts
/// on an idle server: the client drains between rungs, so one rung's
/// backlog never bleeds into the next rung's latencies.
ServePhase run_open_loop(Context& ctx, Deployment& d, const std::vector<Rung>& ladder) {
  const std::vector<Arrival> schedule =
      poisson_schedule(ladder, kScenes, derive_seed(ctx.args.seed, kScheduleStream));
  ServePhase phase;
  phase.first = ctx.log.size();
  // Lay out the whole log first: lanes write into it while the client runs.
  for (const Arrival& a : schedule) ctx.log.add(0, a.model, a.scene, a.rung);
  phase.last = ctx.log.size();
  std::size_t next = phase.first;
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const std::int64_t t0 = now_ns() + 5'000'000;
    const std::size_t begin = next;
    for (; next < phase.last && ctx.log.rung[next] == static_cast<int>(r); ++next) {
      ctx.log.due[next] = t0 + static_cast<std::int64_t>(schedule[next - phase.first].due_s * 1e9);
      sleep_until_ns(ctx.log.due[next]);
      submit(ctx, d, next);
    }
    d.server->drain();
    std::int64_t last_done = t0;
    for (std::size_t i = begin; i < next; ++i) last_done = std::max(last_done, ctx.log.done[i]);
    phase.wall_s += to_s(last_done - t0);
    if (r > 0) phase.windows.push_back({to_s(t0), to_s(last_done)});

    RungResult rr;
    rr.rate_rps = ladder[r].rate_rps;
    std::vector<double> lat[2], due_s, lat_ok;
    std::size_t met = 0;
    for (std::size_t i = begin; i < next; ++i) {
      const double l = ctx.log.latency_ms(i);
      lat[static_cast<int>(ctx.log.model[i])].push_back(l);
      if (ctx.log.status[i] != kOk) {
        ++rr.failed;
        continue;
      }
      due_s.push_back(to_s(ctx.log.due[i] - t0));
      lat_ok.push_back(l);
      if (l < kLatencyLimitMs) ++met;
    }
    if (auto q = supported_tail(lat[0], 0.99)) rr.seg_tail_ms = q->value;
    if (auto q = supported_tail(lat[1], 0.99)) rr.evit_tail_ms = q->value;
    rr.latency_growth_ms = trend_growth(due_s, lat_ok);
    rr.goodput_rps = static_cast<double>(met) / to_s(last_done - t0);
    phase.rungs.push_back(rr);
  }
  return phase;
}

/// Closed loop: one client submits the whole scene set for both models,
/// drains, and repeats until `budget_s` has passed and kMinSegments
/// segments are complete.
ServePhase run_closed_loop(Context& ctx, Deployment& d, double budget_s) {
  ServePhase phase;
  phase.first = ctx.log.size();
  const std::int64_t t0 = now_ns();
  ServePhase::Segment open{phase.first, phase.first, 0.0};
  while (to_s(now_ns() - t0) < budget_s || phase.segments.size() < kMinSegments) {
    const std::size_t batch = ctx.log.size();
    for (int s = 0; s < kScenes; ++s) {
      ctx.log.add(0, Model::kSeg, s, 0);
      ctx.log.add(0, Model::kEvit, s, 0);
    }
    // The whole scene set is due when the client starts sending it.
    const std::int64_t due = now_ns();
    for (std::size_t i = batch; i < ctx.log.size(); ++i) {
      ctx.log.due[i] = due;
      submit(ctx, d, i);
    }
    d.server->drain();
    open.last = ctx.log.size();
    open.wall_s += to_s(now_ns() - due);
    std::this_thread::sleep_for(kBatchPause);
    if ((open.last - open.first) / 2 >= kClosedLoopMinPerModel) {
      phase.segments.push_back(open);
      open = {open.last, open.last, 0.0};
    }
  }
  // A short tail joins the last full segment.
  if (open.last > open.first) {
    phase.segments.back().last = open.last;
    phase.segments.back().wall_s += open.wall_s;
  }
  phase.last = ctx.log.size();
  const std::int64_t t1 = now_ns();
  phase.wall_s = to_s(t1 - t0);
  phase.windows.push_back({to_s(t0), to_s(t1)});
  return phase;
}

// ------------------------------------------------------------ metrics ---

struct Reported {
  Json metrics = Json::object();
  Json samples = Json::object();  ///< per percentile metric: n and beyond
  bool ok = true;
  std::vector<std::string> missing;
};

void put(Reported& r, const std::string& name, double value, const char* unit) {
  Json m = Json::object();
  m["value"] = std::isfinite(value) ? Json(value) : Json();
  m["unit"] = Json(unit);
  r.metrics[name] = m;
  if (!std::isfinite(value)) r.ok = false;
}

void put_quantile(Reported& r, const std::string& name, const std::vector<double>& samples,
                  double q, const char* unit) {
  const std::optional<Quantile> v = quantile(samples, q);
  Json s = Json::object();
  s["n"] = Json(static_cast<std::int64_t>(samples.size()));
  if (v) {
    s["beyond"] = Json(static_cast<std::int64_t>(v->beyond));
    put(r, name, v->value, unit);
  } else {
    r.missing.push_back(name);
    r.ok = false;
  }
  r.samples[name] = s;
}

// ------------------------------------------------------------ probes ---

/// Per-layer probes of the traced run, outside every timed region: the
/// kernel, objective and GA layers timed through their public functions,
/// and the allocation count of a steady-state serial forward.
void run_layer_probes(Context& ctx, const Deployment& d, Reported& layers) {
  if (thread_allocations() < 0) {
    throw std::logic_error("layer probes need the allocation-counting binary (perfbench_trace)");
  }
  gqa::Rng rng(derive_seed(ctx.args.seed, kProbeStream));

  // Allocations in one serial forward with a warmed workspace (the state a
  // service lane is in), counted on this thread only.
  const auto allocs = [&](auto&& forward) {
    gqa::tfm::Workspace ws;
    (void)forward(&ws);
    const std::int64_t before = thread_allocations();
    (void)forward(&ws);
    return static_cast<double>(thread_allocations() - before);
  };
  const gqa::tfm::Tensor& img = ctx.images.front();
  put(layers, "tfm.allocs_per_forward.seg", allocs([&](gqa::tfm::Workspace* ws) {
    return d.seg->forward_int(img, *d.provider, nullptr, ws);
  }), "count");
  put(layers, "tfm.allocs_per_forward.evit", allocs([&](gqa::tfm::Workspace* ws) {
    return d.evit->forward_int(img, *d.provider, nullptr, ws);
  }), "count");

  // PWL unit evaluation over random codes on an INT8 and an INT16 bus.
  gqa::FitOptions fit_options;
  fit_options.entries = 8;
  const gqa::Approximator gelu = gqa::Approximator::fit(Op::kGelu, Method::kGqaRm, fit_options);
  for (const int bits : {8, 16}) {
    const gqa::IntPwlUnit unit = gelu.make_unit(bits == 8 ? -4 : -12, bits);
    const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
    std::vector<std::int64_t> codes(1 << 16);
    for (auto& c : codes) c = rng.uniform_int(lo, hi);
    std::vector<double> out(codes.size());
    std::vector<double> ns;
    for (int rep = 0; rep < 31; ++rep) {
      const std::int64_t t0 = now_ns();
      unit.eval_reals_from_codes(codes, out);
      const std::int64_t t1 = now_ns();
      ctx.tracer.record("kernel.pwl_eval", t0, t1);
      ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(codes.size()));
    }
    put(layers, bits == 8 ? "kernel.pwl_eval_ns_per_code.int8" : "kernel.pwl_eval_ns_per_code.int16",
        median(ns), "ns");
  }

  // The Linear/attention inner product: the dispatched kernel when the
  // active backend has one, else the scalar loop modules.cpp falls back to.
  {
    constexpr std::size_t kLen = 256, kRows = 512;
    std::vector<std::int32_t> a(kLen);
    std::vector<std::int8_t> w(kLen * kRows);
    for (auto& v : a) v = static_cast<std::int32_t>(rng.uniform_int(-128, 127));
    for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    const auto dot = gqa::kernel::active().ops.dot_i32_i8;
    std::vector<double> ns;
    std::int64_t sink = 0;
    for (int rep = 0; rep < 31; ++rep) {
      const std::int64_t t0 = now_ns();
      for (std::size_t r = 0; r < kRows; ++r) {
        const std::int8_t* row = w.data() + r * kLen;
        if (dot != nullptr) {
          sink += dot(a.data(), row, kLen);
        } else {
          for (std::size_t k = 0; k < kLen; ++k) sink += static_cast<std::int64_t>(a[k]) * row[k];
        }
      }
      const std::int64_t t1 = now_ns();
      ctx.tracer.record("kernel.dot_i32_i8", t0, t1);
      ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(kLen * kRows));
    }
    ctx.meta["dot_checksum"] = Json(sink);
    put(layers, "kernel.dot_i32_i8_ns_per_elem", median(ns), "ns");
  }

  // The quantization-aware objective on random sorted genomes.
  {
    const gqa::OpInfo& info = gqa::op_info(Op::kGelu);
    const gqa::FitGrid grid = gqa::FitGrid::make(info.f, info.range_lo, info.range_hi, 0.01);
    const gqa::QuantAwareObjective objective(grid, 5, {0, 1, 2, 3, 4, 5, 6});
    std::vector<gqa::Genome> genomes(256);
    for (auto& g : genomes) {
      g.resize(7);
      for (double& x : g) x = rng.uniform(info.range_lo, info.range_hi);
      gqa::repair_breakpoints(g, info.range_lo, info.range_hi, 0.01);
    }
    std::vector<double> us;
    double sink = 0.0;
    for (int rep = 0; rep < 15; ++rep) {
      const std::int64_t t0 = now_ns();
      for (const gqa::Genome& g : genomes) sink += objective.per_scale_mse(g).front();
      const std::int64_t t1 = now_ns();
      ctx.tracer.record("gqa.objective", t0, t1);
      us.push_back(static_cast<double>(t1 - t0) * 1e-3 / static_cast<double>(genomes.size()));
    }
    ctx.meta["objective_checksum"] = Json(sink);
    put(layers, "gqa.objective_us_per_genome", median(us), "us");
  }

  // GA bookkeeping straight from GaResult over the Table-3 GQA configs.
  {
    std::int64_t evaluations = 0, hits = 0;
    for (const Op op : kSweepOps) {
      for (const int entries : kSweepEntries) {
        for (const gqa::MutationKind kind :
             {gqa::MutationKind::kGaussian, gqa::MutationKind::kRoundingMutation}) {
          gqa::GqaConfig config = gqa::GqaConfig::preset(op, entries, kind);
          config.ga.seed = derive_seed(ctx.args.seed, kProbeStream) + evaluations;
          const std::int64_t t0 = now_ns();
          const gqa::GqaFitResult fit = gqa::fit_gqa_lut(config);
          ctx.tracer.record("gqa.fit_gqa_lut", t0, now_ns());
          evaluations += fit.ga.evaluations;
          hits += fit.ga.cache_hits;
        }
      }
    }
    put(layers, "genetic.evaluations", static_cast<double>(evaluations), "count");
    put(layers, "genetic.memo_hit_frac",
        static_cast<double>(hits) / static_cast<double>(std::max<std::int64_t>(evaluations, 1)), "fraction");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Rung> open_ladder(double seconds) {
  const double base_s = seconds - kUpperReserveSeconds;
  // p99 of each model at the base rung needs 1000 samples (the schedule
  // fixes each rung's count, so this is exact).
  if (std::llround(kBaseRateRps * base_s) < 2000) {
    throw std::invalid_argument("--seconds too short for the serve_open base rung");
  }
  std::vector<Rung> ladder{{kBaseRateRps, base_s}};
  for (const double r : kUpperRatesRps) ladder.push_back({r, kUpperRungSeconds});
  return ladder;
}

int run(const Args& args) {
  Context ctx(args);
  const unsigned hw = std::thread::hardware_concurrency();
  ctx.lanes = std::max(1, static_cast<int>(hw) - 1);
  // Cold fits every run: no artifact store, no injected faults.
  ::unsetenv("GQA_CACHE_DIR");
  ::unsetenv("GQA_FAULT_SPEC");

  gqa::SceneOptions scene_options;
  scene_options.size = 64;
  for (auto& scene : gqa::make_scene_set(scene_options, kScenes, derive_seed(args.seed, kSceneStream))) {
    ctx.images.push_back(std::move(scene.image));
  }

  // Set-up, several times; the last deployment serves the run.
  std::vector<double> setup_s, warm_up_ms;
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.server.reset();  // the server references the models: release it first
    d = build_deployment(ctx);
    setup_s.push_back(d.seconds);
    warm_up_ms.push_back(d.warm_up_ms);
  }
  const double label_agreement = compute_references(ctx, d);

  const bool is_open = args.workload == "serve_open";
  const bool is_fit = args.workload == "fit_sweep";
  const std::vector<Rung> ladder = is_open ? open_ladder(args.seconds) : std::vector<Rung>{};

  const std::int64_t measure_start = now_ns();
  const FitPhase fits = is_fit ? run_fit_passes(ctx, table3_pass, 1, kFitShare * args.seconds)
                               : run_fit_passes(ctx, deployment_set, kDeploymentFitReps, 0.0);
  warm_serving(ctx, d);
  ServePhase serve;
  if (is_open) {
    serve = run_open_loop(ctx, d, ladder);
  } else {
    serve = run_closed_loop(ctx, d, args.seconds - to_s(now_ns() - measure_start));
  }
  const Server::Stats stats = d.server->stats();

  // ---- correctness and counts
  const RequestLog& log = ctx.log;
  std::size_t mismatches = 0, failed = 0, ok = 0;
  for (std::size_t i = serve.first; i < serve.last; ++i) {
    if (log.status[i] == kMismatch) ++mismatches;
    if (log.status[i] == kFailed || log.status[i] == kRefused) ++failed;
    if (log.status[i] == kOk) ++ok;
  }
  const std::size_t requests = serve.last - serve.first;

  // ---- end-to-end metrics
  Reported e2e;
  put(e2e, "setup_s", median(setup_s), "s");
  Json rungs_meta = Json::array();
  if (is_open) {
    // Latency at the base rung; goodput by the rung rule.
    std::vector<double> lat[2];
    for (std::size_t i = serve.first; i < serve.last; ++i) {
      if (log.rung[i] == 0) lat[static_cast<int>(log.model[i])].push_back(log.latency_ms(i));
    }
    put_quantile(e2e, "seg_p50_ms", lat[0], 0.50, "ms");
    put_quantile(e2e, "seg_p99_ms", lat[0], 0.99, "ms");
    put_quantile(e2e, "evit_p50_ms", lat[1], 0.50, "ms");
    put_quantile(e2e, "evit_p99_ms", lat[1], 0.99, "ms");
    const std::optional<std::size_t> best = goodput_rung(serve.rungs, kLatencyLimitMs);
    put(e2e, "goodput_rps", best ? serve.rungs[*best].goodput_rps : 0.0, "1/s");
    put(e2e, "images_per_s", static_cast<double>(ok) / serve.wall_s, "1/s");
    for (const RungResult& rr : serve.rungs) {
      Json j = Json::object();
      j["rate_rps"] = Json(rr.rate_rps);
      j["goodput_rps"] = Json(rr.goodput_rps);
      j["seg_tail_ms"] = rr.seg_tail_ms ? Json(*rr.seg_tail_ms) : Json();
      j["evit_tail_ms"] = rr.evit_tail_ms ? Json(*rr.evit_tail_ms) : Json();
      j["failed"] = Json(static_cast<std::int64_t>(rr.failed));
      j["latency_growth_ms"] = Json(rr.latency_growth_ms);
      j["passes"] = Json(rung_passes(rr, kLatencyLimitMs));
      rungs_meta.push_back(j);
    }
  } else {
    // Each serving metric is taken per segment; the median is reported.
    std::map<std::string, std::vector<double>> per_segment;
    Json segment_samples = Json::array();
    for (const ServePhase::Segment& seg : serve.segments) {
      Reported part;
      std::vector<double> lat[2];
      std::size_t met = 0, seg_ok = 0;
      for (std::size_t i = seg.first; i < seg.last; ++i) {
        const double l = log.latency_ms(i);
        lat[static_cast<int>(log.model[i])].push_back(l);
        met += l < kLatencyLimitMs ? 1 : 0;
        seg_ok += log.status[i] == kOk ? 1 : 0;
      }
      put_quantile(part, "seg_p50_ms", lat[0], 0.50, "ms");
      put_quantile(part, "seg_p99_ms", lat[0], 0.99, "ms");
      put_quantile(part, "evit_p50_ms", lat[1], 0.50, "ms");
      put_quantile(part, "evit_p99_ms", lat[1], 0.99, "ms");
      put(part, "goodput_rps", static_cast<double>(met) / seg.wall_s, "1/s");
      put(part, "images_per_s", static_cast<double>(seg_ok) / seg.wall_s, "1/s");
      e2e.missing.insert(e2e.missing.end(), part.missing.begin(), part.missing.end());
      segment_samples.push_back(part.samples);
      for (const char* name : kServingMetrics) {
        if (part.metrics.contains(name)) {
          per_segment[name].push_back(part.metrics.at(name).at("value").as_number());
        }
      }
    }
    e2e.samples["segments"] = segment_samples;
    for (const char* name : kServingMetrics) {
      const char* unit = std::string(name).ends_with("_ms") ? "ms" : "1/s";
      if (!per_segment[name].empty()) put(e2e, name, median(per_segment[name]), unit);
    }
  }
  put(e2e, "label_agreement", label_agreement, "fraction");
  put(e2e, "fits_per_s", median(fits.pass_rates), "1/s");
  put(e2e, "fit_mse", geomean(fits.mses), "mse");
  put(e2e, "peak_rss_mb", peak_rss_mb(), "MB");

  // ---- per-layer metrics (traced run)
  Reported layers;
  if (ctx.tracer.enabled()) {
    std::vector<double> wait, delivery, service[2], lag;
    std::vector<Interval> busy, waiting;
    for (std::size_t i = serve.first; i < serve.last; ++i) {
      lag.push_back(ms_between(log.due[i], log.submitted[i]));
      if (log.start[i] == 0) continue;  // refused: never reached a lane
      wait.push_back(ms_between(log.submitted[i], log.start[i]));
      delivery.push_back(ms_between(log.end[i], log.done[i]));
      service[static_cast<int>(log.model[i])].push_back(ms_between(log.start[i], log.end[i]));
      busy.push_back({to_s(log.start[i]), to_s(log.end[i])});
      waiting.push_back({to_s(log.submitted[i]), to_s(log.start[i])});
    }
    put_quantile(layers, "server.queue_wait_ms.p50", wait, 0.50, "ms");
    put_quantile(layers, "server.queue_wait_ms.p99", wait, 0.99, "ms");
    put_quantile(layers, "server.service_ms.seg.p50", service[0], 0.50, "ms");
    put_quantile(layers, "server.service_ms.evit.p50", service[1], 0.50, "ms");
    put_quantile(layers, "server.delivery_ms.p99", delivery, 0.99, "ms");
    double window_s = 0.0, busy_s = 0.0, idle_backlog_s = 0.0;
    for (const Interval& w : serve.windows) {
      const LaneUse use = lane_use(ctx.lanes, w.start, w.end, busy, waiting);
      window_s += w.end - w.start;
      busy_s += use.busy_frac * (w.end - w.start);
      idle_backlog_s += use.idle_with_backlog_frac * (w.end - w.start);
    }
    put(layers, "server.lane_busy_frac", busy_s / window_s, "fraction");
    put(layers, "server.idle_with_backlog_frac", idle_backlog_s / window_s, "fraction");
    put(layers, "server.spans", static_cast<double>(stats.spans), "count");
    put(layers, "server.completed", static_cast<double>(stats.completed), "count");
    put(layers, "server.failed", static_cast<double>(failed), "count");
    put(layers, "failed_frac", static_cast<double>(failed) / static_cast<double>(requests), "fraction");
    put(layers, "client.gen_lag_ms.max", *std::max_element(lag.begin(), lag.end()), "ms");
    put_quantile(layers, "tfm.forward_ms.seg.p50", ctx.tracer.durations_ms("tfm.forward.seg"), 0.50, "ms");
    put_quantile(layers, "tfm.forward_ms.evit.p50", ctx.tracer.durations_ms("tfm.forward.evit"), 0.50, "ms");
    put(layers, "tfm.provider.warm_up_ms", median(warm_up_ms), "ms");
    // The fit layers on the Table-3 sweep: fit_sweep's own passes, one
    // extra pass (after serving) on the serve workloads.
    const FitPhase table3 = is_fit ? fits : run_fit_passes(ctx, table3_pass, 1, 0.0);
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return sum / static_cast<double>(v.size());
    };
    for (const Method m : gqa::all_methods()) {
      put(layers, std::string("fit.ms.") + method_key(m), mean(table3.fit_ms.at(method_key(m))), "ms");
    }
    put(layers, "fit.mse_sweep_ms", mean(table3.mse_ms), "ms");
    run_layer_probes(ctx, d, layers);
    ctx.tracer.write_json(args.trace_out);
  }

  // ---- metadata
  Json meta = std::move(ctx.meta);
  meta["workload"] = Json(args.workload);
  meta["seed"] = Json(static_cast<std::int64_t>(args.seed));
  meta["seconds"] = Json(args.seconds);
  meta["nproc"] = Json(static_cast<std::int64_t>(hw));
  meta["lanes"] = Json(ctx.lanes);
  meta["kernel_backend"] = Json(stats.kernel_backend);
#if defined(__clang__)
  meta["compiler"] = Json(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  meta["compiler"] = Json(std::string("gcc ") + __VERSION__);
#endif
  meta["traced"] = Json(ctx.tracer.enabled());
  meta["latency_limit_ms"] = Json(kLatencyLimitMs);
  meta["requests"] = Json(static_cast<std::int64_t>(requests));
  meta["fits"] = Json(static_cast<std::int64_t>(fits.fits));
  meta["mismatches"] = Json(static_cast<std::int64_t>(mismatches));
  meta["percentile_samples"] = e2e.samples;
  meta["layer_percentile_samples"] = layers.samples;
  meta["setup_samples_s"] = Json::array_of(setup_s);
  meta["fit_pass_rates"] = Json::array_of(fits.pass_rates);
  if (is_open) meta["rungs"] = rungs_meta;
  meta["serve_wall_s"] = Json(serve.wall_s);

  std::vector<std::string> problems;
  if (mismatches > 0) problems.push_back(std::to_string(mismatches) + " served results differ from serial forward_int");
  if (ctx.failed_fits > 0) problems.push_back("non-finite operator-level MSE");
  for (const std::string& m : e2e.missing) problems.push_back("too few samples for " + m);
  for (const std::string& m : layers.missing) problems.push_back("too few samples for " + m);
  if (!e2e.ok && e2e.missing.empty()) problems.push_back("non-finite end-to-end metric");
  Json problem_list = Json::array();
  for (const std::string& p : problems) problem_list.push_back(Json(p));
  meta["problems"] = problem_list;

  const bool correct = problems.empty();
  Json out = Json::object();
  out["correct"] = Json(correct);
  out["attempted"] = Json(static_cast<std::int64_t>(requests + fits.fits));
  out["failed"] = Json(static_cast<std::int64_t>(failed + ctx.failed_fits));
  out["e2e"] = e2e.metrics;
  out["layers"] = layers.metrics;
  out["meta"] = meta;
  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  std::printf("%s\n", out.dump(-1).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
