/**
 * @file
 * End-to-end benchmark of the staged dynamic-resolution server.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Drives StagedServingEngine through submit / wait / stats only, at
 * the engine's default sizing, and checks every served request against
 * values computed apart from the engine (checks.hh). The last line of
 * standard output is one JSON object: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. The traced run also
 * replays each served request's work one call at a time through the
 * layers' public functions and writes the spans to .bench_out/.
 *
 * Workloads (README.md gives the make-up of the inputs):
 *   dynamic-closed    preview -> scale model -> scheduled read ->
 *                     ResNet-18, closed loop
 *   static-closed     the same objects served at 224 with full reads
 *   decide-zipf-open  decision-only engine, Zipf traffic, decode cache,
 *                     injected storage latency, hedging, open loop
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/progressive.hh"
#include "core/pipeline.hh"
#include "core/staged_engine.hh"
#include "image/image.hh"
#include "image/metrics.hh"
#include "nn/passes.hh"
#include "perfbench/checks.hh"
#include "perfbench/trace.hh"
#include "sim/accuracy_model.hh"
#include "storage/decode_cache.hh"
#include "storage/fault_injection.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

using namespace tamres;
using perfbench::ExpectedDecision;
using perfbench::SpanLog;

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Taken during static initialisation: set-up time runs from here. */
const SteadyClock::time_point kProcessStart = SteadyClock::now();

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Inputs. Objects, the scale model and the Zipf sequence are fixed:
// the checks compare each decision with a cold decision on the same
// object, and decide-zipf-open's failed share (a deterministic engine
// fault) must not depend on the seed. The seed drives the request
// order, the arrival times and the storage-latency draws.
// ---------------------------------------------------------------------

constexpr uint64_t kDatasetSeed = 2021;
constexpr int kObjects = 48;
constexpr uint64_t kTrainSeed = 42;
constexpr int kTrainImages = 480;
constexpr int kTrainPreviewSide = 192;
constexpr double kCrop = 0.75;
constexpr int kPreviewScans = 2;
constexpr int kStaticResolution = 224;
constexpr int kInFlight = 8;        // closed loops
constexpr int kWarmRequests = 2 * kInFlight;
constexpr double kOpenRate = 40.0;  // requests per second
constexpr int kRoundRequests = 200; // open-loop round
constexpr double kZipfAlpha = 1.0;
constexpr uint64_t kZipfSeed = 7;
constexpr size_t kCacheBytes = 48u << 20;
constexpr int kOutputSamplesPerResolution = 2;
constexpr size_t kTailBeyond = 10; // samples beyond the reported tail
constexpr double kPollS = 1e-3;

enum class Kind
{
    DynamicClosed,
    StaticClosed,
    DecideZipfOpen,
};

struct Args
{
    Kind kind = Kind::DynamicClosed;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have[4] = {false, false, false, false};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            if (val == "dynamic-closed")
                a.kind = Kind::DynamicClosed;
            else if (val == "static-closed")
                a.kind = Kind::StaticClosed;
            else if (val == "decide-zipf-open")
                a.kind = Kind::DecideZipfOpen;
            else
                return false;
            have[0] = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            have[1] = !val.empty() && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            have[2] = !val.empty() && *end == '\0' && a.seconds > 0 &&
                      a.seconds <= 600;
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return false;
            a.trace = val == "1";
            have[3] = true;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

/**
 * Scans read for a decision at grid index @p r_idx: the preview
 * prefix plus a share of the remaining scans proportional to the grid
 * position (only the top of the grid reads every scan).
 */
int
scheduledScans(int r_idx, int num_res, int num_scans)
{
    const double frac = static_cast<double>(r_idx + 1) / num_res;
    return kPreviewScans +
           static_cast<int>(std::lround((num_scans - kPreviewScans) * frac));
}

/** Nearest-rank quantile, 0 for an empty sample. */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

/**
 * The run's tail: the highest percentile with kTailBeyond samples
 * beyond it, i.e. the (kTailBeyond + 1)-th largest value (the largest
 * of a smaller sample); 0 for an empty sample.
 */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() > kTailBeyond ? v.size() - 1 - kTailBeyond
                                    : v.size() - 1];
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostFingerprint()
{
    return perfbench::format(
        "\"host\": {\"cores\": %u, \"simd\": \"%s\", \"vnni\": %s, "
        "\"threads\": %d}",
        std::thread::hardware_concurrency(), simdLevelName(simdLevel()),
        simdVnni() ? "true" : "false", ThreadPool::defaultParallelism());
}

/** Backbone input the engine prepares: crop, then resize. */
Image
backboneInput(const Image &decoded, int resolution)
{
    return resize(centerCropFraction(decoded, kCrop), resolution,
                  resolution);
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** One finished request, as the engine returned it. */
struct Outcome
{
    int object = 0;  //!< dataset index
    uint64_t id = 0; //!< store id
    StagedState state = StagedState::Idle;
    int resolution = 0;
    int res_index = 0;
    int preview_scans = 0;
    int scans_read = 0;
    int scans_intended = 0;
    int hedges = 0;
    uint64_t bytes_read = 0;
    double submit_s = 0; //!< since the measured run started
    double late_s = 0;   //!< open loop: submitted after its due time
    double decode_s = 0;
    double latency_s = 0;
    double queue_s = 0;
    double infer_latency_s = 0;
};

/** A served backbone output kept for the bitwise check. */
struct OutputSample
{
    int object = 0;
    int resolution = 0;
    int scans_read = 0;
    Tensor output;
};

bool
finished(const StagedRequest &r)
{
    const StagedState s = r.stateNow();
    if (s == StagedState::Queued)
        return false;
    if (s == StagedState::Submitted)
        return r.infer.stateNow() != RequestState::Queued;
    return true;
}

class Bench
{
  public:
    explicit Bench(const Args &args)
        : args_(args), ds_(imagenetLike(), kObjects, kDatasetSeed),
          model_(BackboneArch::ResNet18, imagenetLike(), 1),
          sample_rng_(args.seed + 17)
    {}

    void setup();
    void run();
    /** Run every output check; returns the messages of those that fired. */
    std::vector<std::string> check();
    std::vector<Metric> endToEnd();
    std::vector<Metric> perLayer();

    uint64_t attempted() const { return outcomes_.size(); }
    uint64_t failed() const { return failed_; }

  private:
    bool closed() const { return args_.kind != Kind::DecideZipfOpen; }
    bool dynamic() const { return args_.kind != Kind::StaticClosed; }
    const EncodedImage &object(int i) const
    {
        return objects_[static_cast<size_t>(i)];
    }

    int choiceAt(int object, int scans) const;
    int scheduleOf(int object, int res_index) const;
    void record(StagedRequest &req, int object, double submit_s,
                double late_s);
    void runClosed(int requests, bool measured);
    void runOpen();
    double ssimAt(int object, int scans, int resolution);
    void replay();

    Args args_;
    SyntheticDataset ds_;
    BackboneAccuracyModel model_;
    std::unique_ptr<ScaleModel> scale_;
    std::vector<EncodedImage> objects_;
    std::vector<ExpectedDecision> expected_;
    ObjectStore base_;
    std::unique_ptr<FaultyObjectStore> faulty_;
    ObjectStore *store_ = &base_;
    std::unique_ptr<DecodeCache> cache_;
    std::unique_ptr<Graph> backbone_; //!< null on decide-zipf-open
    int rounds_ = 0;                  //!< open-loop rounds in the run
    // Declared before engine_ so they outlive it: a request must stay
    // alive until the engine is done with it, also when a run throws.
    std::vector<StagedRequest> requests_;
    std::unique_ptr<StagedServingEngine> engine_;
    double setup_s_ = 0;

    // Measured run.
    SteadyClock::time_point t0_;
    double elapsed_s_ = 0;
    double cpu_s_ = 0;
    double max_late_s_ = 0;
    double peak_rss_mb_ = 0;
    StagedStats stats0_, stats1_;
    ReadStats reads0_, reads1_;
    std::vector<Outcome> outcomes_;
    std::vector<OutputSample> outputs_;
    std::map<int, int> sampled_per_res_;
    Rng sample_rng_;
    uint64_t failed_ = 0;
    std::map<std::tuple<int, int, int>, double> ssim_memo_;

    SpanLog spans_;
};

/** The benchmark's own decision on a decode of @p scans scans. */
int
Bench::choiceAt(int obj, int scans) const
{
    const int in = scale_->options().input_res;
    return scale_->chooseResolutionIndex(resize(
        centerCropFraction(decodeProgressive(object(obj), scans), kCrop),
        in, in));
}

/** Scans the workload's schedule reads for a decision at @p res_index. */
int
Bench::scheduleOf(int obj, int res_index) const
{
    const int num_scans = object(obj).numScans();
    return std::clamp(
        scheduledScans(res_index,
                       static_cast<int>(paperResolutions().size()),
                       num_scans),
        kPreviewScans, num_scans);
}

void
Bench::setup()
{
    const auto &grid = paperResolutions();
    const int num_res = static_cast<int>(grid.size());

    SteadyClock::time_point phase = SteadyClock::now();
    std::string breakdown;
    auto lap = [&](const char *what) {
        breakdown += perfbench::format(" %s %.3f s", what,
                                       secondsSince(phase));
        phase = SteadyClock::now();
    };

    // The scale model, trained the way the Figure 8/9 harness trains it.
    {
        SyntheticDataset train(imagenetLike(), kTrainImages, kTrainSeed);
        scale_ = std::make_unique<ScaleModel>(grid, ScaleModelOptions{});
        scale_->train(train, 0, kTrainImages, BackboneArch::ResNet18,
                      {0.25, 0.56, 0.75, 1.0}, kTrainPreviewSide);
    }

    // Objects at their native size, progressively encoded.
    objects_.resize(kObjects);
    ProgressiveConfig codec;
    codec.quality = ds_.spec().encode_quality;
    ThreadPool::global().parallelFor(
        kObjects,
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i)
                objects_[static_cast<size_t>(i)] = encodeProgressive(
                    ds_.render(static_cast<int>(i)), codec);
        },
        ThreadPool::defaultParallelism());

    lap("train+encode");

    // Cold decisions: the benchmark's own preview decode + scale model.
    expected_.resize(kObjects);
    int static_idx = 0;
    for (int i = 0; i < num_res; ++i)
        if (grid[i] == kStaticResolution)
            static_idx = i;
    for (int i = 0; i < kObjects; ++i) {
        ExpectedDecision &e = expected_[static_cast<size_t>(i)];
        if (!dynamic()) {
            e = {static_idx, object(i).numScans()};
            continue;
        }
        e.res_index = choiceAt(i, kPreviewScans);
        e.scans = scheduleOf(i, e.res_index);
    }

    lap("decisions");

    StagedEngineConfig cfg; // engine sizing stays at the defaults
    cfg.preview_scans = kPreviewScans;
    cfg.crop_area = kCrop;
    if (args_.kind == Kind::StaticClosed) {
        cfg.fixed_resolution = kStaticResolution;
    } else {
        cfg.scan_depth = [this, num_res](uint64_t id, int r_idx) {
            return scheduledScans(
                r_idx, num_res,
                object(static_cast<int>(id % kObjects)).numScans());
        };
    }

    if (closed()) {
        for (int i = 0; i < kObjects; ++i)
            base_.put(static_cast<uint64_t>(i), object(i));
        backbone_ = buildResNet18(1000, 1);
        optimizeForInference(*backbone_);
        std::vector<int> served;
        for (const ExpectedDecision &e : expected_)
            served.push_back(grid[static_cast<size_t>(e.res_index)]);
        std::sort(served.begin(), served.end());
        served.erase(std::unique(served.begin(), served.end()),
                     served.end());
        // At most kInFlight requests exist, so no batch is larger.
        // Smaller batches first: shapes past the plan cache's capacity
        // would only evict the ones warmed before them.
        const size_t capacity = cfg.backbone.plan_capacity;
        for (int b = 1; b <= kInFlight; ++b)
            for (int r : served)
                if (cfg.backbone.warm_shapes.size() < capacity)
                    cfg.backbone.warm_shapes.push_back({b, 3, r, r});
    } else {
        // Whole rounds of the same Zipf sequence; each round reads its
        // own copy of the objects, so every round starts cache-cold and
        // the engine's cache fault repeats identically per round.
        rounds_ = std::max(
            1, static_cast<int>(std::lround(args_.seconds * kOpenRate /
                                            kRoundRequests)));
        for (int r = 0; r < rounds_; ++r)
            for (int i = 0; i < kObjects; ++i)
                base_.put(static_cast<uint64_t>(r * kObjects + i),
                          object(i));
        // The storage-latency profile of bench/decode_cache.cc.
        FaultPolicy faults;
        faults.seed = args_.seed;
        faults.latency_tail_p = 0.5;
        faults.latency_tail_scale_s = 4e-3;
        faults.latency_max_s = 20e-3;
        faulty_ = std::make_unique<FaultyObjectStore>(base_, faults);
        store_ = faulty_.get();
        DecodeCacheConfig cc;
        cc.capacity_bytes = kCacheBytes;
        cache_ = std::make_unique<DecodeCache>(cc);
        store_->attachCache(cache_.get());
        cfg.cache = cache_.get();
        cfg.overload.hedge.enable = true;
    }

    lap("store+backbone");
    engine_ = std::make_unique<StagedServingEngine>(
        *store_, *scale_, backbone_.get(), std::move(cfg));
    if (closed())
        runClosed(kWarmRequests, /*measured=*/false);
    lap("engine+warm-up");
    setup_s_ = secondsSince(kProcessStart);
    std::fprintf(stderr, "setup: %.3f s:%s\n", setup_s_, breakdown.c_str());
}

void
Bench::record(StagedRequest &req, int object, double submit_s,
              double late_s)
{
    engine_->wait(req);
    Outcome o;
    o.object = object;
    o.id = req.id;
    o.state = req.stateNow();
    o.resolution = req.resolution;
    o.res_index = req.resolution_index;
    o.preview_scans = req.preview_scans;
    o.scans_read = req.scans_read;
    o.scans_intended = req.scans_intended;
    o.hedges = req.hedges;
    o.bytes_read = req.bytes_read;
    o.submit_s = submit_s;
    o.late_s = late_s;
    o.decode_s = req.decode_s;
    o.latency_s = req.latency_s;
    o.queue_s = req.infer.queue_s;
    o.infer_latency_s = req.infer.latency_s;
    // A seeded sample of backbone outputs, covering every resolution.
    if (backbone_ && o.state == StagedState::Done) {
        int &n = sampled_per_res_[o.resolution];
        if (n == 0 || (n < kOutputSamplesPerResolution &&
                       sample_rng_.uniform() < 0.1)) {
            ++n;
            outputs_.push_back(
                {object, o.resolution, o.scans_read,
                 req.infer.output.clone()});
        }
    }
    outcomes_.push_back(std::move(o));
}

/**
 * Closed loop: kInFlight requests outstanding, each slot resubmitted
 * as soon as its request finishes. Objects are served in rounds, each
 * a seeded permutation of all objects. One thread holds every request;
 * it polls for completions instead of parking a thread per request.
 */
void
Bench::runClosed(int requests, bool measured)
{
    Rng order(args_.seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<int> perm(kObjects);
    size_t next_in_round = kObjects;
    auto nextObject = [&] {
        if (next_in_round == perm.size()) {
            for (int i = 0; i < kObjects; ++i)
                perm[static_cast<size_t>(i)] = i;
            for (int i = kObjects - 1; i > 0; --i)
                std::swap(perm[static_cast<size_t>(i)],
                          perm[order.uniformInt(static_cast<uint64_t>(i + 1))]);
            next_in_round = 0;
        }
        return perm[next_in_round++];
    };

    if (requests_.size() != static_cast<size_t>(kInFlight))
        requests_ = std::vector<StagedRequest>(kInFlight);
    std::vector<StagedRequest> &slots = requests_;
    std::vector<int> slot_object(kInFlight, 0);
    std::vector<double> slot_submit(kInFlight, 0.0);
    std::vector<bool> busy(kInFlight, false);
    int submitted = 0;
    const SteadyClock::time_point t0 = SteadyClock::now();
    if (measured)
        t0_ = t0;
    auto mayStart = [&] {
        return measured ? secondsSince(t0) < args_.seconds
                        : submitted < requests;
    };
    auto start = [&](int s) {
        slot_object[s] = nextObject();
        slot_submit[s] = secondsSince(t0);
        slots[s].id = static_cast<uint64_t>(slot_object[s]);
        engine_->submit(slots[s]);
        busy[s] = true;
        ++submitted;
    };
    for (int s = 0; s < kInFlight && mayStart(); ++s)
        start(s);
    double last_done = 0;
    for (;;) {
        bool any_busy = false;
        bool progressed = false;
        for (int s = 0; s < kInFlight; ++s) {
            if (!busy[s])
                continue;
            if (!finished(slots[s])) {
                any_busy = true;
                continue;
            }
            progressed = true;
            busy[s] = false;
            if (measured) {
                record(slots[s], slot_object[s], slot_submit[s], 0.0);
                last_done = secondsSince(t0);
            } else {
                engine_->wait(slots[s]);
            }
            if (mayStart()) {
                start(s);
                any_busy = true;
            }
        }
        if (!any_busy)
            break;
        if (!progressed)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kPollS));
    }
    if (measured)
        elapsed_s_ = last_done;
}

/**
 * Open loop: jittered constant-rate arrivals at kOpenRate, a whole
 * number of rounds in the run; each request is timed from when it was
 * due, so a stall also charges the requests queued behind it. Poisson
 * arrivals made the p99 measure each seed's bursts instead: at 33.3
 * req/s a seed repeated its p99 within 5%, while seeds 1-5 spread it
 * from 46 to 76 ms.
 */
void
Bench::runOpen()
{
    const int n = rounds_ * kRoundRequests;

    // The fixed Zipf(kZipfAlpha) sequence of one round.
    std::vector<double> cdf(kObjects);
    double sum = 0;
    for (int k = 0; k < kObjects; ++k) {
        sum += 1.0 / std::pow(k + 1.0, kZipfAlpha);
        cdf[static_cast<size_t>(k)] = sum;
    }
    Rng zipf(kZipfSeed);
    std::vector<int> round_seq(kRoundRequests);
    for (int &obj : round_seq) {
        const double u = zipf.uniform() * sum;
        obj = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin());
        obj = std::min(obj, kObjects - 1);
    }

    // Arrival times: one request per period, each at a seeded uniform
    // offset inside its own period.
    Rng arrivals(args_.seed * 0xbf58476d1ce4e5b9ull + 3);
    const double period = args_.seconds / n;
    std::vector<double> due(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        due[static_cast<size_t>(i)] = period * (i + arrivals.uniform());

    requests_ = std::vector<StagedRequest>(static_cast<size_t>(n));
    std::vector<StagedRequest> &reqs = requests_;
    std::vector<double> submit_s(static_cast<size_t>(n), 0.0);
    std::vector<int> inflight;
    inflight.reserve(static_cast<size_t>(n));
    auto objectOf = [&](int i) {
        return round_seq[static_cast<size_t>(i % kRoundRequests)];
    };

    t0_ = SteadyClock::now();
    int next = 0;
    double last_done = 0;
    while (next < n || !inflight.empty()) {
        double t = secondsSince(t0_);
        while (next < n && due[static_cast<size_t>(next)] <= t) {
            const int round = next / kRoundRequests;
            const int obj = objectOf(next);
            submit_s[static_cast<size_t>(next)] = t;
            StagedRequest &req = reqs[static_cast<size_t>(next)];
            req.id = static_cast<uint64_t>(round * kObjects + obj);
            engine_->submit(req);
            max_late_s_ =
                std::max(max_late_s_, t - due[static_cast<size_t>(next)]);
            inflight.push_back(next++);
            t = secondsSince(t0_);
        }
        bool progressed = false;
        for (size_t k = 0; k < inflight.size();) {
            const int i = inflight[k];
            StagedRequest &req = reqs[static_cast<size_t>(i)];
            if (!finished(req)) {
                ++k;
                continue;
            }
            progressed = true;
            record(req, objectOf(i), submit_s[static_cast<size_t>(i)],
                   submit_s[static_cast<size_t>(i)] -
                       due[static_cast<size_t>(i)]);
            last_done = secondsSince(t0_);
            inflight[k] = inflight.back();
            inflight.pop_back();
        }
        if (progressed)
            continue;
        double wait = kPollS;
        if (next < n)
            wait = std::min(wait, due[static_cast<size_t>(next)] -
                                      secondsSince(t0_));
        if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    elapsed_s_ = last_done;
}

void
Bench::run()
{
    stats0_ = engine_->stats();
    reads0_ = store_->stats();
    const double cpu0 = cpuSeconds();
    if (closed())
        runClosed(0, /*measured=*/true);
    else
        runOpen();
    cpu_s_ = cpuSeconds() - cpu0;
    engine_->drain();
    // stop() joins the I/O pool, so late hedge losers have settled and
    // metered before the final snapshots.
    engine_->stop();
    stats1_ = engine_->stats();
    reads1_ = store_->stats();
    peak_rss_mb_ = peakRssMb(); // before the checks allocate oracles
    std::fprintf(stderr,
                 "run: %zu requests in %.3f s, generator at most %.3f ms "
                 "late\n",
                 outcomes_.size(), elapsed_s_, max_late_s_ * 1e3);
}

double
Bench::ssimAt(int obj, int scans, int resolution)
{
    const auto key = std::make_tuple(obj, scans, resolution);
    auto it = ssim_memo_.find(key);
    if (it != ssim_memo_.end())
        return it->second;
    const EncodedImage &enc = object(obj);
    double q = 1.0;
    if (scans < enc.numScans())
        q = ssim(backboneInput(decodeProgressive(enc, scans), resolution),
                 backboneInput(decodeProgressive(enc), resolution));
    ssim_memo_.emplace(key, q);
    return q;
}

std::vector<std::string>
Bench::check()
{
    const auto &grid = paperResolutions();
    std::vector<std::string> fired;
    uint64_t decision_faults = 0;
    uint64_t per_request_bytes = 0;
    uint64_t hedge_allowance = 0;
    std::vector<int> served;

    for (const Outcome &o : outcomes_) {
        const EncodedImage &enc = object(o.object);
        per_request_bytes += o.bytes_read;
        hedge_allowance += perfbench::hedgeAllowance(
            o.hedges, enc.bytesForScans(o.preview_scans),
            enc.bytesForScans(std::max(o.scans_read, o.scans_intended)));
        if (o.state != StagedState::Done) {
            ++failed_;
            continue;
        }
        served.push_back(o.resolution);
        const perfbench::ServedDecision got{o.res_index, o.resolution,
                                            o.scans_read};
        const std::string why = perfbench::checkDecision(
            got, expected_[static_cast<size_t>(o.object)], grid);
        if (!why.empty()) {
            // The named cache fault (a hit decides on a deeper prefix
            // than the cold preview) is counted as failed, not hidden;
            // any other wrong decision fires.
            const bool deep_hit =
                cache_ &&
                perfbench::isDeepHitDecision(
                    got, choiceAt(o.object, o.scans_read),
                    scheduleOf(o.object, o.res_index), kPreviewScans,
                    grid);
            if (deep_hit) {
                ++failed_;
                ++decision_faults;
                std::fprintf(stderr, "cache changed a decision: round "
                             "%llu, object %d: %s\n",
                             static_cast<unsigned long long>(
                                 o.id / kObjects),
                             o.object, why.c_str());
            } else {
                fired.push_back(perfbench::format(
                    "decision, object %d: %s", o.object, why.c_str()));
            }
        }
        if (!cache_) {
            const std::string b = perfbench::checkRequestBytes(
                o.bytes_read, enc.bytesForScans(o.scans_read));
            if (!b.empty())
                fired.push_back(perfbench::format(
                    "bytes, object %d: %s", o.object, b.c_str()));
        }
    }

    auto push = [&](const char *what, const std::string &why) {
        if (!why.empty())
            fired.push_back(std::string(what) + ": " + why);
    };
    const uint64_t store_bytes = reads1_.bytes_read - reads0_.bytes_read;
    push("byte meters",
         perfbench::checkByteMeters(
             per_request_bytes, stats1_.bytes_read - stats0_.bytes_read,
             store_bytes, hedge_allowance));
    push("terminal conservation",
         perfbench::checkTerminalConservation(stats1_));
    if (cache_)
        push("cache conservation",
             perfbench::checkCacheConservation(stats1_.cache));
    if (args_.kind == Kind::DynamicClosed)
        push("decision spread",
             perfbench::checkDecisionSpread(served, 3, 0));
    if (args_.kind == Kind::StaticClosed)
        push("decision spread", perfbench::checkDecisionSpread(
                                    served, 1, kStaticResolution));

    // Backbone outputs against the unplanned executor on an input the
    // benchmark prepares from a one-shot decode of the served prefix.
    for (const OutputSample &s : outputs_) {
        const Image in_img = backboneInput(
            decodeProgressive(object(s.object), s.scans_read),
            s.resolution);
        Tensor in({1, 3, s.resolution, s.resolution});
        std::copy_n(in_img.data(), in_img.numel(), in.data());
        push(perfbench::format("output, object %d at %d px", s.object,
                               s.resolution)
                 .c_str(),
             perfbench::checkBitwiseEqual(s.output,
                                          backbone_->runNaive(in)));
    }
    if (outcomes_.empty())
        fired.push_back("no request finished");
    std::map<int, int> hist;
    for (int r : served)
        ++hist[r];
    std::fprintf(stderr, "served resolutions:");
    for (const auto &[r, count] : hist)
        std::fprintf(stderr, " %d:%d", r, count);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr,
                 "checks: %zu served, %zu outputs compared bitwise, %llu "
                 "decisions changed by the cache, %lld store bytes in no "
                 "request (hedges allow %llu), %zu checks fired\n",
                 served.size(), outputs_.size(),
                 static_cast<unsigned long long>(decision_faults),
                 static_cast<long long>(store_bytes) -
                     static_cast<long long>(per_request_bytes),
                 static_cast<unsigned long long>(hedge_allowance),
                 fired.size());
    return fired;
}

std::vector<Metric>
Bench::endToEnd()
{
    std::vector<double> lat;
    double correct = 0, gflops = 0;
    for (const Outcome &o : outcomes_) {
        if (o.state != StagedState::Done)
            continue;
        lat.push_back((o.late_s + o.latency_s) * 1e3);
        const double q = ssimAt(o.object, o.scans_read, o.resolution);
        correct += model_.correct(ds_.record(o.object), kCrop,
                                  o.resolution, q)
                       ? 1.0
                       : 0.0;
        gflops += backboneGflops(BackboneArch::ResNet18, o.resolution) +
                  (dynamic() ? scaleModelGflops() : 0.0);
    }
    const double served = std::max<double>(1.0, lat.size());
    return {
        {"setup_s", setup_s_, "s"},
        {"rps",
         elapsed_s_ > 0 ? static_cast<double>(lat.size()) / elapsed_s_
                        : 0.0,
         "req/s"},
        {"latency_p50_ms", quantile(lat, 0.50), "ms"},
        {"latency_p90_ms", quantile(lat, 0.90), "ms"},
        {"latency_tail_ms", tail(lat), "ms"},
        {"bytes_per_req",
         static_cast<double>(reads1_.bytes_read - reads0_.bytes_read) /
             served,
         "bytes"},
        {"accuracy", correct / served, "fraction"},
        {"gflops_per_req", gflops / served, "GFLOP"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
    };
}

/**
 * The traced run's replay: each served request's stage 1-4 work, one
 * public call at a time on the same store stack, then the backbone per
 * served shape. Each call gets a span under the request's trace id.
 */
void
Bench::replay()
{
    const int in_res = scale_->options().input_res;
    auto timed = [&](int64_t trace, int parent, const char *name,
                     auto &&fn, int res = 0, int batch = 0) {
        const double t = secondsSince(t0_);
        const SteadyClock::time_point c0 = SteadyClock::now();
        fn();
        return spans_.add(trace, parent, name, t, secondsSince(c0), res,
                          batch);
    };

    for (size_t i = 0; i < outcomes_.size(); ++i) {
        const Outcome &o = outcomes_[i];
        const int64_t trace = static_cast<int64_t>(i);
        const int root = spans_.add(trace, -1, "request",
                                    o.submit_s - o.late_s,
                                    o.late_s + o.latency_s);
        spans_.add(trace, root, "staged_engine.decode", o.submit_s,
                   o.decode_s);
        if (backbone_ && o.state == StagedState::Done) {
            spans_.add(trace, root, "engine.queue",
                       o.submit_s + o.decode_s, o.queue_s);
            spans_.add(trace, root, "engine.service",
                       o.submit_s + o.decode_s + o.queue_s,
                       o.infer_latency_s - o.queue_s);
        }
        if (o.state != StagedState::Done)
            continue;

        const EncodedImage &enc = object(o.object);
        const double rep_start = secondsSince(t0_);
        const int rep = spans_.add(trace, -1, "replay", rep_start, 0);
        EncodedImage delivery = enc.headerCopy();
        std::unique_ptr<ProgressiveDecoder> dec;
        if (o.preview_scans > 0) {
            timed(trace, rep, "storage.fetch", [&] {
                store_->fetchScanRange(o.id, 0, o.preview_scans,
                                       delivery.bytes, true);
            });
            Image preview_full;
            timed(trace, rep, "codec.preview_decode", [&] {
                dec = std::make_unique<ProgressiveDecoder>(delivery);
                dec->advanceTo(o.preview_scans);
                preview_full = dec->image();
            });
            Image preview;
            timed(trace, rep, "image.crop_resize", [&] {
                preview = resize(centerCropFraction(preview_full, kCrop),
                                 in_res, in_res);
            });
            timed(trace, rep, "scale_model.choose",
                  [&] { scale_->chooseResolutionIndex(preview); });
        } else {
            dec = std::make_unique<ProgressiveDecoder>(delivery);
        }
        if (o.scans_read > o.preview_scans) {
            timed(trace, rep, "storage.fetch", [&] {
                store_->fetchScanRange(o.id, o.preview_scans, o.scans_read,
                                       delivery.bytes,
                                       o.preview_scans == 0);
            });
        }
        Image served;
        timed(trace, rep, "codec.resume_decode", [&] {
            dec->advanceTo(o.scans_read);
            if (backbone_)
                served = dec->image();
        });
        if (backbone_)
            timed(trace, rep, "image.crop_resize", [&] {
                backboneInput(served, o.resolution);
            }, o.resolution);
        spans_.setDuration(rep, secondsSince(t0_) - rep_start);
        timed(trace, -1, "codec.full_decode",
              [&] { decodeProgressive(enc); });
    }

    if (!backbone_)
        return;
    std::vector<int> shapes;
    for (const Outcome &o : outcomes_)
        if (o.state == StagedState::Done)
            shapes.push_back(o.resolution);
    std::sort(shapes.begin(), shapes.end());
    shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
    for (int r : shapes) {
        for (int b : {1, 4}) {
            Tensor in({b, 3, r, r});
            Rng rng(static_cast<uint64_t>(r * 10 + b));
            for (int64_t k = 0; k < in.numel(); ++k)
                in.data()[k] = static_cast<float>(rng.uniform());
            Tensor out;
            backbone_->runInto(in, out); // compile + first touch
            for (int rep = 0; rep < (b == 1 ? 3 : 2); ++rep)
                timed(-1, -1, "nn.run",
                      [&] { backbone_->runInto(in, out); }, r, b);
        }
    }
}

std::vector<Metric>
Bench::perLayer()
{
    replay();
    const auto &grid = paperResolutions();
    auto ms = [&](const char *name, double p = 0.5) {
        std::vector<double> v = spans_.selfTimes(name);
        return quantile(v, p) * 1e3;
    };

    // Decode-stage wait: decode_s minus the replayed stage 1-4 calls.
    std::vector<double> decode_wait;
    {
        std::map<int64_t, double> service;
        for (const perfbench::Span &s : spans_.spans())
            if (s.name == "replay")
                service[s.trace] = s.dur_s;
        for (size_t i = 0; i < outcomes_.size(); ++i) {
            auto it = service.find(static_cast<int64_t>(i));
            if (it != service.end())
                decode_wait.push_back(
                    (outcomes_[i].decode_s - it->second) * 1e3);
        }
    }

    uint64_t served = 0;
    double scans = 0;
    std::vector<double> queue_ms, service_ms;
    std::map<int, uint64_t> per_res;
    for (const Outcome &o : outcomes_) {
        if (o.state != StagedState::Done)
            continue;
        ++served;
        scans += o.scans_read;
        ++per_res[o.resolution];
        if (backbone_) {
            queue_ms.push_back(o.queue_s * 1e3);
            service_ms.push_back((o.infer_latency_s - o.queue_s) * 1e3);
        }
    }
    const double n = std::max<double>(1.0, static_cast<double>(served));
    auto delta = [&](uint64_t StagedStats::*f) {
        return static_cast<double>(stats1_.*f - stats0_.*f);
    };
    const double lookups = delta(&StagedStats::cache_hits) +
                           delta(&StagedStats::cache_misses);
    const double batches = static_cast<double>(stats1_.backbone.batches -
                                               stats0_.backbone.batches);

    std::vector<Metric> m = {
        {"staged_engine.decode_stage_ms_p50", ms("staged_engine.decode"),
         "ms"},
        {"staged_engine.decode_wait_ms_p50", quantile(decode_wait, 0.5),
         "ms"},
        {"storage.fetches_per_req",
         static_cast<double>(reads1_.requests - reads0_.requests) / n,
         "count"},
        {"storage.fetch_ms_p50", ms("storage.fetch", 0.5), "ms"},
        {"storage.fetch_ms_p99", ms("storage.fetch", 0.99), "ms"},
        {"storage.cache_hit_ratio",
         lookups > 0 ? delta(&StagedStats::cache_hits) / lookups : 0.0,
         "fraction"},
        {"storage.cache_resumes", delta(&StagedStats::cache_resumes),
         "count"},
        {"storage.cache_evictions_per_req",
         static_cast<double>(stats1_.cache.evictions -
                             stats0_.cache.evictions) / n,
         "count"},
        {"storage.cache_bytes_saved_per_req",
         delta(&StagedStats::cache_bytes_saved) / n, "bytes"},
        {"storage.hedges_per_req", delta(&StagedStats::hedges_issued) / n,
         "count"},
        {"storage.hedge_wins_per_req",
         delta(&StagedStats::hedge_wins) / n, "count"},
        {"codec.scans_per_req", scans / n, "count"},
        {"codec.preview_decode_ms", ms("codec.preview_decode"), "ms"},
        {"codec.resume_decode_ms", ms("codec.resume_decode"), "ms"},
        {"codec.full_decode_ms", ms("codec.full_decode"), "ms"},
        {"image.crop_resize_ms", ms("image.crop_resize"), "ms"},
        {"scale_model.choose_ms", ms("scale_model.choose"), "ms"},
    };
    for (int r : grid)
        m.push_back({perfbench::format("scale_model.served.r%d", r),
                     static_cast<double>(per_res[r]), "count"});
    m.push_back({"engine.queue_ms_p50", quantile(queue_ms, 0.5), "ms"});
    m.push_back({"engine.service_ms_p50", quantile(service_ms, 0.5), "ms"});
    m.push_back({"engine.mean_batch",
                 batches > 0 ? static_cast<double>(
                                   stats1_.backbone.served -
                                   stats0_.backbone.served) / batches
                             : 0.0,
                 "count"});
    for (int r : grid) {
        m.push_back({perfbench::format("nn.run_ms.r%d.b1", r),
                     quantile(spans_.selfTimes("nn.run", r, 1), 0.5) * 1e3,
                     "ms"});
        m.push_back({perfbench::format("nn.item_ms.r%d.b4", r),
                     quantile(spans_.selfTimes("nn.run", r, 4), 0.5) * 1e3 /
                         4.0,
                     "ms"});
    }
    m.push_back({"process.cpu_ms_per_req", cpu_s_ * 1e3 / n, "ms"});

    const std::string dir = ".bench_out";
    std::filesystem::create_directories(dir);
    const std::string path = perfbench::format(
        "%s/trace-%s-seed%llu.json", dir.c_str(), args_.workload.c_str(),
        static_cast<unsigned long long>(args_.seed));
    if (!spans_.writeJson(path, hostFingerprint()))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    else
        std::fprintf(stderr, "wrote %zu spans to %s\n",
                     spans_.spans().size(), path.c_str());
    return m;
}

std::string
metricsJson(const std::vector<Metric> &m)
{
    std::string out = "{";
    for (size_t i = 0; i < m.size(); ++i)
        out += perfbench::format("%s\"%s\": {\"value\": %.17g, \"unit\": "
                                 "\"%s\"}",
                                 i ? ", " : "", m[i].name.c_str(),
                                 m[i].value, m[i].unit.c_str());
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload "
                     "dynamic-closed|static-closed|decide-zipf-open "
                     "--seed <n> --seconds <s> --trace <0|1>\n",
                     argv[0]);
        return 2;
    }
    try {
        std::fprintf(stderr, "%s\n", hostFingerprint().c_str());
        Bench bench(args);
        bench.setup();
        bench.run();
        const std::vector<std::string> fired = bench.check();
        for (const std::string &f : fired)
            std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
        const auto e2e = bench.endToEnd();
        std::vector<Metric> metrics = e2e;
        if (args.trace) {
            std::fprintf(stderr, "end-to-end (traced run): %s\n",
                         metricsJson(e2e).c_str());
            metrics = bench.perLayer();
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    fired.empty() ? "true" : "false",
                    static_cast<unsigned long long>(bench.attempted()),
                    static_cast<unsigned long long>(bench.failed()),
                    metricsJson(metrics).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
