/**
 * @file
 * End-to-end benchmark of the Sirius serving stack.
 *
 * One run builds the trained ASR-DNN pipeline, serves one workload
 * against it for a fixed time and checks every response against a
 * serial reference. With --trace 0 it prints the end-to-end metrics;
 * with --trace 1 it also serves the workload a second time with every
 * query traced and prints the per-layer metrics. The last line of
 * stdout is the result object; a fuller report (stamp, set-up parts,
 * both metric sets, sample counts) goes to --report.
 *
 *   perfbench --workload open_mix --seed 1 --seconds 15 --trace 0
 *             [--report PATH] [--commit SHA]
 *   perfbench --selftest
 *
 * Every layer is measured from outside, through public APIs only: the
 * front end's submit/handle/snapshot, SiriusPipeline::build and
 * process, the SiriusResult timings, and analyzeCriticalPath over the
 * spans the trace plane records at traceSampleRate = 1.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc_counter.h"
#include "common/critical_path.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/cluster.h"
#include "core/concurrent_server.h"
#include "core/pipeline.h"
#include "core/query_set.h"
#include "vision/landmarks.h"
#include "workload.h"

namespace {

using namespace sirius;
using namespace sirius::core;
using perfbench::Arrival;
using Clock = std::chrono::steady_clock;

constexpr double kOpenQps = 90.0;     ///< about half of closed_mix capacity
constexpr double kSloSeconds = 0.050; ///< slo_met_frac latency limit
constexpr double kZipfSkew = 1.0;
constexpr int kSetupRepeats = 3;      ///< setup_s is their median
/**
 * End-to-end timings are medians over this many equal windows of the
 * timed phase, so a host hiccup confined to a window or two does not
 * move them.
 */
constexpr size_t kWindows = 5;
constexpr size_t kClusterShards = 2;
/** Span ring per collector: holds every span of a traced run. */
constexpr size_t kTraceCapacity = size_t{1} << 18;
/** ROADMAP item 1: critical-path segments must sum to their root. */
constexpr double kPartitionTolerance = 1e-6;

/** A workload: how requests arrive, which queries, which front end. */
struct WorkloadSpec
{
    const char *name;
    bool openLoop;
    double zipfSkew; ///< 0 = uniform picks
    bool cluster;    ///< ClusterRouter instead of one ConcurrentServer
};

/** Why each one is measured is recorded in BENCHMARK.json. */
constexpr WorkloadSpec kWorkloads[] = {
    {"open_mix", true, 0.0, false},
    {"closed_mix", false, 0.0, false},
    {"closed_zipf_cluster", false, kZipfSkew, true},
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

size_t
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** User + system CPU seconds this process has used so far. */
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (startsWith(line, "model name")) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : trim(line.substr(colon + 1));
        }
    return "unknown";
}

// ---------------------------------------------------------------------
// Correctness: the serial reference and ground-truth quality

/** Quality of one response against the query set's ground truth. */
struct Score
{
    size_t wordErrors = 0;
    size_t words = 0;
    int qaHit = -1;  ///< -1: not a VQ/VIQ query
    int immHit = -1; ///< -1: not a VIQ query
};

Score
scoreOf(const Query &query, const SiriusResult &result)
{
    Score score;
    score.wordErrors = speech::wordEditDistance(query.text,
                                                result.transcript);
    score.words = split(toLower(query.text)).size();
    if (query.type != QueryType::VoiceCommand)
        score.qaHit = toLower(result.answer).find(query.expectedAnswer) !=
            std::string::npos;
    if (query.type == QueryType::VoiceImageQuery)
        score.immHit = result.matchedLandmark == query.landmarkId;
    return score;
}

/** Serial SiriusPipeline::process output of every query in the set. */
struct Reference
{
    std::vector<SiriusResult> results;
    std::vector<Score> scores;
};

Reference
referencePass(const SiriusPipeline &pipeline,
              const std::vector<Query> &queries)
{
    Reference ref;
    for (const Query &query : queries) {
        ref.results.push_back(pipeline.process(query));
        ref.scores.push_back(scoreOf(query, ref.results.back()));
    }
    return ref;
}

/** One request of a timed phase. */
struct Sample
{
    size_t query = 0;
    double dueSeconds = 0.0;  ///< open: scheduled; closed: when sent
    double lateSeconds = 0.0; ///< generator lateness (see loadgen.*)
    double doneSeconds = -1.0; ///< -1: never completed
    bool admitted = true;
    bool matches = false; ///< identical to the serial reference
    Score score;

    double latency() const { return doneSeconds - dueSeconds; }
    bool completed() const { return admitted && doneSeconds >= 0.0; }
    bool ok() const { return completed() && matches; }
};

/**
 * Compare a served response with the reference: transcript, action,
 * answer, matched landmark, and no degradation. Any difference is a
 * failed operation, never skipped.
 */
void
check(Sample &sample, const SiriusResult &served, const Query &query,
      const Reference &ref)
{
    const SiriusResult &want = ref.results[sample.query];
    sample.matches = served.degradation == Degradation::None &&
        served.transcript == want.transcript &&
        served.action == want.action && served.answer == want.answer &&
        served.matchedLandmark == want.matchedLandmark;
    sample.score = sample.matches ? ref.scores[sample.query]
                                  : scoreOf(query, served);
}

// ---------------------------------------------------------------------
// Front ends

ConcurrentServerConfig
leafConfig(size_t workers, bool traced)
{
    ConcurrentServerConfig config;
    config.workers = workers;
    if (traced) {
        config.traceSampleRate = 1.0;
        config.traceCapacity = kTraceCapacity;
    }
    return config;
}

template <class Frontend>
std::unique_ptr<Frontend>
makeFrontend(const SiriusPipeline &pipeline, size_t cpus, bool traced)
{
    if constexpr (std::is_same_v<Frontend, ClusterRouter>) {
        ClusterConfig config;
        config.shards = kClusterShards;
        config.policy = RoutingPolicy::AffinityHash;
        config.shard = leafConfig(std::max<size_t>(1, cpus / kClusterShards),
                                  traced);
        config.shard.cache.enabled = true;
        return std::make_unique<ClusterRouter>(pipeline, config);
    } else {
        return std::make_unique<ConcurrentServer>(pipeline,
                                                  leafConfig(cpus, traced));
    }
}

/** The counters of one front end, summed over its shards. */
struct LayerCounters
{
    size_t workers = 0;
    std::vector<uint64_t> shardServed;
    double busySeconds = 0.0; ///< sum of per-request service times
    uint64_t rejected = 0;
    uint64_t failovers = 0;
    uint64_t hedges = 0;
    BatchSnapshot batching;
    PipelineCacheSnapshot caches;
    std::vector<SpanRecord> spans;
    uint64_t traceDropped = 0;
};

void
addLeaf(LayerCounters &out, const ConcurrentServerStats &stats,
        size_t workers)
{
    out.workers += workers;
    out.shardServed.push_back(stats.server.served);
    for (double s : stats.server.serviceSeconds.samples())
        out.busySeconds += s;
    out.rejected += stats.rejected;
    for (size_t k = 0; k < kBatchKernels; ++k) {
        BatchKernelSnapshot &sum = out.batching.kernels[k];
        const BatchKernelSnapshot &add = stats.batching.kernels[k];
        sum.batches += add.batches;
        sum.items += add.items;
        for (size_t r = 0; r < std::size(sum.flushes); ++r)
            sum.flushes[r] += add.flushes[r];
        sum.waitSeconds.merge(add.waitSeconds);
    }
    out.spans.insert(out.spans.end(), stats.spans.begin(),
                     stats.spans.end());
}

LayerCounters
countersOf(const ConcurrentServer &server)
{
    const ConcurrentServerStats stats = server.snapshot();
    LayerCounters out;
    addLeaf(out, stats, server.workerCount());
    out.caches = stats.caches;
    out.traceDropped = stats.traceDropped;
    return out;
}

LayerCounters
countersOf(const ClusterRouter &router)
{
    const ClusterStats stats = router.snapshot();
    LayerCounters out;
    for (size_t i = 0; i < stats.shards.size(); ++i)
        addLeaf(out, stats.shards[i], router.shard(i).server().workerCount());
    out.rejected += stats.rejected;
    out.failovers = stats.failovers;
    out.hedges = stats.hedgesFired;
    out.caches = stats.caches;
    out.spans.insert(out.spans.end(), stats.routerSpans.begin(),
                     stats.routerSpans.end());
    out.traceDropped = stats.traceDropped;
    return out;
}

// ---------------------------------------------------------------------
// Load generators

/**
 * Untimed warm-up: every client sends every query of the set once, in
 * a rotated order, so each worker, the batcher and (when on) every
 * cache entry is live before timing starts.
 */
template <class Frontend>
size_t
warmUp(Frontend &frontend, const std::vector<Query> &queries,
       const Reference &ref, size_t clients)
{
    std::vector<size_t> mismatches(clients, 0);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            const size_t n = queries.size();
            for (size_t k = 0; k < n; ++k) {
                Sample sample;
                sample.query = (c * n / clients + k) % n;
                check(sample, frontend.handle(queries[sample.query]),
                      queries[sample.query], ref);
                mismatches[c] += !sample.matches;
            }
        });
    for (std::thread &t : threads)
        t.join();
    size_t total = 0;
    for (size_t m : mismatches)
        total += m;
    return total;
}

/**
 * Open loop on one generator thread: each request is submitted at its
 * due time whatever is outstanding, and its latency runs from the due
 * time, so a generator or server stall is charged to every request it
 * delays.
 */
template <class Frontend>
std::vector<Sample>
runOpen(Frontend &frontend, const std::vector<Query> &queries,
        const Reference &ref, const std::vector<Arrival> &schedule)
{
    std::vector<Sample> samples(schedule.size());
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < schedule.size(); ++i) {
        Sample &sample = samples[i];
        sample.query = schedule[i].query;
        sample.dueSeconds = schedule[i].dueSeconds;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sample.dueSeconds)));
        sample.lateSeconds = secondsSince(start) - sample.dueSeconds;
        const Query &query = queries[sample.query];
        sample.admitted = frontend.submit(
            query, [&sample, &query, &ref, start](const SiriusResult &r) {
                sample.doneSeconds = secondsSince(start);
                check(sample, r, query, ref);
            });
    }
    frontend.drain();
    return samples;
}

/**
 * Closed loop: @p clients threads, each sending its next request only
 * after the previous reply. Latency runs from the send; lateness is the
 * client's own turnaround between a reply and its next send.
 */
template <class Frontend>
std::vector<Sample>
runClosed(Frontend &frontend, const std::vector<Query> &queries,
          const Reference &ref, size_t clients, uint64_t seed,
          double zipf_skew, double seconds)
{
    std::vector<std::vector<Sample>> perClient(clients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            perfbench::PickStream picks = perfbench::clientPicks(
                seed, c, queries.size(), zipf_skew);
            std::vector<Sample> &out = perClient[c];
            out.reserve(4096);
            double previous = 0.0;
            while (secondsSince(start) < seconds) {
                Sample sample;
                sample.query = picks.next();
                sample.dueSeconds = secondsSince(start);
                sample.lateSeconds = sample.dueSeconds - previous;
                const SiriusResult served =
                    frontend.handle(queries[sample.query]);
                sample.doneSeconds = previous = secondsSince(start);
                check(sample, served, queries[sample.query], ref);
                out.push_back(sample);
            }
        });
    for (std::thread &t : threads)
        t.join();
    std::vector<Sample> samples;
    for (const std::vector<Sample> &out : perClient)
        samples.insert(samples.end(), out.begin(), out.end());
    return samples;
}

// ---------------------------------------------------------------------
// Metrics

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

double
percentile(const std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    SampleStats stats;
    stats.addAll(values);
    return stats.percentile(p);
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 50.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Latencies of the completed samples, of every class or of one. */
std::vector<double>
latencies(const std::vector<Sample> &samples, std::optional<QueryType> type,
          const std::vector<Query> &queries)
{
    std::vector<double> out;
    for (const Sample &s : samples)
        if (s.completed() && (!type || queries[s.query].type == *type))
            out.push_back(s.latency());
    return out;
}

/** Everything one timed phase produced. */
struct Phase
{
    std::vector<Sample> samples;
    double seconds = 0.0;        ///< the requested run length
    double elapsedSeconds = 0.0; ///< phase start to the last completion
    double cpuSeconds = 0.0;     ///< process CPU time over the phase
    LayerCounters before;
    LayerCounters after;

    size_t sent() const { return samples.size(); }

    size_t
    failed() const
    {
        return static_cast<size_t>(
            std::count_if(samples.begin(), samples.end(),
                          [](const Sample &s) { return !s.ok(); }));
    }

    size_t
    mismatched() const
    {
        return static_cast<size_t>(std::count_if(
            samples.begin(), samples.end(),
            [](const Sample &s) { return s.completed() && !s.matches; }));
    }

    double
    lateP99Seconds() const
    {
        std::vector<double> late;
        for (const Sample &s : samples)
            late.push_back(s.lateSeconds);
        return percentile(late, 99.0);
    }

    /** Worker time per query served, over every shard. */
    double
    meanServiceSeconds() const
    {
        uint64_t served = 0;
        for (size_t i = 0; i < after.shardServed.size(); ++i)
            served += after.shardServed[i] - before.shardServed[i];
        return ratio(after.busySeconds - before.busySeconds,
                     static_cast<double>(served));
    }

    double
    okCount() const
    {
        return static_cast<double>(
            std::count_if(samples.begin(), samples.end(),
                          [](const Sample &s) { return s.ok(); }));
    }

    double throughput() const { return ratio(okCount(), elapsedSeconds); }
};

/** End-to-end metrics of a phase (tracing off). */
Metrics
endToEnd(const Phase &phase, const std::vector<Query> &queries,
         double setup_seconds)
{
    // Windowed timings: latencies by when the request was sent,
    // throughput by when it completed (the tail after the phase's end
    // is in no window), as completions between a window's first and
    // last one over the time between them.
    const double width = phase.seconds / kWindows;
    auto window = [&](double t) {
        return std::min(kWindows - 1, static_cast<size_t>(t / width));
    };
    std::vector<std::vector<Sample>> sent(kWindows);
    std::vector<std::vector<double>> completed(kWindows);
    for (const Sample &s : phase.samples) {
        sent[window(s.dueSeconds)].push_back(s);
        if (s.ok() && s.doneSeconds < phase.seconds)
            completed[window(s.doneSeconds)].push_back(s.doneSeconds);
    }
    std::vector<double> rates;
    for (std::vector<double> &done : completed) {
        const auto [first, last] =
            std::minmax_element(done.begin(), done.end());
        rates.push_back(done.size() < 2
                            ? 0.0
                            : static_cast<double>(done.size() - 1) /
                                  (*last - *first));
    }
    auto latencyMs = [&](std::optional<QueryType> type, double p) {
        std::vector<double> perWindow;
        for (const std::vector<Sample> &w : sent)
            perWindow.push_back(percentile(latencies(w, type, queries), p));
        return median(perWindow) * 1e3;
    };

    const double count = static_cast<double>(phase.sent());
    size_t slo = 0, errors = 0, words = 0;
    size_t qa = 0, qaHits = 0, imm = 0, immHits = 0;
    for (const Sample &s : phase.samples) {
        slo += s.ok() && s.latency() <= kSloSeconds;
        if (!s.completed())
            continue;
        errors += s.score.wordErrors;
        words += s.score.words;
        qa += s.score.qaHit >= 0;
        qaHits += s.score.qaHit == 1;
        imm += s.score.immHit >= 0;
        immHits += s.score.immHit == 1;
    }
    return {
        {"setup_s", setup_seconds, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"throughput_qps", median(rates), "qps"},
        {"cpu_ms_per_query", ratio(phase.cpuSeconds, phase.okCount()) * 1e3,
         "ms"},
        {"latency_p50_ms", latencyMs(std::nullopt, 50.0), "ms"},
        {"latency_p95_ms", latencyMs(std::nullopt, 95.0), "ms"},
        {"latency_p50_ms.vc", latencyMs(QueryType::VoiceCommand, 50.0), "ms"},
        {"latency_p50_ms.vq", latencyMs(QueryType::VoiceQuery, 50.0), "ms"},
        {"latency_p50_ms.viq", latencyMs(QueryType::VoiceImageQuery, 50.0),
         "ms"},
        {"slo_met_frac", ratio(static_cast<double>(slo), count), "ratio"},
        {"success_frac", ratio(phase.okCount(), count), "ratio"},
        {"word_accuracy",
         1.0 - ratio(static_cast<double>(errors), static_cast<double>(words)),
         "ratio"},
        {"qa_hit_frac",
         ratio(static_cast<double>(qaHits), static_cast<double>(qa)),
         "ratio"},
        {"imm_top1_frac",
         ratio(static_cast<double>(immHits), static_cast<double>(imm)),
         "ratio"},
    };
}

/**
 * Quantile of the samples a LatencyHistogram gained between two
 * snapshots, read the way LatencyHistogram::quantile reads it: the
 * upper edge of the bucket holding the q-th sample.
 */
double
deltaQuantile(const LatencyHistogram &after, const LatencyHistogram &before,
              double q)
{
    std::vector<uint64_t> delta(after.buckets());
    uint64_t total = 0;
    for (size_t i = 0; i < delta.size(); ++i) {
        delta[i] = after.bucketCount(i) - before.bucketCount(i);
        total += delta[i];
    }
    if (total == 0)
        return 0.0;
    const auto rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
    uint64_t seen = 0;
    for (size_t i = 0; i < delta.size(); ++i) {
        seen += delta[i];
        if (seen >= rank)
            return i + 1 < delta.size() ? after.bucketLow(i + 1)
                                        : after.bucketLow(i);
    }
    return after.bucketLow(delta.size() - 1);
}

/** Per-query critical-path facts of the traced phase. */
struct TraceFacts
{
    size_t traces = 0;
    size_t invalid = 0;
    double maxPartitionError = 0.0;
    /** metric name -> per-query seconds, over the layer's query classes. */
    std::map<std::string, std::vector<double>> perQuery;
};

const char *
attrOf(const SpanRecord &span, const char *key)
{
    for (const auto &[k, v] : span.attrs)
        if (k == key)
            return v.c_str();
    return "";
}

/**
 * Partition every trace that started in the timed phase. Each layer's
 * self time is taken per query over the classes the layer serves (a
 * stage or kernel the query skipped, e.g. on a cache hit, counts 0).
 */
TraceFacts
analyzeTraces(const std::vector<SpanRecord> &spans,
              const std::set<uint64_t> &warm_ids)
{
    TraceFacts facts;
    for (const auto &[id, trace] : groupByTrace(spans)) {
        if (warm_ids.count(id) != 0)
            continue;
        ++facts.traces;
        const CriticalPathReport report = analyzeCriticalPath(trace);
        if (!report.valid) {
            ++facts.invalid;
            continue;
        }
        facts.maxPartitionError =
            std::max(facts.maxPartitionError,
                     std::abs(report.sumSeconds() - report.totalSeconds));

        std::string type;
        for (const SpanRecord &span : trace)
            if (span.kind == SpanKind::Query)
                type = attrOf(span, "type");
        const bool question = type == "VQ" || type == "VIQ";
        const bool image = type == "VIQ";

        std::map<std::string, double> segment;
        for (const CriticalPathSegment &s : report.segments)
            segment[s.name] += s.durationSeconds;
        auto kernel = [&](const char *name) {
            const auto it = report.kernelSeconds.find(name);
            return it == report.kernelSeconds.end() ? 0.0 : it->second;
        };
        auto add = [&](const char *metric, double seconds, bool applies) {
            if (applies)
                facts.perQuery[metric].push_back(seconds);
        };
        add("router.self", segment["route_dispatch"] +
                segment["route_deliver"] + segment["route"],
            true);
        add("server.queue_wait", segment["queue_wait"], true);
        add("stage.synthesize", segment["synthesize_input"], true);
        add("stage.asr", segment["asr"], true);
        add("stage.classify", segment["classify"], true);
        add("stage.imm", segment["imm"], image);
        add("stage.qa", segment["qa"], question);
        add("stage.other", segment["other"], true);
        add("speech.features", kernel("feature_extraction"), true);
        add("speech.scoring", kernel("acoustic_scoring"), true);
        add("speech.viterbi", kernel("viterbi_search"), true);
        add("qa.analysis", kernel("question_analysis"), question);
        add("qa.search", kernel("document_search"), question);
        add("qa.stemmer_filter", kernel("stemmer_filter"), question);
        add("qa.regex_filter", kernel("regex_filter"), question);
        add("qa.crf_filter", kernel("crf_filter"), question);
        add("qa.select", kernel("answer_select"), question);
        add("imm.detect", kernel("surf_detect"), image);
        add("imm.describe", kernel("surf_describe"), image);
        add("imm.ann", kernel("ann_matching"), image);
    }
    return facts;
}


/** Mean heap traffic of one query, by class. */
struct Heap
{
    double allocs = 0.0;
    double bytes = 0.0;
};

/**
 * Serve every query of the set once, serially, with the allocation
 * counter on around each one, and average per class. The counter is
 * process-wide, so allocations the front end makes on its worker,
 * batcher and router threads are all charged to the query.
 */
template <class Serve>
std::map<QueryType, Heap>
heapPerQuery(const std::vector<Query> &queries, Serve serve)
{
    std::map<QueryType, Heap> out;
    std::map<QueryType, size_t> count;
    for (const Query &query : queries) {
        const perfbench::AllocCount before = perfbench::allocCount();
        perfbench::setAllocCounting(true);
        serve(query);
        perfbench::setAllocCounting(false);
        const perfbench::AllocCount after = perfbench::allocCount();
        out[query.type].allocs +=
            static_cast<double>(after.allocs - before.allocs);
        out[query.type].bytes +=
            static_cast<double>(after.bytes - before.bytes);
        ++count[query.type];
    }
    for (auto &[type, heap] : out) {
        heap.allocs /= static_cast<double>(count[type]);
        heap.bytes /= static_cast<double>(count[type]);
    }
    return out;
}

const char *
classKey(QueryType type)
{
    switch (type) {
      case QueryType::VoiceCommand:
        return "vc";
      case QueryType::VoiceQuery:
        return "vq";
      case QueryType::VoiceImageQuery:
        return "viq";
    }
    return "?";
}

/** Inputs of the per-layer metrics that are not in the traced phase. */
struct LayerContext
{
    const std::vector<Query> *queries = nullptr;
    bool openLoop = false;
    double buildSeconds = 0.0;
    double warmupSeconds = 0.0;
    double lateP99Seconds = 0.0;      ///< of the untraced phase
    const Phase *untraced = nullptr;  ///< for trace.overhead_frac
    std::map<QueryType, Heap> heap;
    std::vector<size_t> frames;    ///< per query of the set
    std::vector<size_t> keypoints; ///< per query of the set (VIQ)
};

Metrics
perLayer(const Phase &traced, const TraceFacts &facts,
         const LayerContext &ctx)
{
    const LayerCounters &a = traced.after;
    const LayerCounters &b = traced.before;
    const auto &queries = *ctx.queries;
    auto ms = [&](const std::string &metric, double p) {
        const auto it = facts.perQuery.find(metric);
        return it == facts.perQuery.end()
            ? 0.0
            : percentile(it->second, p) * 1e3;
    };

    Metrics m;
    m.push_back({"loadgen.late_p99_ms", ctx.lateP99Seconds * 1e3, "ms"});
    m.push_back({"setup.pipeline_build_s", ctx.buildSeconds, "s"});
    m.push_back({"setup.warmup_s", ctx.warmupSeconds, "s"});

    double maxServed = 0.0, sumServed = 0.0;
    for (size_t i = 0; i < a.shardServed.size(); ++i) {
        const double served =
            static_cast<double>(a.shardServed[i] - b.shardServed[i]);
        maxServed = std::max(maxServed, served);
        sumServed += served;
    }
    const double meanServed =
        ratio(sumServed, static_cast<double>(a.shardServed.size()));
    m.push_back({"router.self_p50_us", ms("router.self", 50.0) * 1e3, "us"});
    m.push_back({"router.shard_skew", ratio(maxServed, meanServed), "ratio"});
    m.push_back({"router.failovers",
                 static_cast<double>(a.failovers - b.failovers), "count"});
    m.push_back({"router.hedges", static_cast<double>(a.hedges - b.hedges),
                 "count"});

    m.push_back({"server.queue_wait_p50_ms", ms("server.queue_wait", 50.0),
                 "ms"});
    m.push_back({"server.queue_wait_p95_ms", ms("server.queue_wait", 95.0),
                 "ms"});
    m.push_back({"server.rejected",
                 static_cast<double>(a.rejected - b.rejected), "count"});
    m.push_back({"server.worker_busy_frac",
                 ratio(a.busySeconds - b.busySeconds,
                       static_cast<double>(a.workers) *
                           traced.elapsedSeconds),
                 "ratio"});

    for (size_t k = 0; k < kBatchKernels; ++k) {
        const BatchKernelSnapshot &ka = a.batching.kernels[k];
        const BatchKernelSnapshot &kb = b.batching.kernels[k];
        const double batches = static_cast<double>(ka.batches - kb.batches);
        const size_t timeout = static_cast<size_t>(FlushReason::Timeout);
        const std::string prefix =
            std::string("batch.") + batchKernelName(BatchKernel(k)) + ".";
        m.push_back({prefix + "occupancy",
                     ratio(static_cast<double>(ka.items - kb.items), batches),
                     "items"});
        m.push_back({prefix + "wait_p95_ms",
                     deltaQuantile(ka.waitSeconds, kb.waitSeconds, 0.95) * 1e3,
                     "ms"});
        m.push_back({prefix + "timeout_frac",
                     ratio(static_cast<double>(ka.flushes[timeout] -
                                               kb.flushes[timeout]),
                           batches),
                     "ratio"});
    }

    auto hitFrac = [](const CacheStats &ca, const CacheStats &cb) {
        const uint64_t hits = ca.hits - cb.hits;
        const uint64_t tried = hits + (ca.misses - cb.misses) +
            (ca.expired - cb.expired);
        return ratio(static_cast<double>(hits), static_cast<double>(tried));
    };
    m.push_back({"cache.acoustic.hit_frac",
                 hitFrac(a.caches.acousticScores, b.caches.acousticScores),
                 "ratio"});
    m.push_back({"cache.answer.hit_frac",
                 hitFrac(a.caches.answers, b.caches.answers), "ratio"});
    m.push_back({"cache.match.hit_frac",
                 hitFrac(a.caches.matches, b.caches.matches), "ratio"});
    const CacheStats ta = a.caches.total();
    const CacheStats tb = b.caches.total();
    m.push_back({"cache.evictions",
                 static_cast<double>((ta.evictedLru - tb.evictedLru) +
                                     (ta.evictedExpired - tb.evictedExpired)),
                 "count"});
    m.push_back({"cache.bypass",
                 static_cast<double>(ta.bypasses - tb.bypasses), "count"});

    // Median per-query self time of each stage or kernel of a layer.
    auto selfMs = [&](const std::string &layer,
                      std::initializer_list<const char *> parts) {
        for (const char *part : parts) {
            const std::string key = layer + "." + part;
            m.push_back({key + "_ms", ms(key, 50.0), "ms"});
        }
    };
    selfMs("stage", {"synthesize", "asr", "classify", "imm", "qa", "other"});

    double frames = 0.0, keypoints = 0.0;
    size_t completed = 0, images = 0;
    for (const Sample &s : traced.samples) {
        if (!s.completed())
            continue;
        ++completed;
        frames += static_cast<double>(ctx.frames[s.query]);
        if (queries[s.query].type == QueryType::VoiceImageQuery) {
            ++images;
            keypoints += static_cast<double>(ctx.keypoints[s.query]);
        }
    }
    selfMs("speech", {"features", "scoring", "viterbi"});
    m.push_back({"speech.frames_per_query",
                 ratio(frames, static_cast<double>(completed)), "count"});
    selfMs("qa", {"analysis", "search", "stemmer_filter", "regex_filter",
                  "crf_filter", "select"});
    selfMs("imm", {"detect", "describe", "ann"});
    m.push_back({"imm.keypoints_per_query",
                 ratio(keypoints, static_cast<double>(images)), "count"});

    for (const QueryType type :
         {QueryType::VoiceCommand, QueryType::VoiceQuery,
          QueryType::VoiceImageQuery}) {
        const auto it = ctx.heap.find(type);
        const Heap heap = it == ctx.heap.end() ? Heap{} : it->second;
        m.push_back({std::string("mem.allocs_per_query.") + classKey(type),
                     heap.allocs, "count"});
        m.push_back({std::string("mem.bytes_per_query.") + classKey(type),
                     heap.bytes, "bytes"});
    }

    // On the open loop throughput is the offered rate, so the plane's
    // cost is read from the mean service time per query instead.
    const double overhead = ctx.openLoop
        ? ratio(traced.meanServiceSeconds(),
                ctx.untraced->meanServiceSeconds()) -
            1.0
        : 1.0 - ratio(traced.throughput(), ctx.untraced->throughput());
    m.push_back({"trace.overhead_frac", overhead, "ratio"});
    m.push_back({"trace.partition_error_us", facts.maxPartitionError * 1e6,
                 "us"});
    m.push_back({"trace.dropped",
                 static_cast<double>(a.traceDropped - b.traceDropped),
                 "count"});
    return m;
}

// ---------------------------------------------------------------------
// Output

std::string
number(double value)
{
    return std::isfinite(value) ? format("%.17g", value) : "0";
}

std::string
quoted(const std::string &text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + quoted(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + quoted(metrics[i].unit) + "}";
    return out + "}";
}

struct Options
{
    const WorkloadSpec *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string report;
    std::string commit = "unknown";
};

/** What one run found, for the result line and the report. */
struct Outcome
{
    bool correct = true;
    std::vector<std::string> findings; ///< why correct is false
    size_t attempted = 0;
    size_t failed = 0;
    Metrics endToEnd;
    Metrics layers;
    std::vector<std::pair<std::string, std::string>> report; ///< key, json
};

void
finding(Outcome &out, const std::string &what)
{
    out.correct = false;
    out.findings.push_back(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

template <class Frontend>
Phase
timedPhase(Frontend &frontend, const Options &opt,
           const std::vector<Query> &queries, const Reference &ref,
           size_t clients)
{
    Phase phase;
    phase.seconds = opt.seconds;
    phase.before = countersOf(frontend);
    const double cpuBefore = processCpuSeconds();
    if (opt.workload->openLoop) {
        phase.samples = runOpen(
            frontend, queries, ref,
            perfbench::openSchedule(opt.seed, kOpenQps, opt.seconds,
                                    kWindows, queries.size()));
    } else {
        phase.samples = runClosed(frontend, queries, ref, clients, opt.seed,
                                  opt.workload->zipfSkew, opt.seconds);
    }
    phase.cpuSeconds = processCpuSeconds() - cpuBefore;
    phase.after = countersOf(frontend);
    for (const Sample &s : phase.samples)
        phase.elapsedSeconds = std::max(phase.elapsedSeconds, s.doneSeconds);
    return phase;
}

/** Count a phase's failures into @p out; mismatches are findings. */
void
account(Outcome &out, const Phase &phase, const char *label)
{
    out.attempted += phase.sent();
    out.failed += phase.failed();
    if (const size_t bad = phase.mismatched())
        finding(out, format("%zu %s responses differ from the serial "
                            "reference",
                            bad, label));
}

std::string
phaseSummary(const Phase &phase, const std::vector<Query> &queries)
{
    size_t rejected = 0, errors = 0, words = 0;
    for (const Sample &s : phase.samples) {
        rejected += !s.admitted;
        if (s.completed()) {
            errors += s.score.wordErrors;
            words += s.score.words;
        }
    }
    const auto all = latencies(phase.samples, std::nullopt, queries);
    return format(
        "{\"sent\": %zu, \"completed\": %zu, \"rejected\": %zu, "
        "\"mismatched\": %zu, \"failed_frac\": %s, \"wer\": %s, "
        "\"elapsed_s\": %s, \"latency_p99_ms\": %s, "
        "\"loadgen_late_p99_ms\": %s}",
        phase.sent(), all.size(), rejected, phase.mismatched(),
        number(ratio(static_cast<double>(phase.failed()),
                     static_cast<double>(phase.sent())))
            .c_str(),
        number(ratio(static_cast<double>(errors),
                     static_cast<double>(words)))
            .c_str(),
        number(phase.elapsedSeconds).c_str(),
        number(percentile(all, 99.0) * 1e3).c_str(),
        number(phase.lateP99Seconds() * 1e3).c_str());
}

std::string
heapJson(const std::map<QueryType, Heap> &heap)
{
    std::string out = "{";
    for (const auto &[type, h] : heap)
        out += format("%s\"%s\": {\"allocs\": %s, \"bytes\": %s}",
                      out.size() > 1 ? ", " : "", classKey(type),
                      number(h.allocs).c_str(), number(h.bytes).c_str());
    return out + "}";
}

template <class Frontend>
Outcome
run(const Options &opt)
{
    const std::vector<Query> &queries = standardQuerySet();
    const size_t cpus = hostCpus();
    Outcome out;

    // Set-up. The pipeline build is most of it and is single-threaded,
    // so kSetupRepeats builds run side by side and setup_s takes their
    // median; the front end, the reference pass and the warm-up follow
    // once, on the first pipeline.
    SiriusConfig config;
    config.asrBackend = speech::AsrBackend::Dnn;
    std::vector<std::optional<SiriusPipeline>> pipelines(kSetupRepeats);
    std::vector<double> builds(kSetupRepeats);
    {
        std::vector<std::thread> threads;
        for (int r = 0; r < kSetupRepeats; ++r)
            threads.emplace_back([&, r] {
                Stopwatch watch;
                pipelines[r].emplace(SiriusPipeline::build(config));
                builds[r] = watch.seconds();
            });
        for (std::thread &t : threads)
            t.join();
    }
    pipelines.resize(1);
    const SiriusPipeline &pipeline = *pipelines.front();
    Stopwatch rest;
    auto frontend = makeFrontend<Frontend>(pipeline, cpus, false);
    const Reference ref = referencePass(pipeline, queries);
    Stopwatch warm;
    size_t warmMismatches = warmUp(*frontend, queries, ref, cpus);
    const double warmupSeconds = warm.seconds();
    const double setupSeconds = median(builds) + rest.seconds();

    const Phase plain = timedPhase(*frontend, opt, queries, ref, cpus);
    account(out, plain, "served");
    out.endToEnd = endToEnd(plain, queries, setupSeconds);

    std::string buildList;
    for (double b : builds)
        buildList += (buildList.empty() ? "" : ", ") + number(b);
    out.report.push_back(
        {"setup",
         format("{\"pipeline_build_s\": [%s], \"setup_s\": %s, "
                "\"warmup_s\": %s}",
                buildList.c_str(), number(setupSeconds).c_str(),
                number(warmupSeconds).c_str())});
    out.report.push_back({"untraced", phaseSummary(plain, queries)});

    if (opt.trace) {
        LayerContext ctx;
        ctx.queries = &queries;
        ctx.openLoop = opt.workload->openLoop;
        ctx.buildSeconds = median(builds);
        ctx.warmupSeconds = warmupSeconds;
        ctx.lateP99Seconds = plain.lateP99Seconds();
        ctx.untraced = &plain;
        ctx.heap = heapPerQuery(
            queries, [&](const Query &q) { frontend->handle(q); });
        const auto serialHeap = heapPerQuery(
            queries, [&](const Query &q) { pipeline.process(q); });
        out.report.push_back({"heap_served", heapJson(ctx.heap)});
        out.report.push_back({"heap_serial_pipeline", heapJson(serialHeap)});
        for (const Query &q : queries) {
            const speech::AsrService &asr = pipeline.asr();
            ctx.frames.push_back(asr.transcribe(asr.synthesize(q.text)).frames);
            ctx.keypoints.push_back(
                q.type == QueryType::VoiceImageQuery
                    ? pipeline.imm()
                          .match(vision::generateQueryView(q.landmarkId))
                          .queryKeypoints
                    : 0);
        }
        frontend.reset();

        auto traced = makeFrontend<Frontend>(pipeline, cpus, true);
        warmMismatches += warmUp(*traced, queries, ref, cpus);
        const Phase phase = timedPhase(*traced, opt, queries, ref, cpus);
        account(out, phase, "traced");
        std::set<uint64_t> warmIds;
        for (const SpanRecord &span : phase.before.spans)
            warmIds.insert(span.traceId);
        const TraceFacts facts = analyzeTraces(phase.after.spans, warmIds);
        out.layers = perLayer(phase, facts, ctx);
        out.report.push_back({"traced", phaseSummary(phase, queries)});

        if (phase.after.traceDropped != phase.before.traceDropped)
            finding(out, "trace ring dropped spans");
        if (facts.invalid != 0)
            finding(out, format("%zu traces have no root span",
                                facts.invalid));
        if (facts.traces < phase.sent())
            finding(out, format("%zu traces for %zu traced requests",
                                facts.traces, phase.sent()));
        if (facts.maxPartitionError > kPartitionTolerance)
            finding(out, format("critical-path segments miss their root "
                                "by %.3f us",
                                facts.maxPartitionError * 1e6));
    }
    if (warmMismatches != 0)
        finding(out, format("%zu warm-up responses differ from the serial "
                            "reference",
                            warmMismatches));
    return out;
}

// ---------------------------------------------------------------------
// Self-test and entry point

/**
 * Equal seeds give the identical arrival schedule and query picks;
 * different seeds (and different clients) do not.
 */
bool
selfTest()
{
    const size_t n = standardQuerySet().size();
    const double seconds = 8.0;
    auto schedule = [&](uint64_t seed) {
        return perfbench::openSchedule(seed, kOpenQps, seconds, kWindows,
                                       n);
    };
    auto dues = [&](uint64_t seed) {
        std::vector<double> out;
        for (const Arrival &a : schedule(seed))
            out.push_back(a.dueSeconds);
        return out;
    };
    auto openPicks = [&](uint64_t seed) {
        std::vector<size_t> out;
        for (const Arrival &a : schedule(seed))
            out.push_back(a.query);
        return out;
    };
    auto picks = [&](uint64_t seed, size_t client, double skew) {
        perfbench::PickStream stream =
            perfbench::clientPicks(seed, client, n, skew);
        std::vector<size_t> out(2000);
        for (size_t &pick : out)
            pick = stream.next();
        return out;
    };

    bool ok = true;
    auto expect = [&](bool cond, const char *what) {
        if (!cond)
            std::fprintf(stderr, "perfbench selftest: %s\n", what);
        ok = ok && cond;
    };
    const auto s1 = schedule(1);
    expect(s1 == schedule(1), "equal seeds give different schedules");
    expect(dues(1) != dues(2), "different seeds give equal arrival times");
    expect(openPicks(1) != openPicks(2),
           "different seeds give equal open-loop picks");
    expect(s1.size() == static_cast<size_t>(kOpenQps * seconds),
           "schedule size is not rate x seconds");
    expect(std::is_sorted(s1.begin(), s1.end(),
                          [](const Arrival &a, const Arrival &b) {
                              return a.dueSeconds < b.dueSeconds;
                          }) &&
               s1.front().dueSeconds >= 0.0 &&
               s1.back().dueSeconds < seconds,
           "schedule is not sorted within [0, seconds)");
    for (double skew : {0.0, kZipfSkew}) {
        const auto p = picks(1, 0, skew);
        expect(p == picks(1, 0, skew), "equal seeds give different picks");
        expect(p != picks(2, 0, skew), "different seeds give equal picks");
        expect(p != picks(1, 1, skew), "two clients share one pick stream");
        expect(*std::max_element(p.begin(), p.end()) < n,
               "pick outside the query set");
    }
    // Zipf(1) over the set: the most popular query takes ~23% of picks,
    // a uniform draw ~2.4%.
    const auto zipf = picks(1, 0, kZipfSkew);
    const auto top = std::count(zipf.begin(), zipf.end(), size_t{0});
    expect(top > 300 && top < 650, "Zipf picks are not skewed");
    return ok;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            for (const WorkloadSpec &spec : kWorkloads)
                if (value == spec.name)
                    opt.workload = &spec;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = !value.empty() && *end == '\0';
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = !value.empty() && *end == '\0' &&
                opt.seconds >= 1.0 && opt.seconds <= 60.0;
        } else if (key == "--trace") {
            haveTrace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (key == "--report") {
            opt.report = value;
        } else if (key == "--commit") {
            opt.commit = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && opt.workload != nullptr && haveSeed &&
        haveSeconds && haveTrace;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--selftest")
        return selfTest() ? 0 : 1;
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload open_mix|closed_mix|"
                     "closed_zipf_cluster --seed N --seconds S --trace 0|1 "
                     "[--report PATH] [--commit SHA]\n"
                     "       perfbench --selftest\n");
        return 2;
    }
    if (!selfTest())
        return 1;

    const Outcome out = opt.workload->cluster ? run<ClusterRouter>(opt)
                                              : run<ConcurrentServer>(opt);

    if (!opt.report.empty()) {
        std::string report = format(
            "{\"stamp\": {\"workload\": %s, \"seed\": %llu, "
            "\"seconds\": %s, \"trace\": %d, \"nproc\": %zu, "
            "\"cpu\": %s, \"simd\": %s, \"commit\": %s}",
            quoted(opt.workload->name).c_str(),
            static_cast<unsigned long long>(opt.seed),
            number(opt.seconds).c_str(), opt.trace ? 1 : 0, hostCpus(),
            quoted(cpuModel()).c_str(),
            quoted(simd::describeDispatch()).c_str(),
            quoted(opt.commit).c_str());
        std::string findings;
        for (const std::string &f : out.findings)
            findings += (findings.empty() ? "" : ", ") + quoted(f);
        report += ", \"findings\": [" + findings + "]";
        for (const auto &[key, json] : out.report)
            report += ", " + quoted(key) + ": " + json;
        report += ", \"end_to_end\": " + metricsJson(out.endToEnd);
        if (opt.trace)
            report += ", \"per_layer\": " + metricsJson(out.layers);
        report += "}\n";
        std::ofstream file(opt.report);
        file << report;
        if (!file) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.report.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                out.correct ? "true" : "false", out.attempted, out.failed,
                metricsJson(opt.trace ? out.layers : out.endToEnd).c_str());
    return 0;
}
