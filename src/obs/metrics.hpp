/**
 * @file
 * MetricsRegistry: named counters, gauges, and histograms with JSON and
 * human-text exporters.
 *
 * This is the common substrate the simulation engines, benches, and the
 * cuttlec driver report through (the "coverage as statistics" story of
 * the paper's case study 4, generalized). Names are flat strings; the
 * convention used throughout the repo is a '/'-separated path, e.g.
 * `fig1/rv32i-primes/cuttlesim/rule/decode/commits`.
 *
 * The registry is deliberately not thread-safe: every engine in this
 * repository is single-threaded, and keeping the increment path a plain
 * map lookup keeps the instrumentation overhead story honest. Parallel
 * work uses one private registry per worker and folds the shards
 * together with merge_from() at join (src/harness/parallel.hpp).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace koika::obs {

/** Fixed-bucket histogram (cumulative-free, prometheus-style bounds). */
struct Histogram
{
    /** Upper bounds of the first bounds.size() buckets; one overflow
     *  bucket follows. */
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    double sum = 0;

    explicit Histogram(std::vector<double> bucket_bounds = default_bounds());

    void observe(double value);
    double mean() const { return total ? sum / (double)total : 0.0; }

    static std::vector<double> default_bounds();
};

class MetricsRegistry
{
  public:
    // -- Counters (monotonic integers) --------------------------------------
    void inc(const std::string& name, uint64_t delta = 1);
    uint64_t counter(const std::string& name) const;

    // -- Gauges (last-written doubles) --------------------------------------
    void set_gauge(const std::string& name, double value);
    double gauge(const std::string& name) const;

    // -- Histograms ---------------------------------------------------------
    /** Create (or re-bucket) a histogram with explicit bounds. */
    Histogram& define_histogram(const std::string& name,
                                std::vector<double> bounds);
    /** Record an observation, creating a default-bucket histogram. */
    void observe(const std::string& name, double value);
    const Histogram* histogram(const std::string& name) const;

    bool empty() const
    {
        return counters_.empty() && gauges_.empty() && histograms_.empty();
    }

    const std::map<std::string, uint64_t>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, double>& gauges() const { return gauges_; }
    const std::map<std::string, Histogram>& histograms() const
    {
        return histograms_;
    }

    // -- Merging ------------------------------------------------------------
    /**
     * Fold `other` into this registry: counters add, gauges take the
     * other side's value, histogram bucket counts add (the bounds must
     * agree when both sides define the same histogram). This is the
     * join step of the parallel harness (src/harness/parallel.hpp):
     * each worker fills a private registry and the shards are merged in
     * worker order, so the result is deterministic.
     */
    void merge_from(const MetricsRegistry& other);

    // -- Exporters ----------------------------------------------------------
    /** {"counters":{...},"gauges":{...},"histograms":{...}} */
    Json to_json() const;
    /** One metric per line, aligned, for terminal output. */
    std::string to_text() const;
    /** Inverse of to_json (the round-trip contract, tested). */
    static MetricsRegistry from_json(const Json& j);

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
};

/** Schema tag of the standalone metrics artifact. */
inline constexpr const char* kMetricsSchema = "cuttlesim-metrics-v1";

/**
 * The standalone cuttlesim-metrics-v1 artifact written by
 * `cuttlec --metrics=FILE`: the full registry of a run plus the
 * design/engine identity (either may be empty for modes without one,
 * e.g. --list).
 */
Json metrics_artifact(const std::string& design, const std::string& engine,
                      const MetricsRegistry& metrics);

} // namespace koika::obs
