#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "base/error.hpp"

namespace koika::obs {

std::vector<double>
Histogram::default_bounds()
{
    return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)), counts(bounds.size() + 1, 0)
{
    KOIKA_CHECK(std::is_sorted(bounds.begin(), bounds.end()));
}

void
Histogram::observe(double value)
{
    size_t i = 0;
    while (i < bounds.size() && value > bounds[i])
        ++i;
    ++counts[i];
    ++total;
    sum += value;
}

void
MetricsRegistry::inc(const std::string& name, uint64_t delta)
{
    counters_[name] += delta;
}

uint64_t
MetricsRegistry::counter(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
MetricsRegistry::set_gauge(const std::string& name, double value)
{
    gauges_[name] = value;
}

double
MetricsRegistry::gauge(const std::string& name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

Histogram&
MetricsRegistry::define_histogram(const std::string& name,
                                  std::vector<double> bounds)
{
    return histograms_.insert_or_assign(name, Histogram(std::move(bounds)))
        .first->second;
}

void
MetricsRegistry::observe(const std::string& name, double value)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram()).first;
    it->second.observe(value);
}

const Histogram*
MetricsRegistry::histogram(const std::string& name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::merge_from(const MetricsRegistry& other)
{
    for (const auto& [name, value] : other.counters_)
        counters_[name] += value;
    for (const auto& [name, value] : other.gauges_)
        gauges_[name] = value;
    for (const auto& [name, h] : other.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, h);
            continue;
        }
        Histogram& mine = it->second;
        KOIKA_CHECK(mine.bounds == h.bounds);
        for (size_t i = 0; i < mine.counts.size(); ++i)
            mine.counts[i] += h.counts[i];
        mine.total += h.total;
        mine.sum += h.sum;
    }
}

Json
MetricsRegistry::to_json() const
{
    Json root = Json::object();
    Json counters = Json::object();
    for (const auto& [name, value] : counters_)
        counters[name] = Json(value);
    root["counters"] = std::move(counters);
    Json gauges = Json::object();
    for (const auto& [name, value] : gauges_)
        gauges[name] = Json(value);
    root["gauges"] = std::move(gauges);
    Json histograms = Json::object();
    for (const auto& [name, h] : histograms_) {
        Json hj = Json::object();
        Json bounds = Json::array();
        for (double b : h.bounds)
            bounds.push_back(Json(b));
        Json counts = Json::array();
        for (uint64_t c : h.counts)
            counts.push_back(Json(c));
        hj["bounds"] = std::move(bounds);
        hj["counts"] = std::move(counts);
        hj["total"] = Json(h.total);
        hj["sum"] = Json(h.sum);
        histograms[name] = std::move(hj);
    }
    root["histograms"] = std::move(histograms);
    return root;
}

MetricsRegistry
MetricsRegistry::from_json(const Json& j)
{
    MetricsRegistry reg;
    if (const Json* counters = j.find("counters"))
        for (const auto& [name, v] : counters->items())
            reg.counters_[name] = v.as_u64();
    if (const Json* gauges = j.find("gauges"))
        for (const auto& [name, v] : gauges->items())
            reg.gauges_[name] = v.as_double();
    if (const Json* histograms = j.find("histograms")) {
        for (const auto& [name, hj] : histograms->items()) {
            const Json* bounds = hj.find("bounds");
            const Json* counts = hj.find("counts");
            KOIKA_CHECK(bounds != nullptr && counts != nullptr);
            std::vector<double> bs;
            for (size_t i = 0; i < bounds->size(); ++i)
                bs.push_back(bounds->at(i).as_double());
            Histogram h(std::move(bs));
            KOIKA_CHECK(counts->size() == h.counts.size());
            for (size_t i = 0; i < counts->size(); ++i)
                h.counts[i] = counts->at(i).as_u64();
            if (const Json* total = hj.find("total"))
                h.total = total->as_u64();
            if (const Json* sum = hj.find("sum"))
                h.sum = sum->as_double();
            reg.histograms_.insert_or_assign(name, std::move(h));
        }
    }
    return reg;
}

std::string
MetricsRegistry::to_text() const
{
    size_t width = 0;
    for (const auto& [name, _] : counters_)
        width = std::max(width, name.size());
    for (const auto& [name, _] : gauges_)
        width = std::max(width, name.size());
    for (const auto& [name, _] : histograms_)
        width = std::max(width, name.size());

    std::string out;
    char buf[128];
    for (const auto& [name, value] : counters_) {
        std::snprintf(buf, sizeof buf, "%-*s %llu\n", (int)width,
                      name.c_str(), (unsigned long long)value);
        out += buf;
    }
    for (const auto& [name, value] : gauges_) {
        std::snprintf(buf, sizeof buf, "%-*s %.6g\n", (int)width,
                      name.c_str(), value);
        out += buf;
    }
    for (const auto& [name, h] : histograms_) {
        std::snprintf(buf, sizeof buf, "%-*s total=%llu mean=%.3g [",
                      (int)width, name.c_str(),
                      (unsigned long long)h.total, h.mean());
        out += buf;
        for (size_t i = 0; i < h.counts.size(); ++i) {
            if (i)
                out += ' ';
            std::snprintf(buf, sizeof buf, "%llu",
                          (unsigned long long)h.counts[i]);
            out += buf;
        }
        out += "]\n";
    }
    return out;
}

Json
metrics_artifact(const std::string& design, const std::string& engine,
                 const MetricsRegistry& metrics)
{
    Json root = Json::object();
    root["schema"] = kMetricsSchema;
    root["design"] = design;
    root["engine"] = engine;
    root["metrics"] = metrics.to_json();
    return root;
}

} // namespace koika::obs
