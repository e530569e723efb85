#include "perf/grid.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/diagnosis.h"
#include "core/ssdcheck.h"
#include "obs/exporter/telemetry.h"
#include "perf/thread_pool.h"
#include "recovery/shard.h"
#include "ssd/ssd_device.h"

namespace ssdcheck::perf {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

GridSpec
GridSpec::fig11(double scale)
{
    GridSpec s;
    s.models = ssd::allModels();
    s.workloads = workload::allSniaWorkloads();
    s.scale = scale;
    return s;
}

uint64_t
BatchTiming::simulatedIos() const
{
    uint64_t total = 0;
    for (const auto &t : tasks)
        total += t.simulatedIos;
    return total;
}

double
BatchTiming::iosPerSec() const
{
    return wallSeconds > 0
               ? static_cast<double>(simulatedIos()) / wallSeconds
               : 0.0;
}

double
BatchTiming::taskWallSum() const
{
    double sum = 0;
    for (const auto &t : tasks)
        sum += t.wallSeconds;
    return sum;
}

double
BatchTiming::aggregateSpeedup() const
{
    return wallSeconds > 0 ? taskWallSum() / wallSeconds : 1.0;
}

BatchTiming
runTimedBatch(
    const std::vector<std::pair<std::string, std::function<uint64_t()>>>
        &tasks,
    unsigned jobs)
{
    BatchTiming out;
    out.jobs = jobs == 0 ? 1 : jobs;
    out.tasks.resize(tasks.size());
    const auto batchStart = std::chrono::steady_clock::now();
    {
        ThreadPool pool(ThreadPool::workersFor(out.jobs, tasks.size()));
        out.workerThreads = pool.threads();
        parallelFor(pool, tasks.size(), [&](size_t i) {
            const auto t0 = std::chrono::steady_clock::now();
            const uint64_t ios = tasks[i].second();
            out.tasks[i] =
                TaskTiming{tasks[i].first, secondsSince(t0), ios};
        });
    }
    out.wallSeconds = secondsSince(batchStart);
    return out;
}

GridResult
runGrid(const GridSpec &spec, unsigned jobs)
{
    GridResult out;
    // One shard per (model, seed): the device plus its diagnosis are
    // the expensive shared setup, and carrying one SSDcheck instance
    // across the workloads is the Fig. 11 protocol.
    struct Shard
    {
        ssd::SsdModel model;
        uint64_t seed;
    };
    std::vector<Shard> shards;
    for (const auto m : spec.models)
        for (const auto s : spec.seeds)
            shards.push_back(Shard{m, s});

    // Pre-sized so shard tasks write disjoint slots without locking.
    std::vector<std::vector<GridCell>> cellsByShard(shards.size());

    // Live-progress state shared by shard tasks when a telemetry hub
    // is attached. One mutex guards both the counters and the publish,
    // so concurrent shard completions publish consistent snapshots.
    struct GridProgress
    {
        std::mutex mu;
        obs::Registry reg;
        uint64_t shardsDone = 0;
        uint64_t requestsDone = 0;
    };
    std::unique_ptr<GridProgress> progress;
    if (spec.telemetry != nullptr) {
        progress = std::make_unique<GridProgress>();
        progress->reg.exportCounter("grid_shards_done", {},
                                    &progress->shardsDone);
        progress->reg.exportCounter("grid_requests_done", {},
                                    &progress->requestsDone);
    }
    GridProgress *prog = progress.get();
    const uint64_t shardCount = shards.size();

    std::vector<std::pair<std::string, std::function<uint64_t()>>> tasks;
    tasks.reserve(shards.size());
    for (size_t i = 0; i < shards.size(); ++i) {
        const Shard sh = shards[i];
        std::string label = ssd::toString(sh.model);
        if (spec.seeds.size() > 1 || sh.seed != 0)
            label += "/seed" + std::to_string(sh.seed);
        tasks.emplace_back(label, [&spec, sh, i, &cellsByShard, prog,
                                   shardCount]() {
            auto dev = std::make_unique<ssd::SsdDevice>(
                ssd::makePreset(sh.model, sh.seed));
            core::DiagnosisRunner runner(*dev, core::DiagnosisConfig{});
            const core::FeatureSet features = runner.extractFeatures();
            core::SsdCheck check(features);
            sim::SimTime now = runner.now();
            uint64_t ios = 0;
            auto &cells = cellsByShard[i];
            cells.reserve(spec.workloads.size());
            for (const auto w : spec.workloads) {
                const auto trace = workload::buildSniaTrace(
                    w, dev->capacityPages(), spec.scale,
                    spec.traceSeedBase + static_cast<uint64_t>(w));
                sim::SimTime end = now;
                GridCell cell;
                cell.model = sh.model;
                cell.workload = w;
                cell.seed = sh.seed;
                cell.accuracy = recovery::evaluatePredictionAccuracy(
                    *dev, check, trace, now, &end);
                cell.requests = trace.size();
                cell.simEnd = end;
                now = end + spec.interWorkloadGap;
                ios += trace.size();
                cells.push_back(cell);
            }
            if (prog != nullptr) {
                const std::lock_guard<std::mutex> lk(prog->mu);
                prog->shardsDone += 1;
                prog->requestsDone += ios;
                obs::RunStatus st;
                st.phase = "grid";
                st.cursor = prog->shardsDone;
                st.totalRequests = shardCount;
                spec.telemetry->publish(prog->reg, st);
            }
            return ios;
        });
    }

    out.timing = runTimedBatch(tasks, jobs);

    // Merge in grid order — independent of scheduling.
    for (auto &shardCells : cellsByShard)
        for (auto &c : shardCells)
            out.cells.push_back(c);

    // Deterministic final publish: all shards merged, cursor = total.
    if (prog != nullptr) {
        const std::lock_guard<std::mutex> lk(prog->mu);
        obs::RunStatus st;
        st.phase = "done";
        st.cursor = prog->shardsDone;
        st.totalRequests = shardCount;
        st.simTimeNs =
            out.cells.empty() ? 0 : out.cells.back().simEnd.ns();
        spec.telemetry->publish(prog->reg, st);
    }
    return out;
}

bool
writeBenchGridJson(const std::string &path, const std::string &name,
                   const BatchTiming &timing)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::ostringstream body;
    body.precision(6);
    body << std::fixed;
    body << "{\n";
    body << "  \"name\": \"" << name << "\",\n";
    body << "  \"jobs\": " << timing.jobs << ",\n";
    body << "  \"worker_threads\": " << timing.workerThreads << ",\n";
    body << "  \"wall_seconds\": " << timing.wallSeconds << ",\n";
    body << "  \"task_wall_sum_seconds\": " << timing.taskWallSum()
         << ",\n";
    body << "  \"aggregate_speedup\": " << timing.aggregateSpeedup()
         << ",\n";
    body << "  \"simulated_ios\": " << timing.simulatedIos() << ",\n";
    body << "  \"ios_per_sec\": " << timing.iosPerSec() << ",\n";
    body << "  \"tasks\": [\n";
    for (size_t i = 0; i < timing.tasks.size(); ++i) {
        const TaskTiming &t = timing.tasks[i];
        body << "    {\"label\": \"" << t.label
             << "\", \"wall_seconds\": " << t.wallSeconds
             << ", \"simulated_ios\": " << t.simulatedIos
             << ", \"ios_per_sec\": " << t.iosPerSec() << "}"
             << (i + 1 < timing.tasks.size() ? "," : "") << "\n";
    }
    body << "  ]\n}\n";
    os << body.str();
    return static_cast<bool>(os);
}

std::optional<double>
readBaselineIosPerSec(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return std::nullopt;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    // The writer emits the aggregate "ios_per_sec" before the
    // per-task entries, so the first occurrence is the right one.
    const size_t key = text.find("\"ios_per_sec\"");
    if (key == std::string::npos)
        return std::nullopt;
    const size_t colon = text.find(':', key);
    if (colon == std::string::npos)
        return std::nullopt;
    double value = 0;
    try {
        value = std::stod(text.substr(colon + 1));
    } catch (...) {
        return std::nullopt;
    }
    if (!std::isfinite(value) || value <= 0)
        return std::nullopt;
    return value;
}

} // namespace ssdcheck::perf
