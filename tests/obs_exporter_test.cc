/**
 * @file
 * Conformance and determinism tests of the live telemetry plane:
 * Prometheus text-exposition rendering (HELP/TYPE lines, label
 * escaping, cumulative histogram buckets, quantile gauges), the
 * snapshot hub's immutability, the /healthz staleness verdict, the
 * embedded HTTP server's endpoint/error contract, and the two
 * result-identity guarantees — the grid publishes the same final
 * snapshot at any job count, and attaching a hub to a run leaves its
 * checkpoint bytes and metrics JSON untouched.
 */
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exporter/http_server.h"
#include "obs/exporter/telemetry.h"
#include "obs/registry.h"
#include "perf/grid.h"
#include "recovery/shard.h"
#include "ssd/presets.h"
#include "workload/snia_synth.h"

namespace ssdcheck::obs {
namespace {

TEST(Exposition, EscapeLabelValue)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(escapeLabelValue("line\nbreak"), "line\\nbreak");
}

/** A small registry exercising all three metric types. */
void
fillRegistry(Registry *reg)
{
    reg->counter("requests_total", {{"device", "A"}}).inc(3);
    reg->gauge("queue_depth").set(-2);
    Histogram h = reg->histogram("latency_ns", {100, 200});
    h.observe(50);
    h.observe(150);
    h.observe(1000);
}

TEST(Exposition, RenderPrometheusConformance)
{
    Registry reg;
    fillRegistry(&reg);
    TelemetryHub hub;
    hub.publish(reg, RunStatus{});
    const auto snap = hub.snapshot();
    ASSERT_NE(snap, nullptr);
    const std::string text = renderPrometheus(*snap);

    // Counter family with HELP/TYPE and an escaped-safe label block.
    EXPECT_NE(text.find("# HELP ssdcheck_requests_total"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ssdcheck_requests_total counter\n"
                        "ssdcheck_requests_total{device=\"A\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ssdcheck_queue_depth gauge\n"
                        "ssdcheck_queue_depth -2\n"),
              std::string::npos);

    // Histogram: cumulative buckets, +Inf equals _count, sum exact.
    EXPECT_NE(text.find("# TYPE ssdcheck_latency_ns histogram"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_bucket{le=\"100\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_bucket{le=\"200\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_sum 1200\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_count 3\n"),
              std::string::npos);

    // Quantile gauges match the shared interpolation helper exactly.
    const MetricSnapshot *hist = nullptr;
    for (const MetricSnapshot &m : snap->metrics)
        if (m.name == "latency_ns")
            hist = &m;
    ASSERT_NE(hist, nullptr);
    EXPECT_NE(text.find("# TYPE ssdcheck_latency_ns_p50 gauge\n"
                        "ssdcheck_latency_ns_p50 " +
                        std::to_string(histogramQuantile(hist->hist, 500)) +
                        "\n"),
              std::string::npos);
    EXPECT_NE(text.find("ssdcheck_latency_ns_p999 " +
                        std::to_string(histogramQuantile(hist->hist, 999)) +
                        "\n"),
              std::string::npos);
}

TEST(Exposition, ByteStableAcrossRepeatPublishes)
{
    Registry reg;
    fillRegistry(&reg);
    TelemetryHub hub;
    hub.publish(reg, RunStatus{});
    const std::string first = renderPrometheus(*hub.snapshot());
    hub.publish(reg, RunStatus{});
    const std::string second = renderPrometheus(*hub.snapshot());
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, renderPrometheus(*hub.snapshot()));
}

TEST(TelemetryHubTest, SnapshotIsAnImmutableDeepCopy)
{
    TelemetryHub hub;
    EXPECT_EQ(hub.snapshot(), nullptr);
    EXPECT_EQ(hub.sequence(), 0u);

    Registry reg;
    Counter c = reg.counter("reqs");
    c.inc(5);
    RunStatus st;
    st.phase = "run";
    hub.publish(reg, st);
    const auto snap = hub.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->sequence, 1u);

    // Mutating the live registry must not leak into the snapshot.
    c.inc(100);
    ASSERT_EQ(snap->metrics.size(), 1u);
    EXPECT_EQ(snap->metrics[0].value, 5);

    hub.publish(reg, st);
    EXPECT_EQ(hub.sequence(), 2u);
    EXPECT_EQ(hub.snapshot()->metrics[0].value, 105);
    // The earlier shared_ptr still reads the old values.
    EXPECT_EQ(snap->metrics[0].value, 5);
}

TEST(TelemetryHubTest, RenderRunzCarriesRunStatus)
{
    Registry reg;
    fillRegistry(&reg);
    TelemetryHub hub;
    RunStatus st;
    st.phase = "chaos";
    st.cursor = 42;
    st.totalRequests = 100;
    st.simTimeNs = 777;
    st.breakerState = 2;
    st.shedTotal = 9;
    st.healthy = false;
    hub.publish(reg, st);
    const std::string json = renderRunz(*hub.snapshot());
    EXPECT_NE(json.find("\"sequence\":1"), std::string::npos);
    EXPECT_NE(json.find("\"phase\":\"chaos\""), std::string::npos);
    EXPECT_NE(json.find("\"cursor\":42"), std::string::npos);
    EXPECT_NE(json.find("\"total_requests\":100"), std::string::npos);
    EXPECT_NE(json.find("\"sim_time_ns\":777"), std::string::npos);
    EXPECT_NE(json.find("\"breaker_state\":2"), std::string::npos);
    EXPECT_NE(json.find("\"shed_total\":9"), std::string::npos);
    EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\":3"), std::string::npos);
}

TEST(HealthzTest, VerdictCoversMissingStaleAndUnhealthy)
{
    std::string body;
    EXPECT_FALSE(renderHealthz(nullptr, 1000, 100, &body));
    EXPECT_NE(body.find("no snapshot published"), std::string::npos);

    TelemetrySnapshot snap;
    snap.wallNs = 1000;
    snap.run.healthy = true;
    EXPECT_TRUE(renderHealthz(&snap, 1050, 100, &body));
    EXPECT_NE(body.find("\"healthy\":true"), std::string::npos);

    // Stale: age 200ns against a 100ns budget.
    EXPECT_FALSE(renderHealthz(&snap, 1200, 100, &body));
    EXPECT_NE(body.find("\"healthy\":false"), std::string::npos);

    // Fresh but the publisher itself reported unhealthy.
    snap.run.healthy = false;
    EXPECT_FALSE(renderHealthz(&snap, 1050, 100, &body));
    EXPECT_NE(body.find("\"run_healthy\":false"), std::string::npos);
}

/** Small two-shard grid (mirrors perf_grid_test's smallSpec). */
perf::GridSpec
smallSpec()
{
    perf::GridSpec s;
    s.models = {ssd::SsdModel::A, ssd::SsdModel::D};
    s.workloads = {workload::SniaWorkload::TPCE};
    s.scale = 0.005;
    return s;
}

TEST(GridTelemetryTest, FinalSnapshotIdenticalAtAnyJobCount)
{
    perf::GridSpec spec = smallSpec();
    TelemetryHub serialHub;
    spec.telemetry = &serialHub;
    const perf::GridResult serial = perf::runGrid(spec, 1);
    TelemetryHub parallelHub;
    spec.telemetry = &parallelHub;
    const perf::GridResult parallel = perf::runGrid(spec, 4);

    const auto a = serialHub.snapshot();
    const auto b = parallelHub.snapshot();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->run.phase, "done");
    // One publish per shard plus the final one, in both runs.
    EXPECT_EQ(a->sequence, 3u);
    EXPECT_EQ(b->sequence, 3u);
    EXPECT_EQ(renderPrometheus(*a), renderPrometheus(*b));
    EXPECT_EQ(renderRunz(*a), renderRunz(*b));

    // Attaching a hub never changes cell results.
    spec.telemetry = nullptr;
    const perf::GridResult plain = perf::runGrid(spec, 2);
    ASSERT_EQ(plain.cells.size(), serial.cells.size());
    for (size_t i = 0; i < plain.cells.size(); ++i) {
        EXPECT_EQ(plain.cells[i].requests, serial.cells[i].requests);
        EXPECT_EQ(plain.cells[i].simEnd, serial.cells[i].simEnd);
        EXPECT_EQ(plain.cells[i].accuracy.hlCorrect,
                  serial.cells[i].accuracy.hlCorrect);
    }
}

/** Raw HTTP exchange for request shapes httpGet cannot produce. */
std::string
rawExchange(uint16_t port, const std::string &request)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return std::string();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                sizeof addr) != 0) {
        close(fd);
        return std::string();
    }
    (void)!write(fd, request.data(), request.size());
    std::string out;
    char buf[1024];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0)
        out.append(buf, static_cast<size_t>(n));
    close(fd);
    return out;
}

TEST(HttpServerTest, EndpointAndErrorContract)
{
    TelemetryHub hub;
    HttpServer srv(hub);
    std::string err;
    ASSERT_TRUE(srv.start(0, &err)) << err;
    ASSERT_NE(srv.port(), 0);

    // Before the first publish every data endpoint answers 503.
    int status = 0;
    std::string body;
    ASSERT_TRUE(httpGet(srv.port(), "/metrics", &status, &body));
    EXPECT_EQ(status, 503);
    ASSERT_TRUE(httpGet(srv.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 503);

    Registry reg;
    fillRegistry(&reg);
    RunStatus st;
    st.phase = "run";
    hub.publish(reg, st);

    ASSERT_TRUE(httpGet(srv.port(), "/metrics", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("ssdcheck_requests_total{device=\"A\"} 3"),
              std::string::npos);
    EXPECT_EQ(body, renderPrometheus(*hub.snapshot()));

    ASSERT_TRUE(httpGet(srv.port(), "/runz", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"phase\":\"run\""), std::string::npos);

    srv.setStaleNs(10u * 1000 * 1000 * 1000);
    ASSERT_TRUE(httpGet(srv.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 200);
    // Shrink the staleness budget to 1ns: the snapshot is now stale.
    srv.setStaleNs(1);
    usleep(2000);
    ASSERT_TRUE(httpGet(srv.port(), "/healthz", &status, &body));
    EXPECT_EQ(status, 503);
    EXPECT_NE(body.find("\"healthy\":false"), std::string::npos);

    ASSERT_TRUE(httpGet(srv.port(), "/nope", &status, &body));
    EXPECT_EQ(status, 404);

    const std::string post =
        rawExchange(srv.port(), "POST /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(post.find("405"), std::string::npos);
    const std::string malformed =
        rawExchange(srv.port(), "complete garbage\r\n\r\n");
    EXPECT_NE(malformed.find("400 Bad Request"), std::string::npos);

    srv.stop();
}

TEST(HttpServerTest, AttachingTheExporterDoesNotPerturbARun)
{
    recovery::RunParams params;
    params.scale = 0.01;
    params.faults = "hostile";
    std::string err;
    auto plain = recovery::createRun(params, false, &err);
    ASSERT_NE(plain, nullptr) << err;
    auto scraped = recovery::createRun(params, false, &err);
    ASSERT_NE(scraped, nullptr) << err;

    TelemetryHub hub;
    HttpServer srv(hub);
    ASSERT_TRUE(srv.start(0, &err)) << err;

    // One run publishes and is scraped mid-flight; the other runs
    // bare. Their final checkpoint bytes and metrics JSON must match
    // bit for bit.
    uint64_t steps = 0;
    while (!scraped->done()) {
        (void)scraped->step();
        if (++steps % 256 == 0) {
            RunStatus st;
            st.phase = "run";
            st.cursor = scraped->cursor();
            hub.publish(scraped->registry(), st);
            int status = 0;
            std::string body;
            ASSERT_TRUE(
                httpGet(srv.port(), "/metrics", &status, &body));
            EXPECT_EQ(status, 200);
        }
    }
    srv.stop();
    while (!plain->done())
        (void)plain->step();

    EXPECT_EQ(plain->checkpoint().serialize(),
              scraped->checkpoint().serialize());
    EXPECT_EQ(plain->metricsJson(), scraped->metricsJson());
}

} // namespace
} // namespace ssdcheck::obs
