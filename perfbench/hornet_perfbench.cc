/**
 * @file
 * Measurement core of the repository benchmark (see README.md beside
 * this file; run.py is the entry point that builds and drives it).
 *
 * One invocation runs one workload for one seed in this process:
 *
 *   hornet_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * It builds the workload through the public API of traffic, net, sim
 * and mips, times every call into those layers from here (never from
 * inside the library), checks every simulated run, and prints one
 * JSON object as the last line of stdout: the raw metric values, the
 * attempted/failed run counts and every run's stats fingerprint.
 * Units and the split into end-to-end and per-layer metrics live in
 * BENCHMARK.json, which run.py applies.
 *
 * With --trace 1 the calls are also recorded as spans (name, start,
 * end, parent) kept in memory and written to --trace-out when the run
 * ends; traced and untraced iterations alternate so the tracing
 * overhead is measured in the same process.
 */
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "mips/core.h"
#include "net/routing/builders.h"
#include "net/topology.h"
#include "sim/barrier.h"
#include "sim/system.h"
#include "traffic/flows.h"
#include "traffic/patterns.h"
#include "traffic/synthetic.h"
#include "workloads/programs.h"

using namespace hornet;

namespace {

using Clock = std::chrono::steady_clock;

/** One workload: every parameter the simulated result depends on. */
struct Workload
{
    const char *name;
    bool mips;           ///< MIPS machine instead of synthetic traffic
    std::uint32_t side;  ///< mesh is side x side
    const char *pattern; ///< synthetic destination pattern
    double rate;         ///< offered flits/node/cycle
    Cycle cycles;        ///< horizon (MIPS: cycle limit)
};

// Why each workload exists is recorded in README.md ("Workloads").
const Workload kWorkloads[] = {
    {"mesh32_shuffle_t1", false, 32, "shuffle", 0.02, 20000},
    {"mesh16_uniform_saturated", false, 16, "uniform", 0.3, 8000},
    {"mips_blackscholes_8x8", true, 8, "", 0.0, 2000000},
};

constexpr std::uint32_t kPacketFlits = 8;
/** Timed runs use one thread. Traced runs add kParallelRuns lockstep
 *  runs on kParallelThreads threads for the shard-overhead metrics; a
 *  timed 4-thread workload was too noisy on a 4-core host to gate on
 *  (README.md, "Why these sizes"). */
constexpr unsigned kParallelThreads = 4;
constexpr unsigned kParallelRuns = 3;
constexpr std::uint32_t kBsOptions = 256;
constexpr std::uint32_t kBsRounds = 12;
/** Lower limit on timed runs per process, whatever --seconds says. */
constexpr unsigned kMinRuns = 3;
/** Set-ups need more samples than the run loop yields: after each
 *  timed run, the system is built and dropped up to this many more
 *  times while those extra set-ups take under kExtraSetupShare of the
 *  loop so far. They are spread over the whole timed loop, not taken
 *  in one burst, so the set-up median sees the same host conditions
 *  as the runs. */
constexpr unsigned kExtraSetupsPerRun = 3;
constexpr double kExtraSetupShare = 0.2;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "hornet_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

double
since(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Times calls into the library from the benchmark side. Durations are
 * always measured (the end-to-end metrics need them); spans are kept
 * only while recording is on.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        double start_s;
        double end_s;
    };

    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    void set_recording(bool on) { recording_ = on; }

    /** Run @p fn as span @p name (child of the innermost open span);
     *  return its duration in seconds. */
    template <typename Fn>
    double
    span(const char *name, Fn &&fn)
    {
        int id = -1;
        if (recording_) {
            id = static_cast<int>(spans_.size());
            spans_.push_back({name, open_.empty() ? -1 : open_.back(), 0, 0});
            open_.push_back(id);
        }
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        if (id >= 0) {
            open_.pop_back();
            spans_[id].start_s = since(epoch_, t0);
            spans_[id].end_s = since(epoch_, t1);
        }
        return since(t0, t1);
    }

    /** Write every recorded span as JSON to @p path. */
    void
    write(const std::string &path, const char *workload,
          std::uint64_t seed) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            die("cannot write trace file " + path);
        std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                     workload, static_cast<unsigned long long>(seed));
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n {\"id\": %zu, \"name\": \"%s\", "
                         "\"parent\": %d, \"start_s\": %.9f, "
                         "\"end_s\": %.9f}",
                         i ? "," : "", i, s.name.c_str(), s.parent,
                         s.start_s, s.end_s);
        }
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0)
            die("cannot write trace file " + path);
    }

  private:
    Clock::time_point epoch_;
    bool recording_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Per-name span durations of one iteration, summed. */
using SpanTimes = std::map<std::string, double>;

/** A built, not yet run, simulated system. */
struct Built
{
    std::unique_ptr<sim::System> sys;           // synthetic workloads
    std::unique_ptr<mips::MipsMachine> machine; // MIPS workload
    sim::System &system() { return machine ? machine->system() : *sys; }
};

class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed)
        : w_(w), seed_(seed), tracer_(Clock::now())
    {
        if (w_.mips)
            program_ = workloads::blackscholes_program(kBsOptions, kBsRounds);
    }

    Tracer &tracer() { return tracer_; }

    /** Build the workload's system up to the first simulated cycle,
     *  with @p groups construction arenas (one per run thread). */
    Built
    setup(SpanTimes *times, unsigned groups = 1)
    {
        Built b;
        auto timed = [&](const char *name, auto &&fn) {
            return time_call(name, times, fn);
        };
        timed("bench.setup", [&] {
            if (w_.mips) {
                timed("mips.machine_ctor", [&] {
                    b.machine = std::make_unique<mips::MipsMachine>(
                        net::Topology::mesh2d(w_.side, w_.side),
                        machine_config());
                });
            } else {
                std::unique_ptr<net::Topology> topo;
                timed("net.topology", [&] {
                    topo = std::make_unique<net::Topology>(
                        net::Topology::mesh2d(w_.side, w_.side));
                });
                const std::uint32_t n = topo->num_nodes();
                traffic::Pattern pattern;
                std::vector<net::FlowSpec> flows;
                timed("traffic.flows", [&] {
                    pattern = traffic::pattern_by_name(w_.pattern, n);
                    flows = std::strcmp(w_.pattern, "uniform") == 0
                                ? traffic::flows_all_pairs(n)
                                : traffic::flows_for_pattern(n, pattern);
                });
                sim::SystemLayout layout;
                layout.placement_groups = groups;
                layout.pin = common::PinMode::Compact;
                timed("sim.system_ctor", [&] {
                    b.sys = std::make_unique<sim::System>(
                        *topo, net::NetworkConfig{}, seed_, layout);
                });
                timed("net.routing_build", [&] {
                    net::routing::build_xy(b.sys->network(), flows);
                });
                timed("traffic.frontend_attach", [&] {
                    for (NodeId i = 0; i < n; ++i) {
                        traffic::SyntheticConfig sc;
                        sc.pattern = pattern;
                        sc.packet_size = kPacketFlits;
                        sc.rate = w_.rate;
                        b.sys->add_frontend(
                            i, std::make_unique<traffic::SyntheticInjector>(
                                   b.sys->tile(i), sc));
                    }
                });
            }
            timed("sim.freeze", [&] { b.system().freeze_tables(); });
        });
        return b;
    }

    /** Every knob of the run, set explicitly: nothing is inherited
     *  from the environment (HORNET_SCHEDULE) or the host. */
    sim::RunOptions
    run_options(const char *schedule, unsigned threads) const
    {
        sim::RunOptions ro;
        ro.max_cycles = w_.cycles;
        ro.threads = threads;
        ro.sync = "cycle-accurate";
        ro.sync_period = 1;
        ro.schedule = schedule;
        ro.pin = "compact";
        ro.fast_forward = false;
        ro.batch_handoff = false;
        ro.stop_when_done = w_.mips;
        return ro;
    }

    /** Outcome of one simulated run. */
    struct Run
    {
        double run_s = 0.0;
        Cycle end_cycle = 0;
        SystemStats stats;
        std::uint64_t fingerprint = 0;
        bool ok = false;
        std::string why; ///< failure reason when !ok
    };

    /** Run @p b under @p ro, collect its stats and check its output. */
    Run
    run(Built &b, const sim::RunOptions &ro, SpanTimes *times)
    {
        Run r;
        auto timed = [&](const char *name, auto &&fn) {
            return time_call(name, times, fn);
        };
        sim::System &sys = b.system();
        timed("bench.run", [&] {
            r.run_s = timed("sim.run", [&] { r.end_cycle = sys.run(ro); });
            timed("sim.collect_stats", [&] { r.stats = sys.collect_stats(); });
            timed("common.stats_fingerprint",
                  [&] { r.fingerprint = stats_fingerprint(r.stats); });
        });
        if (b.machine)
            check_mips(*b.machine, r);
        else if (reference_ != 0)
            check_fingerprint(r);
        return r;
    }

    /** 1-thread poll run of a fresh system: the oracle every
     *  synthetic run's fingerprint must equal. Not part of any metric;
     *  call before tracing starts. */
    void
    make_reference()
    {
        if (w_.mips)
            return;
        Built b = setup(nullptr);
        const Run r = run(b, run_options("poll", 1), nullptr);
        reference_ = r.fingerprint;
        reference_s_ = r.run_s;
    }

    std::uint64_t reference() const { return reference_; }
    double reference_s() const { return reference_s_; }

  private:
    mips::MipsMachineConfig
    machine_config() const
    {
        mips::MipsMachineConfig cfg;
        cfg.program = program_;
        cfg.mem.mc_nodes = {0, w_.side * w_.side - 1};
        cfg.mem.dram_latency = 40;
        cfg.seed = seed_;
        return cfg;
    }

    /** Time @p fn as span @p name, adding its duration to @p times. */
    template <typename Fn>
    double
    time_call(const char *name, SpanTimes *times, Fn &&fn)
    {
        const double s = tracer_.span(name, fn);
        if (times != nullptr)
            (*times)[name] += s;
        return s;
    }

    void
    check_fingerprint(Run &r) const
    {
        r.ok = r.fingerprint == reference_ && r.end_cycle == w_.cycles;
        if (!r.ok)
            r.why = "fingerprint or end cycle differs from the 1-thread "
                    "poll reference";
    }

    void
    check_mips(mips::MipsMachine &m, Run &r) const
    {
        if (!m.all_halted() || r.end_cycle >= w_.cycles) {
            r.why = "not every core halted before the cycle limit";
            return;
        }
        for (NodeId n = 0; n < m.num_cores(); ++n) {
            const auto &out = m.core(n).output();
            if (out.size() != 1 ||
                static_cast<std::uint32_t>(out[0]) !=
                    workloads::blackscholes_expected_checksum(
                        n, kBsOptions, kBsRounds)) {
                r.why = "core " + std::to_string(n) +
                        " printed a wrong blackscholes checksum";
                return;
            }
        }
        r.ok = true;
    }

    const Workload &w_;
    std::uint64_t seed_;
    Tracer tracer_;
    std::string program_;
    std::uint64_t reference_ = 0;
    double reference_s_ = 0.0;
};

/** Mean ns per lookup over every key of every frozen routing table. */
double
probe_route_lookup_ns(const sim::System &sys)
{
    std::vector<std::pair<const net::RoutingTable *, net::RouteKey>> keys;
    const net::Network &net = sys.network();
    for (NodeId n = 0; n < sys.num_tiles(); ++n) {
        const auto &t = net.router(n).routing_table();
        for (const auto &k : t.keys())
            keys.push_back({&t, k});
    }
    if (keys.empty())
        return 0.0;
    const std::size_t passes =
        std::max<std::size_t>(1, 4000000 / keys.size());
    std::size_t missing = 0, options = 0;
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < passes; ++p)
        for (const auto &[t, k] : keys) {
            const auto *o = t->lookup(k.prev_node, k.flow);
            if (o == nullptr)
                ++missing;
            else
                options += o->count;
        }
    const double s = since(t0, Clock::now());
    if (missing != 0 || options == 0)
        die("route lookup probe: a listed key did not resolve");
    return s * 1e9 / static_cast<double>(passes * keys.size());
}

/** ns per arrive_and_wait round of a 4-party sim::Barrier. */
double
probe_barrier_ns()
{
    constexpr unsigned kParties = 4;
    constexpr unsigned kRounds = 20000;
    sim::Barrier barrier(kParties);
    std::vector<std::thread> workers;
    for (unsigned i = 1; i < kParties; ++i)
        workers.emplace_back([&] {
            for (unsigned r = 0; r < kRounds; ++r)
                barrier.arrive_and_wait();
        });
    const auto t0 = Clock::now();
    for (unsigned r = 0; r < kRounds; ++r)
        barrier.arrive_and_wait();
    const double s = since(t0, Clock::now());
    for (auto &t : workers)
        t.join();
    return s * 1e9 / kRounds;
}

/**
 * Confines the calling thread, and every thread it starts meanwhile,
 * to the lowest-numbered core it may run on (CPU 0, where a 1-thread
 * run pinned `compact` goes, when the process may use it); the
 * previous mask comes back when the pin ends.
 */
class CorePin
{
  public:
    CorePin()
    {
        if (sched_getaffinity(0, sizeof(old_), &old_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &old_)) {
                CPU_SET(c, &one);
                break;
            }
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~CorePin()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(old_), &old_);
    }
    CorePin(const CorePin &) = delete;
    CorePin &operator=(const CorePin &) = delete;

  private:
    cpu_set_t old_;
    bool pinned_ = false;
};

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
    bool rss_probe = false;
};

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--rss-probe") {
            a.rss_probe = true;
            continue;
        }
        if (i + 1 >= argc)
            die("missing value for " + key);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            for (const auto &w : kWorkloads)
                if (val == w.name)
                    a.workload = &w;
            if (a.workload == nullptr)
                die("unknown workload " + val);
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end != val.c_str() && *end == '\0';
            if (!have_seed)
                die("bad --seed " + val);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (end == val.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 600.0)
                die("bad --seconds " + val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                die("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--trace-out") {
            a.trace_out = val;
        } else {
            die("unknown argument " + key);
        }
    }
    if (a.workload == nullptr || !have_seed ||
        (a.seconds <= 0.0 && !a.rss_probe))
        die("usage: --workload NAME --seed N (--seconds S --trace 0|1 "
            "[--trace-out PATH] | --rss-probe)");
    return a;
}

/** One invocation: measure (or probe) one workload for one seed. */
int
measure(const Args &args)
{
    const Workload &w = *args.workload;
    Bench bench(w, args.seed);
    Tracer &tracer = bench.tracer();

    if (args.rss_probe) {
        // Peak RSS of a process that builds and runs the workload once,
        // as a user would: read in a fresh process, so the figure does
        // not depend on how many set-ups ran before it.
        Built b = bench.setup(nullptr);
        const Bench::Run r =
            bench.run(b, bench.run_options("event-fine", 1), nullptr);
        std::printf("{\"fingerprint\": \"%016llx\", \"ok\": %s, "
                    "\"why\": \"%s\", \"peak_rss_mb\": %.17g}\n",
                    static_cast<unsigned long long>(r.fingerprint),
                    r.ok ? "true" : "false", r.why.c_str(), peak_rss_mb());
        return 0;
    }

    // Set-ups take milliseconds, and the MIPS machine's set-up starts
    // four construction threads. Left to run on whichever cores were
    // idle, with glibc handing freed set-up memory back to the kernel
    // for the next set-up to fault in again, its per-process median
    // varied by half between seeds. So freed memory stays in the
    // process, and the timed loop, threads it starts included, runs on
    // one core.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    std::optional<CorePin> one_core(std::in_place);

    bench.make_reference();

    std::vector<double> setup_s;
    std::vector<SpanTimes> setup_spans;
    double extra_setup_s = 0.0;

    // Timed loop: set up, run and check until --seconds have passed.
    // In a traced process every other iteration runs untraced, so the
    // tracing overhead is measured in the same process.
    std::vector<double> run_s_samples, run_s_untraced;
    std::vector<SpanTimes> run_spans;
    std::vector<std::uint64_t> fingerprints;
    unsigned attempted = 0, failed = 0;
    std::string first_failure;
    auto record = [&](const Bench::Run &r, const char *what) {
        ++attempted;
        fingerprints.push_back(r.fingerprint);
        if (!r.ok) {
            ++failed;
            if (first_failure.empty())
                first_failure = what + r.why;
        }
    };
    Bench::Run first;
    double net_route_entries = 0.0, route_lookup_ns = 0.0;
    std::uint64_t instructions = 0, mem_stall = 0, l1_hits = 0,
                  l1_misses = 0;
    RunningStat miss_latency;
    const auto loop0 = Clock::now();
    double last_iter_s = 0.0;
    for (unsigned i = 0;; ++i) {
        const double elapsed = since(loop0, Clock::now());
        if (i >= kMinRuns && elapsed + last_iter_s > args.seconds)
            break;
        const bool traced = !args.trace || i % 2 == 0;
        tracer.set_recording(args.trace && traced);
        const auto it0 = Clock::now();
        tracer.span("bench.iteration", [&] {
            SpanTimes t;
            Built b = bench.setup(&t);
            Bench::Run r = bench.run(
                b, bench.run_options("event-fine", 1), &t);
            record(r, "");
            setup_s.push_back(t["bench.setup"]);
            (traced ? run_s_samples : run_s_untraced).push_back(r.run_s);
            if (traced) {
                setup_spans.push_back(t);
                run_spans.push_back(t);
            }
            if (i != 0)
                return;
            // Counters repeat exactly for one seed; read them once.
            // Probes run on this run's frozen state.
            sim::System &sys = b.system();
            for (NodeId n = 0; n < sys.num_tiles(); ++n)
                net_route_entries += static_cast<double>(
                    sys.network().router(n).routing_table().size());
            if (args.trace)
                tracer.span("bench.route_lookup_probe", [&] {
                    route_lookup_ns = probe_route_lookup_ns(sys);
                });
            if (b.machine)
                for (NodeId n = 0; n < b.machine->num_cores(); ++n) {
                    auto &core = b.machine->core(n);
                    instructions += core.stats().instructions;
                    mem_stall += core.stats().mem_stall_cycles;
                    const auto &ms = core.memory().stats();
                    l1_hits += ms.l1_hits;
                    l1_misses += ms.l1_misses;
                    miss_latency.merge(ms.miss_latency);
                }
            first = std::move(r);
        });
        for (unsigned k = 0;
             k < kExtraSetupsPerRun &&
             extra_setup_s < kExtraSetupShare * since(loop0, Clock::now());
             ++k) {
            SpanTimes t;
            tracer.span("bench.extra_setup", [&] { bench.setup(&t); });
            setup_s.push_back(t["bench.setup"]);
            extra_setup_s += setup_s.back();
            if (traced)
                setup_spans.push_back(t);
        }
        last_iter_s = since(it0, Clock::now());
    }

    // Lockstep runs of the same system on kParallelThreads threads:
    // the shard overhead of sim, and proof that lockstep reproduces the
    // sequential result (every fingerprint is checked). Then the
    // barrier probe.
    one_core.reset();
    std::vector<double> run_s_parallel;
    double barrier_ns = 0.0;
    if (args.trace) {
        tracer.set_recording(true);
        for (unsigned k = 0; k < kParallelRuns; ++k)
            tracer.span("bench.parallel_run", [&] {
                Built b = bench.setup(nullptr, kParallelThreads);
                const Bench::Run r = bench.run(
                    b, bench.run_options("event-fine", kParallelThreads),
                    nullptr);
                record(r, "lockstep run: ");
                run_s_parallel.push_back(r.run_s);
            });
        tracer.span("bench.barrier_probe",
                    [&] { barrier_ns = probe_barrier_ns(); });
    }

    // ---- metrics ------------------------------------------------------
    const SystemStats &stats = first.stats;
    const double cycles = static_cast<double>(first.end_cycle);
    const double run_s = median(run_s_samples);
    const TileStats &tot = stats.total;
    const double hops = static_cast<double>(tot.link_transits);
    auto span_median = [](const std::vector<SpanTimes> &v, const char *n) {
        std::vector<double> xs;
        for (const auto &t : v) {
            auto it = t.find(n);
            xs.push_back(it == t.end() ? 0.0 : it->second);
        }
        return median(xs);
    };
    std::map<std::string, double> m;
    if (!args.trace) {
        m["setup_s"] = median(setup_s);
        m["sim_kcycles_per_s"] = ratio(cycles, run_s) / 1e3;
        m["ns_per_flit_hop"] = ratio(run_s * 1e9, hops);
    } else {
        const double n_tiles = static_cast<double>(stats.per_tile.size());
        const double routing_s = span_median(setup_spans, "net.routing_build");
        const double freeze_s = span_median(setup_spans, "sim.freeze");
        const double ctor_s = span_median(setup_spans, "sim.system_ctor");
        m["traffic.flows_s"] = span_median(setup_spans, "traffic.flows");
        m["net.routing_build_s"] = routing_s;
        m["sim.freeze_s"] = freeze_s;
        m["net.route_entries"] = net_route_entries;
        m["net.routing_build_ns_per_entry"] =
            ratio(routing_s * 1e9, net_route_entries);
        m["sim.freeze_ns_per_entry"] =
            ratio(freeze_s * 1e9, net_route_entries);
        m["sim.system_ctor_s"] = ctor_s;
        m["sim.ctor_us_per_tile"] = ratio(ctor_s * 1e6, n_tiles);
        m["traffic.frontend_attach_s"] =
            span_median(setup_spans, "traffic.frontend_attach");
        m["mips.machine_ctor_s"] =
            span_median(setup_spans, "mips.machine_ctor");
        m["common.arena_bytes_per_tile"] = stats.arena_bytes_per_tile;
        m["sim.run_s"] = run_s;
        m["sim.collect_stats_s"] =
            span_median(run_spans, "sim.collect_stats");
        m["net.link_transits"] = hops;
        m["net.buffer_writes"] = static_cast<double>(tot.buffer_writes);
        m["net.va_stalls"] = static_cast<double>(tot.va_stalls);
        m["net.sa_stalls"] = static_cast<double>(tot.sa_stalls);
        m["net.sa_stall_ratio"] =
            ratio(static_cast<double>(tot.sa_stalls),
                  static_cast<double>(tot.sa_grants + tot.sa_stalls));
        m["net.credit_stalls"] = static_cast<double>(tot.credit_stalls);
        m["net.route_lookup_ns"] = route_lookup_ns;
        const double comp_run = static_cast<double>(stats.comp_cycles_run);
        const double comp_skip =
            static_cast<double>(stats.comp_cycles_skipped);
        m["sim.comp_cycles_run"] = comp_run;
        m["sim.comp_cycles_skipped"] = comp_skip;
        m["sim.comp_skip_ratio"] = ratio(comp_skip, comp_run + comp_skip);
        m["sim.ns_per_comp_cycle"] = ratio(run_s * 1e9, comp_run);
        const double par_s = median(run_s_parallel);
        m["sim.parallel_speedup"] = ratio(run_s, par_s);
        m["sim.shard_overhead_ns_per_cycle"] =
            ratio((par_s - run_s / kParallelThreads) * 1e9, cycles);
        m["sim.barrier_ns"] = barrier_ns;
        m["traffic.flits_delivered"] =
            static_cast<double>(tot.flits_delivered);
        m["traffic.avg_packet_latency_cycles"] = stats.avg_packet_latency();
        const double instr = static_cast<double>(instructions);
        m["mips.instructions"] = instr;
        m["mips.kinstr_per_s"] = ratio(instr, run_s) / 1e3;
        m["mips.ns_per_instruction"] = ratio(run_s * 1e9, instr);
        m["mips.ipc"] =
            w.mips ? ratio(instr, cycles * w.side * w.side) : 0.0;
        m["mips.mem_stall_cycles"] = static_cast<double>(mem_stall);
        m["mem.l1_hit_ratio"] =
            ratio(static_cast<double>(l1_hits),
                  static_cast<double>(l1_hits + l1_misses));
        m["mem.miss_latency_cycles"] = miss_latency.mean();
        m["bench.tracing_overhead_s"] =
            run_s_untraced.empty() ? 0.0 : run_s - median(run_s_untraced);
        if (!args.trace_out.empty())
            tracer.write(args.trace_out, w.name, args.seed);
    }

    // ---- report -------------------------------------------------------
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %u, "
                "\"failed\": %u, \"first_failure\": \"%s\", "
                "\"setups\": %zu, \"cycles\": %llu, "
                "\"reference_fingerprint\": \"%016llx\", "
                "\"reference_s\": %.3f, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"fingerprints\": [",
                w.name, static_cast<unsigned long long>(args.seed), attempted,
                failed, first_failure.c_str(), setup_s.size(),
                static_cast<unsigned long long>(first.end_cycle),
                static_cast<unsigned long long>(bench.reference()),
                bench.reference_s(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    for (std::size_t i = 0; i < fingerprints.size(); ++i)
        std::printf("%s\"%016llx\"", i ? ", " : "",
                    static_cast<unsigned long long>(fingerprints[i]));
    std::printf("], \"run_s\": [");
    for (std::size_t i = 0; i < run_s_samples.size(); ++i)
        std::printf("%s%.6f", i ? ", " : "", run_s_samples[i]);
    std::printf("], \"metrics\": {");
    const char *sep = "";
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    try {
        return measure(args);
    } catch (const std::exception &e) {
        // The library reports bad configurations through fatal(),
        // which throws; exit with a message rather than terminate.
        die(std::string("error: ") + e.what());
    }
}
