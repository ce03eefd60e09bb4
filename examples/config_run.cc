/**
 * @file
 * Config-driven runner: describe an entire experiment in an INI file
 * (topology, router parameters, routing scheme, traffic) and run it —
 * no recompilation, exactly the "highly configurable" workflow the
 * paper advertises.
 *
 *   $ ./examples/config_run experiment.ini [cycles] [threads] [sync]
 *
 * With no arguments a built-in demo config is used. The [sim] section
 * of the config selects the engine parameters (threads, horizon, sync
 * backend — including "adaptive"); the optional positional arguments
 * override it for quick sweeps. A non-numeric positional argument
 * prints a usage line; a rejected config or argument (a fatal() from
 * the library) prints its message. Both exit with status 1.
 */
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>

#include "traffic/system_builder.h"

using namespace hornet;

namespace {

const char *kDemoConfig = R"(
# demo: transpose on an 8x8 mesh with O1TURN and EDVCA
[topology]
kind = mesh
width = 8
height = 8

[network]
vcs = 4
vc_capacity = 4
vca = edvca

[routing]
scheme = o1turn

[traffic]
kind = synthetic
pattern = transpose
rate = 0.08
packet_size = 8

[sim]
seed = 42
)";

/** Parse a whole decimal/hex/octal argument no larger than @p max
 *  into @p out; false on anything else (sign, junk, overflow). */
bool
parse_number(const char *arg, unsigned long long max,
             unsigned long long &out)
{
    if (!std::isdigit(static_cast<unsigned char>(arg[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(arg, &end, 0);
    return *end == '\0' && errno == 0 && out <= max;
}

int
run(int argc, char **argv)
{
    // Positional numbers: cycles, threads, sync period.
    unsigned long long num[3] = {};
    const unsigned long long max[3] = {
        std::numeric_limits<unsigned long long>::max(),
        std::numeric_limits<unsigned>::max(),
        std::numeric_limits<std::uint32_t>::max()};
    for (int i = 2; i < argc && i < 5; ++i) {
        if (!parse_number(argv[i], max[i - 2], num[i - 2])) {
            std::fprintf(stderr,
                         "config_run: argument %d (\"%s\") is not a "
                         "number\nusage: %s [config.ini] [cycles] "
                         "[threads] [sync_period]\n",
                         i, argv[i], argv[0]);
            return 1;
        }
    }

    Config cfg = argc > 1 ? Config::from_file(argv[1])
                          : Config::from_string(kDemoConfig);

    sim::RunOptions opts = traffic::run_options_from_config(cfg);
    if (argc > 2)
        opts.max_cycles = num[0];
    else if (!cfg.has("sim.max_cycles"))
        opts.max_cycles = 20000;
    if (argc > 3)
        opts.threads = static_cast<unsigned>(num[1]);
    if (argc > 4) {
        // A positional sync period overrides the whole [sim] sync
        // selection, including adaptive's implied batched handoff —
        // the sweep must be comparable to a sync_period-only config.
        opts.sync_period = static_cast<std::uint32_t>(num[2]);
        opts.sync.clear();
        opts.batch_handoff = false;
    }

    auto sys = traffic::build_system(cfg);
    const std::string sync_desc =
        opts.sync.empty()
            ? "period " + std::to_string(opts.sync_period)
            : opts.sync;
    std::printf("config_run: %u nodes, %llu cycles, %u thread(s), "
                "sync %s\n",
                sys->num_tiles(),
                static_cast<unsigned long long>(opts.max_cycles),
                opts.threads, sync_desc.c_str());

    sys->run(opts);

    auto stats = sys->collect_stats();
    std::printf("%s\n", stats.summary().c_str());
    std::printf("offered load served: %llu packets, p90 latency %.1f "
                "cycles\n",
                static_cast<unsigned long long>(
                    stats.total.packets_delivered),
                stats.total.packet_latency_hist.percentile(0.9));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "config_run: %s\n", e.what());
        return 1;
    }
}
